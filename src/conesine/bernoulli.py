"""Generalized Bernoulli polynomials, plain and cone-restricted.

``bernoulli_multiple`` is ``n!`` times the ``t^n`` coefficient of
``t^r e^{zt} / prod_i (e^{omega_i t} - 1)``.  The period of largest modulus
enters through its own Barnes series ``sum_k B_k omega^{k-1} t^k / k!`` in the
Bernoulli numbers ``B_k``, so its vanishing odd terms stay exact zeros; ``z``
and the other periods through ``exp(G(t))`` with ``G(t) = z t + sum_k c_k p_k
t^k``, ``c_k`` the coefficients of ``log(t / (e^t - 1))`` and ``p_k`` the
power sums of those periods, every degree up to ``n`` from one recursion for
the coefficients of ``exp(G)``, in field operations alone, and once more on
inputs scaled by a power of 2 where that leaves double range.  The cone
sums add such polynomials, every degree from one walk, over a unimodular
wedge decomposition of the cone so that the total is the degree-``n``
coefficient of the lattice generating function over the open cone interior.
An independent oracle sums the same plain polynomials over a partition of the
open cone into simplicial pieces, read off its lattice points alone.
"""

from __future__ import annotations

import cmath
import sys
from math import comb, factorial, frexp, hypot, ldexp, perm
from operator import mul
from typing import Sequence

from .errors import DomainError
from .lattice_cones import Cone, _per_draw, edge_rays, require_count, require_float_exact

MAX_ORDER = 8
_TINY = [0.0] + [sys.float_info.min ** (1 / n) for n in range(1, MAX_ORDER + 1)]  # |w| below _TINY[n]: w^n is not normal


# ---------------------------------------------------------------------------
# plain polynomials, from one log-series recursion and Barnes factors

# B_k / k! for k = 0..MAX_ORDER: the coefficients of t / (e^t - 1)
_BERNOULLI_OVER_FACTORIAL = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600)


def _barnes_series(z, big, others, n: int, table=_BERNOULLI_OVER_FACTORIAL) -> list:
    """[B_{r,k}(z | (big, *others)) for k = 0..n] by one recursion, in field
    operations alone: Fraction inputs and a Fraction ``table`` of B_k / k!
    give exact values.  The inputs are not checked.

    t^r e^{zt} / prod_i (e^{omega_i t} - 1) is exp(G(t)) / prod(others) times
    the Barnes series sum_k B_k big^{k-1} t^k / k! of ``big``.  G(t) = z t +
    sum_k c_k p_k t^k, with c_k the coefficients of log(t / (e^t - 1)), that
    is c_1 = B_1 and k c_k = -B_k / k! for k >= 2, and p_k the power sums of
    ``others``.  The coefficients f_m of exp(G) follow from f' = G' f:
    m f_m = sum_k k G_k f_{m-k} with f_0 = 1.

    The recursion cancels terms of size max |omega|^m at odd degrees m, where
    a Barnes series has exact zeros, so ``big`` should be the period of
    largest modulus: the loss is then relative to terms at least as large.
    """
    # k G_k and B_k big^{k-1} / k! at k = 1, and (k, k G_k, B_k big^{k-1} / k!)
    # at the even k <= n, where B_k is nonzero; even power sums from the squares
    g1, c1 = z + table[1] * sum(others), table[1]
    even = []
    if n > 1:
        power, squares = big, [w * w for w in others]
        powers = squares
        for k in range(2, n + 1, 2):
            if k > 2:
                powers = [p * s for p, s in zip(powers, squares)]
                power *= big * big
            even.append((k, -table[k] * sum(powers), table[k] * power))
    scale = 1  # m! / prod(others)
    for w in others:
        scale = scale / w
    f, out = [1], [scale / big]
    for m in range(1, n + 1):
        a = f[m - 1]
        f_m, h_m = g1 * a, c1 * a
        for k, g, c in even:
            if k > m:
                break
            a = f[m - k]
            f_m += g * a
            h_m += c * a
        f_m /= m
        f.append(f_m)
        scale *= m
        out.append((f_m / big + h_m) * scale)
    return out


def _ldexp(w: complex, e: int) -> complex:
    """w times 2^e, part by part; OverflowError where a part leaves double range."""
    return complex(ldexp(w.real, e), ldexp(w.imag, e))


def _bernoulli_upto(z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """``_bernoulli_table(z, omegas, n)``, kept per draw for its own order n (``_per_draw``)."""
    return _per_draw((z, omegas, n), _bernoulli_table, z, omegas, n)


def _bernoulli_table(z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """[B_{r,k}(z | omegas) for k = 0..n], r = len(omegas), from ``_barnes_series``
    with the period of largest modulus as ``big``; z, the periods and the
    result must be finite.  Where a value is not finite, or B_{r,0} = 1 /
    prod(omegas) or big^n (the size of the degree-n terms) is below the normal
    range, it runs once more on z and the periods times 2^-e, e the binary
    exponent of their largest part, and multiplies each B_{r,k} back by
    2^{e(k-r)}: the recursion is homogeneous in (z, omegas), so the retry is
    exact while its values stay normal.  A period that scales to 0 and a value
    above double range are refused."""
    if not omegas:
        raise DomainError("at least one period is required")
    n = require_count(n, "order", 0)
    if n > MAX_ORDER:
        raise DomainError(f"order {n} outside [0, {MAX_ORDER}]")
    z = complex(z)
    if 0 in omegas:
        raise DomainError("periods must be nonzero")
    if cmath.isfinite(z) and all(map(cmath.isfinite, omegas)):
        try:
            others = sorted(omegas, key=abs)
            big = others.pop()
            out = _barnes_series(z, big, others, n)
            if all(map(cmath.isfinite, out)) and abs(out[0]) >= sys.float_info.min and abs(big) >= _TINY[n]:
                return out
        except OverflowError:  # abs() of finite parts above double range
            pass
        e = frexp(max(max(abs(w.real), abs(w.imag)) for w in (z, *omegas)))[1]
        try:
            others = sorted((_ldexp(w, -e) for w in omegas), key=abs)
            scaled = _barnes_series(_ldexp(z, -e), others.pop(), others, n)
            out = [_ldexp(b, e * (k - len(omegas))) for k, b in enumerate(scaled)]
            if all(map(cmath.isfinite, out)):
                return out
        except (OverflowError, ZeroDivisionError):  # a value above double range; a period scaled to 0
            pass
    # not abs(): on a complex with a nan part it raises OverflowError where errno is left at ERANGE
    biggest = max(hypot(w.real, w.imag) for w in omegas)
    raise DomainError(f"order-{n} Bernoulli polynomial is not finite at z = {z:.6g}, largest |omega| = {biggest:.3g}")


def bernoulli_multiple(z: complex, omegas: tuple[complex, ...], n: int) -> complex:
    """Degree-n generalized Bernoulli polynomial with r = len(omegas) periods.

    Coefficient of t^n/n! in t^r e^{zt} / prod_i (e^{omega_i t} - 1).  The
    periods must be nonzero; n must be an integer in [0, MAX_ORDER], not a
    bool.
    """
    return _bernoulli_upto(z, tuple(map(complex, omegas)), n)[n]


# ---------------------------------------------------------------------------
# domain check: a damping phase must exist


def _exists_damping_phase(rays: list[tuple[int, ...]], omegas: tuple[complex, ...]) -> bool:
    """True if some phase c = e^{i theta} has Re(c omega) positive on all rays.

    That holds exactly when no pairing omega . ray is zero and the widest
    cyclic gap between their arguments exceeds pi, i.e. when some pairing p
    has every pairing at an angle in [0, pi) counterclockwise from it.  The
    test reads signs of cross and dot products, not rounded arguments, so
    exactly opposite pairings (a gap of exactly pi) are always rejected.
    """
    pairings = [sum(map(mul, r, omegas)) for r in rays]
    if 0 in pairings:
        return False
    parts = [(p.real, p.imag) for p in pairings]
    for pr, pi in parts:
        for qr, qi in parts:
            cross = pr * qi - pi * qr
            if cross < 0 or (cross == 0 and pr * qr + pi * qi < 0):
                break
        else:
            return True  # every pairing is within [0, pi) counterclockwise of p
    return False


def _require_damping_phase(rays: list[tuple[int, ...]], omegas: tuple[complex, ...]) -> None:
    if not _exists_damping_phase(rays, omegas):
        raise DomainError(
            "no phase makes Re(c omega) positive on the cone: the lattice "
            "generating function has no convergent direction for these periods"
        )


# ---------------------------------------------------------------------------
# cone-restricted polynomials


def _as_period_tuple(omegas: Sequence[complex], cone: Cone) -> tuple[complex, ...]:
    """One complex period per cone dimension, for a cone that ``require_float_exact`` takes."""
    require_float_exact(cone)
    out = tuple(complex(w) for w in omegas)
    if len(out) != cone.dim:
        raise DomainError(f"a {cone.dim}d cone takes {cone.dim} periods, got {len(out)}")
    return out


def _cone_sum(cone: Cone, z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """The cone polynomials of degrees 0..n from one walk of the wedges: the
    sums of the wedges' plain polynomials, plus the straightened axis term in
    3d.  The caller checks the damping phase."""
    axis, wedges = cone.wedges(z, omegas)
    total = [sum(col) for col in zip(*(_bernoulli_upto(arg, periods, n) for arg, periods in wedges))]
    if axis is not None and n >= 2:
        for k, b in enumerate(_bernoulli_upto(z, (axis,), n - 2), start=2):
            total[k] += k * (k - 1) * b
    return total


def bernoulli_cone(cone: Cone, z: complex, omegas: tuple[complex, ...], n: int) -> complex:
    """Degree-n cone polynomial of a 2d cone or of a good Gorenstein 3d cone:
    n! times the t^n coefficient of t^r e^{zt} sum_{m in interior(C)}
    e^{-(omega . m) t}, r = cone.dim.

    In 2d each shifted chain term covers its half-open wedge with the upper
    edge included, and the final unshifted term the last wedge with both
    edges excluded, so the union is exactly the open cone.  In 3d the facet
    wedges tile the punctured plane of apex vectors, missing exactly the
    points on the straightened first axis; their generating function adds
    n(n-1) B_{1,n-2}(z|w1).
    """
    omegas = _as_period_tuple(omegas, cone)
    _require_damping_phase(edge_rays(cone), omegas)
    return _cone_sum(cone, z, omegas, n)[n]


def bernoulli_cone_lifted(cone: Cone, z: complex, omegas: tuple[complex, ...], eta: complex) -> complex:
    """Top-degree cone polynomial of the cylinder lift C x R+.

    The lift's generating function factors, so the coefficient is a binomial
    convolution of the base cone polynomials with the one-period polynomials
    at z = 0 evaluated on the lift parameter eta.  Degree is dim + 1.
    """
    eta = complex(eta)
    if eta == 0:
        raise DomainError("lift parameter must be nonzero")
    omegas = _as_period_tuple(omegas, cone)
    lifted_rays = [tuple(r) + (0,) for r in edge_rays(cone)]
    lifted_rays.append((0,) * cone.dim + (1,))
    # the lifted rays contain the base rays, so this one check covers the
    # base polynomials as well
    _require_damping_phase(lifted_rays, omegas + (eta,))
    m = cone.dim + 1
    base = _cone_sum(cone, z, omegas, m)
    axis = _bernoulli_upto(0, (eta,), m)
    return sum(comb(m, k) * base[k] * axis[m - k] for k in range(m + 1))


# ---------------------------------------------------------------------------
# independent oracle: plain polynomials over the parallelepiped pieces


def _piece_sum(pieces, z, omegas: tuple, lift: tuple, n: int, upto=_bernoulli_table):
    """The degree-n coefficient of t^r e^{zt} sum_m e^{-(omega . m) t} over
    the lattice points m of ``pieces``, times n!, r = len(omegas) +
    len(lift); the periods ``lift`` are appended to every piece.

    A piece of rays V, k fewer than the cone's dimension, has the generating
    function sum_q e^{(omega . p) t} / prod_v (e^{(omega . v) t} - 1) over
    its points q, p = sum V - q, so it adds n! / (n - k)! B_{n-k}(z + omega
    . p | omega . V, lift) per point.  ``upto(z, periods, n)`` lists the
    plain polynomials of degrees 0..n; Fractions and an exact one make the
    sum exact.
    """
    total = 0
    for piece in pieces:
        k = len(omegas) - len(piece.rays)
        if n < k:
            continue
        periods = tuple(sum(map(mul, v, omegas)) for v in piece.rays) + lift
        corner = [sum(c) for c in zip(*piece.rays)]
        for q in piece.points:
            shift = z + sum(map(mul, [c - e for c, e in zip(corner, q)], omegas))
            total += perm(n, k) * upto(shift, periods, n - k)[n - k]
    return total


def bernoulli_cone_oracle(
    cone: Cone,
    z: complex,
    omegas: tuple[complex, ...],
    n: int,
    *,
    radius: int | None = None,
    ray: complex = 1.0,
    samples: int = 56,
    eta: complex | None = None,
) -> complex:
    """Degree-n cone polynomial from the cone's lattice points alone.

    ``cone.pieces`` partitions the open cone into relatively open simplicial
    pieces, so the coefficient is a finite sum of plain polynomials
    (``_piece_sum``).  With ``eta`` set, the cylinder lift C x R+ is summed:
    eta is one more period of every piece.  Only ``edge_rays`` and the plain
    polynomials are shared with ``bernoulli_cone``, so any 2d or 3d cone is
    taken.  ``ray`` must make Re(ray * omega . x) positive on every edge ray
    x, and Re(ray * eta): the lattice sum then converges along it.

    It needs one finite period per dimension, finite z, ray and eta, and an
    integer 0 <= n <= MAX_ORDER.  ``radius`` and ``samples`` must be
    positive integers, but no longer change the value: they sized the
    sampled sum that this exact one replaced.  Other arguments, bools as
    counts and a value that is not finite raise DomainError.
    """
    omegas = _as_period_tuple(omegas, cone)
    lift = () if eta is None else (complex(eta),)
    inputs = (complex(z), *omegas, complex(ray), *lift)
    if not all(map(cmath.isfinite, inputs)):
        raise DomainError(f"z, the periods, ray and eta must be finite, got {inputs}")
    n = require_count(n, "order", 0)
    if n > MAX_ORDER:
        raise DomainError(f"order {n} outside [0, {MAX_ORDER}]")
    require_count(samples, "samples", 1)
    if radius is not None:
        require_count(radius, "radius", 1)
    pairings = [sum(map(mul, x, omegas)) for x in edge_rays(cone)] + list(lift)
    if not min((complex(ray) * p).real for p in pairings) > 0:
        raise DomainError("ray does not damp the lattice sum along every edge")
    value = _piece_sum(cone.pieces, complex(z), omegas, lift, n)
    if not cmath.isfinite(value):
        raise DomainError(f"the oracle's coefficient of order {n} is not finite")
    return value
