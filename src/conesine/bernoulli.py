"""Generalized Bernoulli polynomials, plain and cone-restricted.

``bernoulli_multiple`` is ``n!`` times the ``t^n`` coefficient of
``t^r e^{zt} / prod_i (e^{omega_i t} - 1) = e^{zt} prod_i sum_k B_k
omega_i^{k-1} t^k / k!`` (Barnes), one product of truncated series in the
Bernoulli numbers ``B_k``.  The cone-restricted variants sum such polynomials,
every degree from one walk, over a unimodular wedge decomposition of the cone
so that the total is the degree-``n`` coefficient of the lattice generating
function over the open cone interior; an independent numeric oracle (direct
lattice sum plus a Chebyshev fit) ships alongside for verification.
"""

from __future__ import annotations

import cmath
import operator
from math import comb, factorial, lcm
from typing import Sequence

from .errors import DomainError
from .lattice_cones import (
    Cone,
    cone_plan,
    edge_rays,
)

MAX_ORDER = 8


# ---------------------------------------------------------------------------
# plain polynomials, from Bernoulli numbers

# B_k / k! for k = 0..MAX_ORDER: the coefficients of t / (e^t - 1)
_BERNOULLI_OVER_FACTORIAL = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600)


def _bernoulli_upto(z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """[B_{r,k}(z | omegas) for k = 0..n], with r = len(omegas).

    The coefficients of e^{zt} and the powers of each omega are running
    products; z, the periods and the result must be finite.
    """
    if not omegas:
        raise DomainError("at least one period is required")
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"order must be an integer, got {n!r}") from None
    if not (0 <= n <= MAX_ORDER):
        raise DomainError(f"order {n} outside [0, {MAX_ORDER}]")
    z = complex(z)
    if 0 in omegas:
        raise DomainError("periods must be nonzero")
    if cmath.isfinite(z) and all(map(cmath.isfinite, omegas)):
        acc = [1 + 0j]
        for k in range(1, n + 1):
            acc.append(acc[-1] * z / k)
        for w in omegas:
            # acc times sum_k (B_k / k!) omega^{k-1} t^k, skipping B_k = 0
            new, power = [a / w for a in acc], 1 + 0j
            for k in range(1, n + 1):
                if _BERNOULLI_OVER_FACTORIAL[k]:
                    c = _BERNOULLI_OVER_FACTORIAL[k] * power
                    new[k:] = [x + c * a for x, a in zip(new[k:], acc)]
                power *= w
            acc = new
        out = [c * factorial(k) for k, c in enumerate(acc)]
        if all(map(cmath.isfinite, out)):
            return out
    biggest = max(abs(w) for w in omegas)
    raise DomainError(f"order-{n} Bernoulli polynomial is not finite at z = {z:.6g}, largest |omega| = {biggest:.3g}")


def bernoulli_multiple(z: complex, omegas: tuple[complex, ...], n: int) -> complex:
    """Degree-n generalized Bernoulli polynomial with r = len(omegas) periods.

    Coefficient of t^n/n! in t^r e^{zt} / prod_i (e^{omega_i t} - 1).  The
    periods must be nonzero; n must be an integer in [0, MAX_ORDER].
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
    pairings = [sum(r[k] * omegas[k] for k in range(len(omegas))) for r in rays]
    if any(p == 0 for p in pairings):
        return False

    def starts_arc(p: complex) -> bool:
        for q in pairings:
            cross = p.real * q.imag - p.imag * q.real
            if cross < 0 or (cross == 0 and p.real * q.real + p.imag * q.imag < 0):
                return False
        return True

    return any(starts_arc(p) for p in pairings)


def _require_damping_phase(rays: list[tuple[int, ...]], omegas: tuple[complex, ...]) -> None:
    if not _exists_damping_phase(rays, omegas):
        raise DomainError(
            "no phase makes Re(c omega) positive on the cone: the lattice "
            "generating function has no convergent direction for these periods"
        )


# ---------------------------------------------------------------------------
# cone-restricted polynomials


def _as_period_tuple(omegas: Sequence[complex], dim: int) -> tuple[complex, ...]:
    out = tuple(complex(w) for w in omegas)
    if len(out) != dim:
        raise DomainError(f"a {dim}d cone takes {dim} periods, got {len(out)}")
    return out


def _cone_sum(cone: Cone, z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """The cone polynomials of degrees 0..n from one walk of the wedges: the
    sums of the wedges' plain polynomials, plus the straightened axis term in
    3d.  The caller checks the damping phase."""
    axis, wedges = cone_plan(cone).wedges(z, omegas)
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
    omegas = _as_period_tuple(omegas, cone.dim)
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
    omegas = _as_period_tuple(omegas, cone.dim)
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
# independent oracle: direct lattice sum + Chebyshev fit


def _row_runs(points):
    """One row's fiber ends, split into maximal arithmetic progressions.

    ``points`` holds integer lattice points in the row's residue-class order.
    A run takes points greedily while the integer step between neighbours
    stays the same, so it ends at the first point where the step changes and
    the next run starts just after it.  Returns an int64 array with one line
    per run: its head point, its step (zero for a single point) and its
    length.
    """
    import numpy as np

    m, dim = points.shape
    if m == 0:
        return np.empty((0, 2 * dim + 1), dtype=np.int64)
    diffs = np.diff(points, axis=0)
    bends = np.flatnonzero((diffs[1:] != diffs[:-1]).any(axis=1)) + 1
    firsts = []
    s = 0
    for b in bends.tolist():
        if b > s:
            firsts.append(s)
            s = b + 1
    if s < m:
        firsts.append(s)
    first = np.array(firsts, dtype=np.int64)
    last = np.append(first[1:] - 1, m - 1)
    counts = last - first + 1
    heads = points[first]
    steps = (points[last] - heads) // np.maximum(counts - 1, 1)[:, None]
    return np.column_stack((heads, steps, counts))


def _fiber_runs(cone: Cone, radius: int) -> tuple:
    """The integer skeleton of the oracle's lattice sum over the open cone.

    The sum runs over the transverse coordinates, truncated at sup-norm
    ``radius``, and sums each fiber along the last axis as an exact geometric
    series, so the truncation tail decays one dimension lower than a raw box
    sum.  Returns ``(bounded, starts, stops)``: which fiber end the cone
    bounds (``"both"``, ``"lower"`` or ``"upper"``); the lattice point at each
    nonempty fiber's bounded end (its lowest point unless only the upper end
    is bounded), grouped into runs; and, for two-sided fibers, the point one
    step past each top, in runs of its own (``None`` otherwise).  A run is one
    line ``(head point, integer step, length)`` of ``_row_runs`` and stands
    for the points head + i * step, 0 <= i < length.

    The transverse grid is walked one row at a time (one row in 2d, one
    value of the first coordinate in 3d).  Within a row the last transverse
    coordinate y is visited one residue class mod the stride P at a time, P
    the lcm of the nonzero last coordinates of the normals.  Along one class
    every normal's bound on the fiber end moves by a constant integer, so the
    kept ends form a few arithmetic progressions, broken only where the
    active normal changes.  A row's points, bounds and mask are dropped once
    its runs are kept.
    """
    import numpy as np

    normals = np.asarray(cone.normals, dtype=np.int64)
    a = normals[:, -1].tolist()
    base_n = normals[:, :-1]
    # some last coordinate is nonzero: Cone refuses normals that do not span
    has_lower = any(ai > 0 for ai in a)
    has_upper = any(ai < 0 for ai in a)
    bounded = "both" if has_lower and has_upper else "lower" if has_lower else "upper"
    stride = lcm(*(abs(ai) for ai in a if ai))
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    # classes past the row length are empty, however large the stride
    ys = np.concatenate([rng[r::stride] for r in range(min(stride, rng.size))])
    if cone.dim == 2:
        rows = [ys.reshape(-1, 1)]
    else:
        rows = (np.stack((np.full_like(ys, x), ys), axis=-1) for x in rng)
    starts = []
    stops = []
    for base in rows:
        dots = base @ base_n.T  # (row length, n_normals)
        alive = np.ones(len(base), dtype=bool)
        lower = None
        upper = None
        for i, ai in enumerate(a):
            need = 1 - dots[:, i]  # constraint ai * s >= need
            if ai == 0:
                alive &= need <= 0
            elif ai > 0:
                lo_i = -((-need) // ai)  # ceil division
                lower = lo_i if lower is None else np.maximum(lower, lo_i)
            else:
                hi_i = need // ai  # floor of need/ai with ai < 0
                upper = hi_i if upper is None else np.minimum(upper, hi_i)
        if bounded == "both":
            mask = alive & (lower <= upper)
            starts.append(_row_runs(np.column_stack((base[mask], lower[mask]))))
            stops.append(_row_runs(np.column_stack((base[mask], upper[mask] + 1))))
        else:
            end = lower if bounded == "lower" else upper
            starts.append(_row_runs(np.column_stack((base[alive], end[alive]))))
    return bounded, np.concatenate(starts), np.concatenate(stops) if stops else None


def _fiber_exponents(cone: Cone, omegas: tuple[complex, ...], radius: int) -> tuple:
    """The t-independent part of the oracle's lattice sum over the open cone.

    Returns ``(w, bounded, starts, stops)``: the fiber period ``w`` (the last
    period), ``bounded`` as in ``_fiber_runs``, and the runs of fiber ends of
    ``_fiber_runs`` with the periods paired in: each is ``(head, tail, step,
    count)``, the exponents ``omega . m`` at a run's first and last point, the
    exponent step between neighbours and the run length.  Every exponent and
    step is formed from integer points, never as a difference of two float
    exponents.  ``stops`` is ``None`` unless the fibers are two-sided.
    """
    import numpy as np

    bounded, starts, stops = _fiber_runs(cone, radius)
    om = np.asarray(omegas, dtype=complex)
    dim = cone.dim

    def paired(runs):
        if runs is None:
            return None
        heads, steps, counts = runs[:, :dim], runs[:, dim:-1], runs[:, -1]
        tails = heads + (counts - 1)[:, None] * steps
        return heads @ om, tails @ om, steps @ om, counts

    return complex(om[-1]), bounded, paired(starts), paired(stops)


def _run_sum(runs: tuple, t: complex) -> complex:
    """sum over the runs of sum_{i < count} e^{-(head + i step) t}.

    Each run is one geometric series, started at whichever end has the larger
    term (the tail, stepping back, when Re(step t) < 0), so that its ratio
    e^d has |e^d| <= 1 and nothing overflows: the run adds e^{-(first) t}
    expm1(d count) / expm1(d), or e^{-(first) t} count where d = 0, as for a
    single point.
    """
    import numpy as np

    head, tail, step, count = runs
    d = step * t
    grow = d.real < 0
    first = np.where(grow, tail, head)
    np.negative(d, out=d, where=~grow)
    num = d * count
    np.expm1(num, out=num)
    np.expm1(d, out=d)
    ratio = count.astype(complex)
    np.divide(num, d, out=ratio, where=d != 0)
    first *= -t
    np.exp(first, out=first)
    first *= ratio
    return complex(first.sum())


def _fiber_sum(fibers: tuple, t: complex) -> complex:
    """sum over interior lattice points of e^{-(omega . m) t}, from the
    runs of ``_fiber_exponents``.

    The runs of fiber ends are summed in closed form, two-sided fibers as
    their starts minus their stops, and the total divided by the fiber's
    geometric denominator, formed with expm1 so that it stays accurate when
    w t is small.  A sample holds a few arrays the size of the run arrays.
    Fibers that are infinite require the corresponding geometric ratio to
    damp; otherwise the sum diverges and a DomainError is raised.
    """
    import numpy as np

    w_fiber, bounded, starts, stops = fibers
    wt = w_fiber * t
    if bounded == "upper":
        if not wt.real < 0:
            raise DomainError("fiber sums diverge downward: Re(omega_last * t) must be negative")
        denom = -np.expm1(wt)
    else:
        if bounded == "lower" and not wt.real > 0:
            raise DomainError("fiber sums diverge upward: Re(omega_last * t) must be positive")
        denom = -np.expm1(-wt)
    total = _run_sum(starts, t)
    if stops is not None:
        total -= _run_sum(stops, t)
    return total / complex(denom)


def bernoulli_cone_oracle(
    cone: Cone,
    z: complex,
    omegas: tuple[complex, ...],
    n: int,
    *,
    radius: int | None = None,
    ray: complex = 1.0,
    t_window: tuple[float, float] | None = None,
    degree: int = 14,
    samples: int = 56,
    eta: complex | None = None,
) -> complex:
    """Numeric estimate of the cone polynomial from the raw lattice sum.

    Evaluates t^r e^{zt} sum_{m in interior} e^{-(omega.m) t} at t = ray*s for
    s in a window (fiber sums along the last axis are exact geometric series,
    transverse coordinates truncated at ``radius``), fits a Chebyshev
    polynomial in s of the given degree and reads off the power coefficient.
    ``ray`` must make Re(ray * omega . m) positive on the cone; with ``eta``
    set, the cylinder lift is summed instead, its extra coordinate handled by
    one more exact geometric factor.  It needs integers 0 <= n <= degree <
    samples, an integer radius >= 1 and a window of two distinct positive
    ends, in either order; other arguments raise DomainError.

    Inputs are rescaled internally so the slowest lattice direction damps at a
    fixed rate (the coefficients are homogeneous of degree n - r under joint
    scaling of z and the periods), which keeps the truncated tail negligible
    without enlarging the grid.

    The fiber ends are grouped once, before sampling, into arithmetic runs
    (``_fiber_runs``: along each row, one residue class of the last
    transverse coordinate mod the stride of the normals at a time), so one
    sample sums one geometric series per run, oriented from its larger term,
    instead of one exponential per fiber.  The geometric denominators, of the
    fibers and of the lift, are formed with expm1: the degree-14 fit
    amplifies sample rounding about 1e8-fold, and 1 - e^{-wt} loses digits
    when wt is small.
    """
    import numpy as np
    from numpy.polynomial import chebyshev

    omegas = tuple(complex(w) for w in omegas)
    if radius is None:
        radius = 2400 if cone.dim == 2 else 700
    try:
        n, degree, samples, radius = map(operator.index, (n, degree, samples, radius))
    except TypeError:
        raise DomainError(f"n, degree, samples and radius must be integers: {(n, degree, samples, radius)}") from None
    if t_window is None:
        t_window = (0.1, 1.0)
    lo, hi = t_window
    if not 0 <= n <= degree:
        raise DomainError(f"order {n} outside [0, {degree}], the fitted degree")
    if samples <= degree:
        raise DomainError(f"{samples} samples cannot fit a degree-{degree} polynomial")
    if radius < 1:
        raise DomainError(f"radius must be at least 1, got {radius}")
    if not (lo > 0 and hi > 0 and lo != hi):
        raise DomainError(f"sample window {t_window} needs two distinct positive ends")
    r = cone.dim + (0 if eta is None else 1)

    pairings = [sum(w * c for w, c in zip(omegas, ray_vec)) for ray_vec in edge_rays(cone)]
    if eta is not None:
        pairings.append(complex(eta))
    damp = min((complex(ray) * p).real for p in pairings)
    if damp <= 0:
        raise DomainError("ray does not damp the lattice sum along every edge")
    # rescale so the slowest direction damps briskly, but keep the nearest
    # pole of the summed series (at 2*pi over the largest pairing) away from
    # the sampling window
    kappa = min(0.5 / damp, 2.4 / max(abs(p) for p in pairings))
    z = complex(z) * kappa
    omegas = tuple(w * kappa for w in omegas)
    if eta is not None:
        eta = complex(eta) * kappa

    fibers = _fiber_exponents(cone, omegas, radius)
    s_vals = np.cos(np.pi * (np.arange(samples) + 0.5) / samples)  # Chebyshev nodes
    s_vals = lo + (hi - lo) * (s_vals + 1) / 2
    f_vals = np.empty(samples, dtype=complex)
    for idx, s in enumerate(s_vals):
        t = complex(ray) * s
        total = _fiber_sum(fibers, t)
        if eta is not None:
            et = eta * t
            if not et.real > 0:
                raise DomainError("lift fiber diverges: Re(eta * t) must be positive")
            total = total * cmath.exp(-et) / -complex(np.expm1(-et))
        f_vals[idx] = (t ** r) * np.exp(complex(z) * t) * total
    u_vals = (2 * s_vals - (lo + hi)) / (hi - lo)
    coef_re = chebyshev.chebfit(u_vals, f_vals.real, degree)
    coef_im = chebyshev.chebfit(u_vals, f_vals.imag, degree)
    pow_u = chebyshev.cheb2poly(coef_re + 1j * coef_im)
    scale = 2.0 / (hi - lo)
    shift = -(lo + hi) / (hi - lo)
    # u = scale*s + shift: expand sum_k pow_u[k] (scale*s + shift)^k
    pow_s = np.zeros(degree + 1, dtype=complex)
    for k, ck in enumerate(pow_u):
        for j in range(k + 1):
            pow_s[j] += ck * comb(k, j) * (scale ** j) * (shift ** (k - j))
    coeff_t_n = pow_s[n] / (complex(ray) ** n)
    return complex(coeff_t_n * factorial(n) * kappa ** (r - n))
