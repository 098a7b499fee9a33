"""Generalized Bernoulli polynomials, plain and cone-restricted.

``bernoulli_multiple`` is ``n!`` times the ``t^n`` coefficient of
``t^r e^{zt} / prod_i (e^{omega_i t} - 1)``.  The period of largest modulus
enters through its own Barnes series ``sum_k B_k omega^{k-1} t^k / k!`` in the
Bernoulli numbers ``B_k``, so its vanishing odd terms stay exact zeros; ``z``
and the other periods through ``exp(G(t))`` with ``G(t) = z t + sum_k c_k p_k
t^k``, ``c_k`` the coefficients of ``log(t / (e^t - 1))`` and ``p_k`` the
power sums of those periods, every degree up to ``n`` from one recursion for
the coefficients of ``exp(G)``, in field operations alone.  The
cone-restricted variants sum such polynomials, every degree from one walk,
over a unimodular wedge decomposition of the cone so that the total is the
degree-``n`` coefficient of the lattice generating function over the open
cone interior; an independent numeric oracle (direct lattice sum plus a
Chebyshev fit) ships alongside for verification.
"""

from __future__ import annotations

import cmath
from math import comb, factorial, hypot, lcm
from operator import mul
from typing import Sequence

from .errors import DomainError
from .lattice_cones import (
    Cone,
    edge_rays,
    require_count,
)

MAX_ORDER = 8


# ---------------------------------------------------------------------------
# plain polynomials, from one log-series recursion and Barnes factors

# B_k / k! for k = 0..MAX_ORDER: the coefficients of t / (e^t - 1)
_BERNOULLI_OVER_FACTORIAL = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0, -1 / 1209600)


def _barnes_product(z, omegas, n: int, table=_BERNOULLI_OVER_FACTORIAL) -> list:
    """[B_{r,k}(z | omegas) for k = 0..n] as n! [t^n] of e^{zt} times each
    period's Barnes series sum_k B_k omega^{k-1} t^k / k!, by field
    operations alone; ``table`` holds B_k / k!.  The inputs are not checked."""
    acc = [1]
    for k in range(1, n + 1):
        acc.append(acc[-1] * z / k)
    for w in omegas:
        # acc times sum_k (B_k / k!) omega^{k-1} t^k, skipping B_k = 0
        new, power = [a / w for a in acc], 1
        for k in range(1, n + 1):
            if table[k]:
                c = table[k] * power
                new[k:] = [x + c * a for x, a in zip(new[k:], acc)]
            power *= w
        acc = new
    return [c * factorial(k) for k, c in enumerate(acc)]


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
    Its power sums reach |omega|^n, where ``_barnes_product`` stays below
    |omega|^(n-1).
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


def _bernoulli_upto(z: complex, omegas: tuple[complex, ...], n: int) -> list[complex]:
    """[B_{r,k}(z | omegas) for k = 0..n], with r = len(omegas), from
    ``_barnes_series`` with the period of largest modulus as ``big``, or from
    ``_barnes_product`` where that overflows; z, the periods and the result
    must be finite."""
    if not omegas:
        raise DomainError("at least one period is required")
    n = require_count(n, "order", 0)
    if n > MAX_ORDER:
        raise DomainError(f"order {n} outside [0, {MAX_ORDER}]")
    z = complex(z)
    if 0 in omegas:
        raise DomainError("periods must be nonzero")
    if cmath.isfinite(z) and all(map(cmath.isfinite, omegas)):
        others = sorted(omegas, key=abs)
        out = _barnes_series(z, others.pop(), others, n)
        if not all(map(cmath.isfinite, out)) and others:
            out = _barnes_product(z, omegas, n)
        if all(map(cmath.isfinite, out)):
            return out
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


def _as_period_tuple(omegas: Sequence[complex], dim: int) -> tuple[complex, ...]:
    out = tuple(complex(w) for w in omegas)
    if len(out) != dim:
        raise DomainError(f"a {dim}d cone takes {dim} periods, got {len(out)}")
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

# the fit's sample window in s, t = ray * s, after the damping rescale, and its degree
ORACLE_WINDOW = (0.1, 1.0)
ORACLE_DEGREE = 14


def _half_line(lo, hi, alpha, beta: int) -> tuple:
    """``(lo, hi)`` narrowed to the integers j with alpha + beta j <= 0."""
    import numpy as np

    if beta > 0:
        return lo, np.minimum(hi, (-alpha) // beta)
    if beta < 0:
        return np.maximum(lo, -(alpha // beta)), hi
    return lo, np.where(alpha > 0, -1, hi)


def _greedy_runs(index, lead, moving):
    """One kind of fiber end, split into maximal arithmetic progressions.

    The knots come in row and residue-class order: ``index`` holds each
    knot's place among its row's points, ``lead`` the coordinates fixed along
    a row (x in 3d) and ``moving`` the others (y, then the fiber end), one
    array per coordinate; the points between two knots of a row are equally
    spaced.  A run takes points greedily while the step between neighbours
    stays the same, so it ends at the first bend past its head (a point whose
    in-step and out-step differ) and the next run starts just after that
    bend: within a chain of bends at consecutive points every other one, from
    the first, ends a run.  Bends lie on knots only.  Returns an int64 array
    with one line per run: its head point, its step (zero for a single point)
    and its length.
    """
    import numpy as np

    knots = len(index)
    gap = index[1:] - index[:-1]
    opens = np.empty(knots, dtype=bool)  # a row's first knot
    opens[0] = True
    np.less_equal(gap, 0, out=opens[1:])
    np.maximum(gap, 1, out=gap)
    steps = [(c[1:] - c[:-1]) // gap for c in moving]
    bend = np.zeros(knots + 1, dtype=bool)  # a spare slot past the last knot
    inner = bend[1:-2]
    for step in steps:
        inner |= step[1:] != step[:-1]
    inner &= ~(opens[1:-1] | opens[2:])
    at = np.flatnonzero(bend)
    place = np.arange(len(at))
    chained = np.zeros(len(at), dtype=bool)
    chained[1:] = (at[1:] == at[:-1] + 1) & (gap[at[1:] - 1] == 1)
    place -= np.maximum.accumulate(np.where(chained, 0, place))
    bend[at[place % 2 == 1]] = False
    first = np.flatnonzero(opens | bend[:-1])
    after = np.append(first[1:], knots)
    last = after - 1 + bend[after]
    shifted = bend[first]
    moved = first[shifted]
    counts = index[last] - index[first] - shifted + 1
    spread = np.maximum(counts - 1, 1)
    heads, run_steps = [c[first] for c in lead], [np.zeros_like(counts)] * len(lead)
    for c, step in zip(moving, steps):
        head = c[first]
        head[shifted] += step[moved]
        heads.append(head)
        run_steps.append((c[last] - head) // spread)
    return np.column_stack(heads + run_steps + [counts])


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
    line ``(head point, integer step, length)`` and stands for the points
    head + i * step, 0 <= i < length.

    The fibers are taken one row at a time (one row in 2d, one value of the
    first coordinate in 3d), and within a row one residue class of the last
    transverse coordinate y mod the stride P at a time, P the lcm of the
    nonzero last coordinates a_i of the normals.  Along a class line
    y = y0 + P j each normal's bound on the fiber end is an exact integer
    linear function of j, since a_i divides P, and a normal with a_i = 0
    keeps a half-line of j; so the kept j form one interval, and the end (the
    largest lower bound, or the smallest upper bound) is piecewise linear.
    Its step can change only where two bounds of one side cross, so the end
    is evaluated only at knots: the interval's ends and the two integers
    around each crossing.  Between neighbouring knots every step is the same,
    which is all the greedy split into runs needs.  A line with no more points
    than knots takes all its points as knots.  Rows go in blocks sized from
    the row length and the number of normals, so the transverse grid is
    never built.
    """
    import numpy as np

    normals = cone.normals
    a = [normal[-1] for normal in normals]
    # some last coordinate is nonzero: Cone refuses normals that do not span
    has_lower = any(ai > 0 for ai in a)
    has_upper = any(ai < 0 for ai in a)
    bounded = "both" if has_lower and has_upper else "lower" if has_lower else "upper"
    stride = lcm(*(abs(ai) for ai in a if ai))
    size = 2 * radius + 1  # points per row
    classes = min(stride, size)  # classes past the row length are empty
    longest = (size - 1) // classes + 1  # points on the line of class 0
    # the y step along a class line, zero where no line has two points, so
    # that a stride far longer than a row never enters int64 arithmetic
    span = stride if longest > 1 else 0
    offsets = np.arange(classes, dtype=np.int64)
    y0 = offsets - radius
    top = (size - 1 - offsets) // classes  # the last j of each line
    # normal i asks a_i s >= need_i = 1 - n_x x - n_y y; along a line need_i
    # moves by -n_y span per step of j, so its bound on s moves by slope[i],
    # exactly since a_i divides span (for a_i = 0, slope[i] is need_i's step)
    nx = [normal[0] if cone.dim == 3 else 0 for normal in normals]
    ny = [normal[-2] for normal in normals]
    need_y0 = [1 - ny[i] * y0 for i in range(len(a))]
    slope = [-ny[i] * span // (a[i] or 1) for i in range(len(a))]
    lows = [i for i, ai in enumerate(a) if ai > 0]
    highs = [i for i, ai in enumerate(a) if ai < 0]
    crossings = [(p, q) for side in (lows, highs) for p in side for q in side if p < q and slope[p] != slope[q]]
    width = min(2 + 2 * len(crossings), longest)  # knots per line
    xs = np.arange(-radius, radius + 1, dtype=np.int64) if cone.dim == 3 else np.zeros(1, dtype=np.int64)
    # each kind of end: its normals, how their bounds combine, and its shift
    if bounded == "upper":
        sides = [(highs, np.minimum, 0)]
    else:
        sides = [(lows, np.maximum, 0)] + ([(highs, np.minimum, 1)] if bounded == "both" else [])
    empty = np.empty((0, 2 * cone.dim + 1), dtype=np.int64)

    def knots(x):
        """``(index, lead, y, ends)`` for the rows at ``x``, a column of first
        coordinates: each knot's place in its row, its x (in 3d) and y, and
        its fiber end, one array for each kind of end."""
        lo = np.zeros((len(x), classes), dtype=np.int64)
        hi = lo + top
        bound = {}
        for i, ai in enumerate(a):
            need = need_y0[i] - nx[i] * x
            if ai > 0:
                bound[i] = -(-need // ai)  # ceil(need / a_i)
            elif ai < 0:
                bound[i] = need // ai  # floor(need / a_i)
            else:
                lo, hi = _half_line(lo, hi, need, slope[i])
        for p in lows:
            for q in highs:
                lo, hi = _half_line(lo, hi, bound[p] - bound[q], slope[p] - slope[q])
        if width == longest:
            j = np.arange(width, dtype=np.int64)
        else:
            j = [lo, hi]
            for p, q in crossings:
                floor = (bound[q] - bound[p]) // (slope[p] - slope[q])
                j += [floor, floor + 1]
            j = np.sort(np.stack(j, axis=-1), axis=-1)
        j = np.minimum(np.maximum(j, lo[..., None]), hi[..., None])
        keep = np.empty(j.shape, dtype=bool)
        keep[..., 0] = lo <= hi
        keep[..., 1:] = (j[..., 1:] != j[..., :-1]) & keep[..., :1]
        # a knot's place in its row: the points of the lines before, plus j - lo
        count = np.where(keep[..., 0], hi - lo + 1, 0)
        index = ((np.cumsum(count, axis=1) - count - lo)[..., None] + j)[keep]
        y = (y0[:, None] + span * j)[keep]
        lead = [np.repeat(x.ravel(), keep.sum(axis=(1, 2)))] if cone.dim == 3 else []
        ends = []
        for side, pick, shift in sides:
            end = bound[side[0]][..., None] + (slope[side[0]] * j + shift)
            for i in side[1:]:
                pick(end, bound[i][..., None] + (slope[i] * j + shift), out=end)
            ends.append(end[keep])
        return index, lead, y, ends

    def runs(x):
        """The starts' runs, and the stops' for two-sided fibers, of the
        rows at ``x``; the knots' construction is freed first."""
        index, lead, y, ends = knots(x)
        if not index.size:
            return [empty] * len(sides)
        return [_greedy_runs(index, lead, [y, end]) for end in ends]

    # a line holds ``width`` knots and one bound per normal; a block of rows
    # holds about four times as many of these as one row has products of its
    # points with the normals
    block = max(1, 4 * size * len(a) // (classes * (width + len(a))))  # rows per block
    parts = zip(*(runs(xs[b:b + block, None]) for b in range(0, len(xs), block)))
    starts, *stops = map(np.concatenate, parts)
    return bounded, starts, stops[0] if stops else None


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


def _oracle_samples(fibers: tuple, z: complex, ray: complex, eta: complex | None, r: int, s_vals):
    """t^r e^{zt} times the lattice sum of ``_fiber_exponents``, and the
    lift's geometric factor when ``eta`` is set, at t = ray * s for each s
    in ``s_vals``."""
    import numpy as np

    f_vals = np.empty(len(s_vals), dtype=complex)
    for idx, s in enumerate(s_vals):
        t = complex(ray) * s
        total = _fiber_sum(fibers, t)
        if eta is not None:
            et = eta * t
            if not et.real > 0:
                raise DomainError("lift fiber diverges: Re(eta * t) must be positive")
            total = total * cmath.exp(-et) / -complex(np.expm1(-et))
        f_vals[idx] = (t ** r) * np.exp(complex(z) * t) * total
    return f_vals


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
    """Numeric estimate of the cone polynomial from the raw lattice sum.

    Evaluates t^r e^{zt} sum_{m in interior} e^{-(omega.m) t} at t = ray*s for
    ``samples`` Chebyshev nodes s in the window ``ORACLE_WINDOW`` (fiber sums
    along the last axis are exact geometric series, transverse coordinates
    truncated at ``radius``), fits a Chebyshev polynomial in s of degree
    ``ORACLE_DEGREE`` and reads off the power coefficient.
    ``ray`` must make Re(ray * omega . m) positive on the cone; with ``eta``
    set, the cylinder lift is summed instead, its extra coordinate handled by
    one more exact geometric factor.  It needs one finite period per cone
    dimension, a finite z, integers (not bools) 0 <= n <= ORACLE_DEGREE <
    samples and an integer radius >= 1; other arguments, and samples or a
    fit that overflow double precision, raise DomainError.

    Inputs are rescaled internally so the slowest lattice direction damps at a
    fixed rate (the coefficients are homogeneous of degree n - r under joint
    scaling of z and the periods), which keeps the truncated tail negligible
    without enlarging the grid.

    The fiber ends are grouped once, before sampling, into arithmetic runs,
    so one sample sums one geometric series per run, oriented from its larger
    term, instead of one exponential per fiber.  ``_fiber_runs`` builds the
    runs without visiting each fiber: along each residue-class line of a row
    the fiber end is the envelope of the normals' integer linear bounds, so
    it is evaluated only at the bounds' crossings and the line's ends.  The
    geometric denominators, of the fibers and of the lift, are formed with
    expm1: the degree-14 fit amplifies sample rounding about 1e8-fold, and
    1 - e^{-wt} loses digits when wt is small.
    """
    import numpy as np
    from numpy.polynomial import chebyshev

    omegas = _as_period_tuple(omegas, cone.dim)
    inputs = (complex(z), *omegas, complex(ray)) + (() if eta is None else (complex(eta),))
    if not all(map(cmath.isfinite, inputs)):
        raise DomainError(f"z, the periods, ray and eta must be finite, got {inputs}")
    if radius is None:
        radius = 2400 if cone.dim == 2 else 700
    n = require_count(n, "order", 0)
    samples = require_count(samples, "samples", ORACLE_DEGREE + 1)
    radius = require_count(radius, "radius", 1)
    if n > ORACLE_DEGREE:
        raise DomainError(f"order {n} outside [0, {ORACLE_DEGREE}], the fitted degree")
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
    lo, hi = ORACLE_WINDOW
    s_vals = lo + (hi - lo) * (s_vals + 1) / 2
    try:
        # a z far from the damping scale overflows a sample, which is
        # refused below rather than warned about
        with np.errstate(all="ignore"):
            f_vals = _oracle_samples(fibers, z, ray, eta, r, s_vals)
        finite = np.isfinite(f_vals).all()
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError("the oracle's samples overflow double precision: z is far from the periods' damping scale")
    u_vals = (2 * s_vals - (lo + hi)) / (hi - lo)
    try:  # finite samples of huge modulus overflow the fit or its expansion, refused below
        with np.errstate(all="ignore"):
            coef_re = chebyshev.chebfit(u_vals, f_vals.real, ORACLE_DEGREE)
            coef_im = chebyshev.chebfit(u_vals, f_vals.imag, ORACLE_DEGREE)
            pow_u = chebyshev.cheb2poly(coef_re + 1j * coef_im)
            scale = 2.0 / (hi - lo)
            shift = -(lo + hi) / (hi - lo)
            # u = scale*s + shift: expand sum_k pow_u[k] (scale*s + shift)^k
            pow_s = np.zeros(ORACLE_DEGREE + 1, dtype=complex)
            for k, ck in enumerate(pow_u):
                for j in range(k + 1):
                    pow_s[j] += ck * comb(k, j) * (scale ** j) * (shift ** (k - j))
            coeff_t_n = pow_s[n] / (complex(ray) ** n)
            value = complex(coeff_t_n * factorial(n) * kappa ** (r - n))
    except OverflowError:  # a power of ray or kappa past double range
        value = complex("nan")
    if not cmath.isfinite(value):
        raise DomainError(f"the oracle's coefficient of order {n} is not finite: its fit overflows double precision")
    return value
