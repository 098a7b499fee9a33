"""A lattice-sum reference for the Bernoulli oracle's parallelepiped pieces.

``fiber_sum`` is the sum of e^{-(omega . m) t} over the interior lattice
points m of a cone whose transverse coordinates lie within a sup-norm
radius, each fiber along the last axis summed as an exact geometric series.
The fiber ends are found from the normals alone and kept as runs of
arithmetic progressions, so a radius of a few hundred stays cheap.  Where
the periods damp every edge ray the truncation tail is negligible, and the
sum is the generating function that the pieces of ``Cone.pieces`` must
reproduce in closed form.  It shares nothing with the pieces but ``Cone``.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from conesine import Cone, DomainError


def _half_line(lo, hi, alpha, beta: int) -> tuple:
    """``(lo, hi)`` narrowed to the integers j with alpha + beta j <= 0."""
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


def fiber_runs(cone: Cone, radius: int) -> tuple:
    """The integer skeleton of the lattice sum over the open cone.

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


def fiber_exponents(cone: Cone, omegas: tuple[complex, ...], radius: int) -> tuple:
    """The t-independent part of the lattice sum over the open cone.

    Returns ``(w, bounded, starts, stops)``: the fiber period ``w`` (the last
    period), ``bounded`` as in ``fiber_runs``, and the runs of fiber ends of
    ``fiber_runs`` with the periods paired in: each is ``(head, tail, step,
    count)``, the exponents ``omega . m`` at a run's first and last point, the
    exponent step between neighbours and the run length.  Every exponent and
    step is formed from integer points, never as a difference of two float
    exponents.  ``stops`` is ``None`` unless the fibers are two-sided.
    """
    bounded, starts, stops = fiber_runs(cone, radius)
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


def fiber_sum(fibers: tuple, t: complex) -> complex:
    """sum over interior lattice points of e^{-(omega . m) t}, from the
    runs of ``fiber_exponents``.

    The runs of fiber ends are summed in closed form, two-sided fibers as
    their starts minus their stops, and the total divided by the fiber's
    geometric denominator, formed with expm1 so that it stays accurate when
    w t is small.  A sample holds a few arrays the size of the run arrays.
    Fibers that are infinite require the corresponding geometric ratio to
    damp; otherwise the sum diverges and a DomainError is raised.
    """
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
