"""Hypothesis strategies for random 2d cones and random good Gorenstein 3d cones.

A 2d cone is two primitive inward normals that are not parallel; every 2d
cone is good.

A cone over a convex lattice polygon P has the inward normals (1, -l) for
the vertices l of P in cyclic order.  The vector (1, 0, 0) pairs to 1 with
each of them, so the cone is Gorenstein; it is good when every edge of P is
primitive.  Both properties survive an integer change of basis, so the
normals are sent through a random unimodular matrix U (whose Gorenstein
vector is U^-T (1, 0, 0)).  The polygons are drawn from the full list of
those with primitive edges and vertices in [-2, 2]^2 (3,531 up to
translation, with three to nine vertices), so the cones have three to nine
facets, listed either way round, since det U = -1 reverses the winding.
"""
from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import atan2, gcd, tau

from hypothesis import strategies as st

from conesine import Cone

POLYGON_RANGE = 2
PLANAR_RANGE = 6
PLANAR_MAX_DET = 30


@cache
def _primitive_edge_cycles(size: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every convex lattice polygon with primitive edges whose bounding box
    fits a size x size square, up to translation, as its cycle of edge
    vectors, fewest edges first.

    Such a polygon is a set of distinct primitive directions summing to
    zero, walked by increasing angle: no edge holds a lattice point inside,
    and no two are parallel and same-facing, so no three vertices are on a
    line.  The walk starts with the direction of least angle in [0, 2 pi).
    """
    dirs = sorted(
        ((x, y) for x in range(-size, size + 1) for y in range(-size, size + 1) if gcd(x, y) == 1),
        key=lambda d: atan2(d[1], d[0]) % tau,
    )
    angles = [atan2(d[1], d[0]) % tau for d in dirs]
    cycles = []

    def walk(start, path, x, y, box):
        for i in range(start, len(dirs)):
            nx, ny = x + dirs[i][0], y + dirs[i][1]
            lo_x, hi_x, lo_y, hi_y = min(box[0], nx), max(box[1], nx), min(box[2], ny), max(box[3], ny)
            if hi_x - lo_x > size or hi_y - lo_y > size:
                continue
            if (nx, ny) == (0, 0):
                if len(path) >= 2:
                    cycles.append((*path, dirs[i]))
            # the rest of the walk turns on counterclockwise, so the way back
            # to the start must point past this edge
            elif atan2(-ny, -nx) % tau > angles[i]:
                walk(i + 1, (*path, dirs[i]), nx, ny, (lo_x, hi_x, lo_y, hi_y))

    walk(0, (), 0, 0, (0, 0, 0, 0))
    return tuple(sorted(cycles, key=len))


@st.composite
def lattice_polygons(draw) -> list[tuple[int, int]]:
    """A convex lattice polygon with primitive edges and vertices in
    [-POLYGON_RANGE, POLYGON_RANGE]^2, counterclockwise: any such polygon,
    drawn from the full list, then placed by a translation that keeps it in
    the square.  Nothing is drawn only to be rejected."""
    edges = draw(st.sampled_from(_primitive_edge_cycles(2 * POLYGON_RANGE)))
    vertices = list(accumulate(edges[:-1], lambda v, e: (v[0] + e[0], v[1] + e[1]), initial=(0, 0)))
    xs, ys = [v[0] for v in vertices], [v[1] for v in vertices]
    dx = draw(st.integers(-POLYGON_RANGE - min(xs), POLYGON_RANGE - max(xs)))
    dy = draw(st.integers(-POLYGON_RANGE - min(ys), POLYGON_RANGE - max(ys)))
    return [(x + dx, y + dy) for x, y in vertices]


@st.composite
def unimodular_matrices(draw) -> tuple[tuple[int, ...], ...]:
    """Up to four elementary row operations on the identity (add +-1 times
    one row to another), then a row permutation and an optional sign flip."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    # row i gains k times row (i + shift) % 3, another row
    ops = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2), st.sampled_from((-1, 1))), max_size=4))
    for i, shift, k in ops:
        m[i] = [a + k * b for a, b in zip(m[i], m[(i + shift) % 3])]
    m = [m[p] for p in draw(st.permutations(range(3)))]
    if draw(st.booleans()):
        m[0] = [-a for a in m[0]]
    return tuple(map(tuple, m))


@st.composite
def polygon_cones(draw) -> Cone:
    """A good Gorenstein 3d cone over a lattice polygon, in a random basis."""
    hull = draw(lattice_polygons())
    u = draw(unimodular_matrices())
    return Cone(3, tuple(tuple(sum(row[k] * v[k] for k in range(3)) for row in u) for v in ((1, -x, -y) for x, y in hull)))


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(*v)
    return v[0] // g, v[1] // g


primitive_vectors = st.tuples(*[st.integers(-PLANAR_RANGE, PLANAR_RANGE)] * 2).filter(any).map(_primitive)


planar_cones = st.tuples(primitive_vectors, primitive_vectors).filter(
    lambda ab: 0 < abs(ab[0][0] * ab[1][1] - ab[0][1] * ab[1][0]) <= PLANAR_MAX_DET
).map(lambda ab: Cone(2, ab))
