"""Hypothesis strategies for random good Gorenstein 3d cones.

A cone over a convex lattice polygon P has the inward normals (1, -l) for
the vertices l of P in cyclic order.  The vector (1, 0, 0) pairs to 1 with
each of them, so the cone is Gorenstein; it is good when every edge of P is
primitive.  Both properties survive an integer change of basis, so the
normals are sent through a random unimodular matrix U (whose Gorenstein
vector is U^-T (1, 0, 0)).  With vertices in [-2, 2]^2 this reaches cones with
three to eight facets, listed either way round, since det U = -1 reverses
the winding.
"""
from __future__ import annotations

from math import gcd

from hypothesis import strategies as st

from conesine import Cone

POLYGON_RANGE = 2


def _turn(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[int, int]]:
    """The vertices of the convex hull, counterclockwise, with no three on a
    line (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    hull: list = []
    for sweep in (pts, pts[::-1]):
        half: list = []
        for p in sweep:
            while len(half) >= 2 and _turn(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        hull += half[:-1]
    return hull


def _has_primitive_edges(hull) -> bool:
    n = len(hull)
    return n >= 3 and all(
        gcd(hull[(i + 1) % n][0] - hull[i][0], hull[(i + 1) % n][1] - hull[i][1]) == 1 for i in range(n)
    )


lattice_polygons = st.lists(
    st.tuples(*[st.integers(-POLYGON_RANGE, POLYGON_RANGE)] * 2), min_size=3, max_size=9
).map(convex_hull).filter(_has_primitive_edges)


@st.composite
def unimodular_matrices(draw) -> tuple[tuple[int, ...], ...]:
    """Up to four elementary row operations on the identity (add +-1 times
    one row to another), then a row permutation and an optional sign flip."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    ops = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from((-1, 1))).filter(lambda op: op[0] != op[1]),
        max_size=4,
    ))
    for i, j, k in ops:
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    m = [m[p] for p in draw(st.permutations(range(3)))]
    if draw(st.booleans()):
        m[0] = [-a for a in m[0]]
    return tuple(map(tuple, m))


@st.composite
def polygon_cones(draw) -> Cone:
    """A good Gorenstein 3d cone over a lattice polygon, in a random basis."""
    hull = draw(lattice_polygons)
    u = draw(unimodular_matrices())
    return Cone(3, tuple(tuple(sum(row[k] * v[k] for k in range(3)) for row in u) for v in ((1, -x, -y) for x, y in hull)))
