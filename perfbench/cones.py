"""Seeded generator of random good cones for the ``fresh-cones`` workload.

Two kinds of cone are drawn:

* 2d: two primitive inward normals with 1 <= |det| <= 30 (every valid 2d
  cone is good);
* 3d: the cone over a convex lattice polygon, whose inward normals are
  (1, -l_i) for the polygon's vertices l_i in cyclic order, mapped through a
  random unimodular matrix.  Such a cone is Gorenstein, and good when the
  polygon's edges are primitive; it is kept only if ``Cone``, ``is_good`` and
  ``gorenstein_frame`` all accept it.

Every cone can be written as the JSON document that ``conesine verify
--cone path.json`` reads.
"""

from __future__ import annotations

import json
import os
from math import gcd
from random import Random

MAX_DET_2D = 30
NORMAL_RANGE_2D = 7
POLYGON_RANGE = 2
MAX_ENTRY_3D = 4
# facet counts of one block of the stream (2: a 2d cone).  Cost grows with
# the facet count; with four cones of each of the two cheapest kinds, the
# median cone of a block is a 3-facet one, not one on the edge between kinds
BLOCK_FACETS = (2, 3, 3, 2, 3, 4, 2, 3, 5, 2, 4, 6)


def _primitive(v) -> bool:
    g = 0
    for c in v:
        g = gcd(g, c)
    return g == 1


def random_cone_2d(rng: Random):
    """Normals of a random 2d cone with 1 <= |det| <= MAX_DET_2D."""
    while True:
        a = (rng.randint(-NORMAL_RANGE_2D, NORMAL_RANGE_2D), rng.randint(-NORMAL_RANGE_2D, NORMAL_RANGE_2D))
        b = (rng.randint(-NORMAL_RANGE_2D, NORMAL_RANGE_2D), rng.randint(-NORMAL_RANGE_2D, NORMAL_RANGE_2D))
        if not (_primitive(a) and _primitive(b)):
            continue
        if 1 <= abs(a[0] * b[1] - a[1] * b[0]) <= MAX_DET_2D:
            return (a, b)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Strictly convex hull vertices in counterclockwise order."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _random_unimodular(rng: Random):
    """A random 3x3 integer matrix of determinant +-1 with small entries."""
    while True:
        m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(rng.randint(2, 5)):
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-1, 1))
            m[i] = [m[i][c] + k * m[j][c] for c in range(3)]
        perm = rng.sample(range(3), 3)
        m = [m[p] for p in perm]
        if rng.random() < 0.5:
            m[0] = [-c for c in m[0]]
        if max(abs(c) for row in m for c in row) <= 2:
            return m


def random_cone_3d(rng: Random, facets: int):
    """Normals of a random 3d Gorenstein cone over a convex lattice polygon
    with ``facets`` vertices."""
    while True:
        pts = [
            (rng.randint(-POLYGON_RANGE, POLYGON_RANGE), rng.randint(-POLYGON_RANGE, POLYGON_RANGE))
            for _ in range(facets + rng.randint(0, 3))
        ]
        hull = _convex_hull(pts)
        if len(hull) != facets:
            continue
        edges = [
            (hull[(i + 1) % facets][0] - hull[i][0], hull[(i + 1) % facets][1] - hull[i][1])
            for i in range(facets)
        ]
        # primitive edges are what makes the cone good; checking them here
        # skips building cones that ``is_good`` would reject
        if not all(_primitive(e) for e in edges):
            continue
        u = _random_unimodular(rng)
        normals = []
        for lx, ly in hull:
            v = (1, -lx, -ly)
            normals.append(tuple(sum(u[i][k] * v[k] for k in range(3)) for i in range(3)))
        if max(abs(c) for v in normals for c in v) <= MAX_ENTRY_3D:
            return tuple(normals)


def random_good_cone(rng: Random, facets: int):
    """A random good cone with ``facets`` facets (2: a 2d cone).

    Draws that ``Cone``, ``is_good`` or ``gorenstein_frame`` reject are drawn
    again.
    """
    from conesine import Cone, DomainError, gorenstein_frame, is_good

    dim = 2 if facets == 2 else 3
    while True:
        normals = random_cone_2d(rng) if dim == 2 else random_cone_3d(rng, facets)
        try:
            cone = Cone(dim=dim, normals=normals)
            if dim == 3:
                if not is_good(cone):
                    continue
                gorenstein_frame(cone)
        except DomainError:
            continue
        return cone


def cone_stream(seed: int):
    """Endless seeded stream of distinct random good cones.

    Cones come in blocks of ``len(BLOCK_FACETS)`` with a fixed mix of facet
    counts (2 meaning a 2d cone), so every block holds the same kinds of cone
    and only the cones themselves are random.  A cone whose normal list was
    already produced is drawn again, so no cone repeats within one stream.
    """
    rng = Random(seed)
    seen = set()
    index = 0
    while True:
        cone = random_good_cone(rng, BLOCK_FACETS[index % len(BLOCK_FACETS)])
        if cone.normals in seen:
            continue
        seen.add(cone.normals)
        index += 1
        yield cone


def save_cone(cone, path: str) -> None:
    """Write ``cone`` as a JSON document that ``conesine verify --cone`` reads."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cone.to_json_dict(), fh)
        fh.write("\n")
