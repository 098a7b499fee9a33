"""Exact integer geometry of rational convex cones.

Everything in this module runs on Python integers, so all geometric
predicates (primitivity, goodness, adjacency, wedge subdivision, face
transforms) are exact.  Cones have dimension 2 or 3: the matrix algebra is
closed-form for those sizes, and one walk over the 1d faces, run and kept
when a cone is built, serves cone validation, the good-cone test, the face
transforms and the Gorenstein frame.  Conventions used throughout the
package:

* A cone is cut out by inward normals: ``C = {x : x . v >= 0 for all v}``.
* ``det2``/``det3`` are determinants of stacked row vectors, so in 2d
  ``det2(a, b) > 0`` means ``b`` lies counterclockwise of ``a``.
* A half-open wedge with normals ``(v1, v2)`` is
  ``{x : x . v1 >= 0, x . v2 < 0}``; for ``det2(v1, v2) >= 1`` this is the
  counterclockwise sector from the edge ray of ``v1`` (included) to the edge
  ray of ``v2`` (excluded), of angle below 180 degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import gcd
from typing import Sequence

from .errors import DomainError, ParseError

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


# ---------------------------------------------------------------------------
# small exact helpers


def _as_ivec(v: Sequence[int], name: str = "vector") -> IntVector:
    try:
        out = tuple(int(c) for c in v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a sequence of integers: {v!r}") from exc
    for c, o in zip(v, out):
        if o != c:
            raise DomainError(f"{name} must have integer entries: {v!r}")
    if not out:
        raise DomainError(f"{name} must be non-empty")
    return out


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for c in v:
        g = gcd(g, abs(int(c)))
    return g


def is_primitive(v: Sequence[int]) -> bool:
    """True if the integer vector is nonzero with coprime entries."""
    w = _as_ivec(v)
    if all(c == 0 for c in w):
        raise DomainError("the zero vector is neither primitive nor a valid normal")
    return vec_gcd(w) == 1


def primitive_part(v: Sequence[int]) -> IntVector:
    """The primitive vector on the same ray (v divided by the gcd of entries)."""
    w = _as_ivec(v)
    g = vec_gcd(w)
    if g == 0:
        raise DomainError("the zero vector has no primitive part")
    return tuple(c // g for c in w)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def det2(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def cross3(a: Sequence[int], b: Sequence[int]) -> IntVector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    cx = cross3(b, c)
    return a[0] * cx[0] + a[1] * cx[1] + a[2] * cx[2]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    """Matrix times vector; entries may be ints or complex numbers."""
    if len(m[0]) != len(v):
        raise DomainError(f"matrix of width {len(m[0])} cannot act on length-{len(v)} vector")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


def mat_transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def int_det(m: IntMatrix) -> int:
    """Determinant of a 2x2 or 3x3 integer matrix, the only sizes a cone needs."""
    if len(m) == 2:
        return det2(*m)
    if len(m) == 3:
        return det3(*m)
    raise DomainError(f"only 2x2 and 3x3 determinants are supported, got {len(m)} rows")


def _adjugate(m: IntMatrix) -> IntMatrix:
    """The adjugate of a 2x2 or 3x3 integer matrix, m . adj(m) = det(m) I; in
    3d its columns are the cross products of cyclic pairs of rows."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a))
    return mat_transpose((cross3(m[1], m[2]), cross3(m[2], m[0]), cross3(m[0], m[1])))


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    d = int_det(m)
    if d not in (1, -1):
        raise DomainError(f"matrix has determinant {d}, expected +-1")
    adj = _adjugate(m)
    if d == 1:
        return adj
    return tuple(tuple(-e for e in row) for row in adj)


def unimodular_with_first_column(xi: Sequence[int]) -> IntMatrix:
    """A determinant +1 integer matrix whose first column is the primitive xi."""
    col = _as_ivec(xi, "xi")
    if vec_gcd(col) != 1:
        raise DomainError(f"{col} is not primitive, cannot extend to a unimodular basis")
    n = len(col)
    # reduce col to e1 by row operations, accumulating them in u
    work = list(col)
    u = [list(r) for r in identity_matrix(n)]
    for i in range(1, n):
        if work[i] == 0:
            continue
        g, s, t = xgcd(work[0], work[i])
        # rows 0 and i are replaced by the Bezout combination and the
        # complementary one; the 2x2 block [[s, t], [-work[i]/g, work[0]/g]]
        # has determinant +1
        a0, ai = work[0], work[i]
        r0 = [s * u[0][k] + t * u[i][k] for k in range(n)]
        ri = [(-ai // g) * u[0][k] + (a0 // g) * u[i][k] for k in range(n)]
        u[0], u[i] = r0, ri
        work[0], work[i] = g, 0
    if work[0] == -1:
        u[0] = [-e for e in u[0]]
        work[0] = 1
    assert work[0] == 1
    a = unimodular_inverse(tuple(tuple(r) for r in u))
    # first column of a is xi by construction; fix the determinant sign
    if int_det(a) == -1:
        a = tuple(tuple(-row[j] if j == n - 1 else row[j] for j in range(n)) for row in a)
    assert tuple(row[0] for row in a) == col
    assert int_det(a) == 1
    return a


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """A full-dimensional, strictly convex rational cone given by inward normals.

    ``normals`` must be primitive, minimal (each one carves an actual facet)
    and, in 3d, listed in cyclic facet order; an integral ``dim`` such as
    2.0 is taken as that int.  These invariants are checked exactly at
    construction by one walk over the 1d faces, kept on the cone: per face,
    in facet order, the edge ray x, the normals that vanish on it (normal i
    in 2d, normals i and i+1 cyclically in 3d) and their cofactor vector w,
    n . w = det(n, *adjacent) for every n ((a_1, -a_0) in 2d, the cross
    product in 3d), a 3d pair ordered so that x . w = det3(x, a, b) > 0.
    Preconditions of single operations (goodness, Gorenstein) are separate
    predicates reading the walk.
    """

    dim: int
    normals: tuple[IntVector, ...]

    def __post_init__(self):
        # as for normal entries, an integral value such as 2.0 is taken as that int
        dim = next((d for d in (2, 3) if d == self.dim), None)
        if dim is None:
            raise DomainError(f"only cones of dimension 2 or 3 are supported, got {self.dim}")
        object.__setattr__(self, "dim", dim)
        normals = tuple(_as_ivec(v, "normal") for v in self.normals)
        object.__setattr__(self, "normals", normals)
        for v in normals:
            if len(v) != dim:
                raise DomainError(f"normal {v} does not have {dim} entries")
            if not is_primitive(v):
                raise DomainError(f"normal {v} is not primitive")
        if len(set(normals)) != len(normals):
            raise DomainError("duplicate normals")
        if dim == 2 and len(normals) != 2:
            raise DomainError("a 2d cone needs exactly two normals")
        if dim == 3 and len(normals) < 3:
            raise DomainError("a 3d cone needs at least three normals")
        # strict convexity: the normals must span all of R^dim
        if not any(int_det(m) != 0 for m in combinations(normals, dim)):
            raise DomainError(f"normals do not span {dim}d space: cone contains a line")
        n = len(normals)
        faces = []
        for i in range(n):
            adjacent = tuple(normals[(i + k) % n] for k in range(dim - 1))
            w = (adjacent[0][1], -adjacent[0][0]) if dim == 2 else cross3(*adjacent)
            if all(c == 0 for c in w):
                raise DomainError(f"consecutive normals {', '.join(map(str, adjacent))} are parallel")
            x = primitive_part(w)
            dots = [sum(a * b for a, b in zip(x, v)) for v in normals]
            if any(d < 0 for d in dots):
                if any(d > 0 for d in dots):
                    raise DomainError(
                        f"normals {' and '.join(map(str, adjacent))} are listed as facet neighbours "
                        "but share no edge: normals are not in cyclic order or the cone is not minimal"
                    )
                x = tuple(-c for c in x)
                if dim == 3:
                    # x . w < 0 now; swapping the pair negates w
                    adjacent, w = adjacent[::-1], tuple(-c for c in w)
            for j, d in enumerate(dots):
                if d == 0 and normals[j] not in adjacent:
                    raise DomainError(
                        f"edge between facets {i} and {(i + 1) % n} lies on facet {j}: "
                        "normal list is redundant or mis-ordered"
                    )
            faces.append((x, adjacent, w))
        object.__setattr__(self, "_faces", tuple(faces))
        object.__setattr__(self, "_edge_rays", tuple(x for x, _, _ in faces))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "normals": [list(v) for v in self.normals]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cone":
        try:
            dim = data["dim"]
            normals = tuple(tuple(v) for v in data["normals"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"cone JSON must have 'dim' and 'normals': {data!r}") from exc
        return cls(dim=dim, normals=normals)


def edge_rays(cone: Cone) -> tuple[IntVector, ...]:
    """Primitive generators of the 1d faces.

    In 2d, entry i lies on the line where normal i vanishes.  In 3d, entry i
    is the edge shared by facets i and i+1 (cyclically).
    """
    return cone._edge_rays  # computed and cached at construction


def dual_contains(cone: Cone, y: Sequence, strict: bool = False) -> bool:
    """Whether y lies in the dual cone (non-negative on all of C).

    The dual is spanned by the normals; membership is tested against the edge
    rays, which is exact for integer y and a half-plane test for float y.
    With ``strict=True`` the test is for the interior.
    """
    if len(y) != cone.dim:
        raise DomainError(f"point {y!r} does not have {cone.dim} entries")
    for ray in edge_rays(cone):
        s = sum(ray[k] * y[k] for k in range(cone.dim))
        if strict:
            if not s > 0:
                return False
        else:
            if s < 0:
                return False
    return True


def contains(cone: Cone, point: Sequence[int], strict: bool = False) -> bool:
    """Exact membership of an integer point in the cone (or its interior)."""
    p = _as_ivec(point, "point")
    if len(p) != cone.dim:
        raise DomainError(f"point {p} does not have {cone.dim} entries")
    for v in cone.normals:
        s = sum(v[k] * p[k] for k in range(cone.dim))
        if (s <= 0) if strict else (s < 0):
            return False
    return True


def is_good(cone: Cone) -> bool:
    """Whether every proper face's normal set spans a saturated sublattice.

    Checked at faces of codimension below the dimension (the apex does not
    count).  For facets this is primitivity of the single normal, guaranteed
    at construction.  At each 1d face the adjacent normals span a saturated
    lattice exactly when their maximal minors, the entries of the face's
    cofactor vector kept by the cone's face walk, are coprime.  In 2d that
    vector is a primitive normal turned by 90 degrees, so every valid 2d cone
    qualifies.
    """
    return all(vec_gcd(w) == 1 for _, _, w in cone._faces)


def gorenstein_vector(cone: Cone) -> IntVector | None:
    """The integer vector pairing to 1 with every normal, if one exists.

    Such a vector is automatically primitive.  It is the one rational
    solution of the system on the first ``dim`` normals; returns None when
    that solution is not integral or misses a remaining normal.
    """
    # d != 0: 2d normals are not parallel; no three extreme rays of a pointed cone are coplanar
    basis = cone.normals[: cone.dim]
    d = int_det(basis)
    sums = tuple(sum(row) for row in _adjugate(basis))
    if any(s % d for s in sums):
        return None
    xi = tuple(s // d for s in sums)
    if any(sum(a * b for a, b in zip(xi, v)) != 1 for v in cone.normals[cone.dim :]):
        return None
    return xi


# ---------------------------------------------------------------------------
# wedge subdivision


@dataclass(frozen=True)
class WedgeSubdivision:
    """A chain of primitive normals u_0 .. u_{n+1} with det2(u_i, u_{i+1}) = 1.

    The half-open wedges of consecutive pairs tile the half-open wedge of the
    endpoints; ``interior`` lists the inserted lines only.
    """

    lines: tuple[IntVector, ...]

    @property
    def interior(self) -> tuple[IntVector, ...]:
        return self.lines[1:-1]

    def __len__(self) -> int:
        return len(self.lines)


def subdivide_wedge(v1: Sequence[int], v2: Sequence[int]) -> WedgeSubdivision:
    """Unimodular subdivision of the half-open wedge {x.v1 >= 0, x.v2 < 0}.

    Requires primitive non-parallel normals with det2(v1, v2) >= 1 (the wedge
    is then the counterclockwise sector from ray(v1) to ray(v2)).  Each step
    inserts the unique primitive w with det2(g, w) = 1 whose determinant
    against the far end is reduced modulo the current one, which strictly
    decreases it; the result is the minimal chain with unit consecutive
    determinants.
    """
    g = _as_ivec(v1, "v1")
    h = _as_ivec(v2, "v2")
    if len(g) != 2 or len(h) != 2:
        raise DomainError("wedge normals must be 2d integer vectors")
    if not is_primitive(g):
        raise DomainError(f"wedge normal {g} is not primitive")
    if not is_primitive(h):
        raise DomainError(f"wedge normal {h} is not primitive")
    d = det2(g, h)
    if d == 0:
        raise DomainError(f"normals {g} and {h} are parallel: degenerate wedge")
    if d < 0:
        raise DomainError(
            f"det2({g}, {h}) = {d} < 0: the half-open wedge convention requires "
            "positive orientation (swap or negate a normal)"
        )
    lines = [g]
    while d > 1:
        gg, s, t = xgcd(g[0], g[1])
        assert gg == 1
        w0 = (-t, s)  # det2(g, w0) = g0*s + g1*t = 1
        a = det2(w0, h)
        k = a // d
        w = (w0[0] - k * g[0], w0[1] - k * g[1])
        a -= k * d
        assert 1 <= a <= d - 1 and det2(g, w) == 1
        lines.append(w)
        g = w
        d = a
    lines.append(h)
    return WedgeSubdivision(tuple(lines))


def cone_chain_2d(cone: Cone) -> WedgeSubdivision:
    """The canonical unimodular chain sweeping a 2d cone.

    Normals are labeled so det2(v1, v2) < 0; the chain runs from v1 to -v2,
    so its half-open wedges together with the closed wedge of the final pair
    cover the cone, the lower edge ray belonging to the first wedge.
    """
    if cone.dim != 2:
        raise DomainError("cone_chain_2d needs a 2d cone")
    a, b = cone.normals
    if det2(a, b) > 0:
        a, b = b, a
    return subdivide_wedge(a, (-b[0], -b[1]))


# ---------------------------------------------------------------------------
# face transforms


@dataclass(frozen=True)
class FaceTransform:
    """Unimodular change of variables attached to a 1d face.

    ``matrix`` is the (dim x dim) integer block whose inverse stacks the
    auxiliary vector ``n`` and the adjacent normals as columns, so its first
    row is the edge ray.  ``det`` is +1 except for the one 2d face where the
    orientation forces -1.
    """

    face_id: str
    edge_ray: IntVector
    normals: tuple[IntVector, ...]
    n_vector: IntVector
    matrix: IntMatrix
    det: int


def _min_norm_coset_rep(n: IntVector, basis: tuple[IntVector, ...]) -> IntVector:
    """The smallest member of n + Z<basis> by squared norm, then lex order,
    within a +-2 box around the rounded real least-squares coefficients; on a
    skewed basis it can miss the shortest member (basis ((1,2,3), (20,41,61)),
    n = (0,0,1): (-5,-10,-14), not (-1,0,0)).  Any member is valid: moving n
    by the basis shifts each face period p_j / p_0 by an integer, which
    leaves the face factors unchanged."""
    dim = len(n)
    # real least-squares shift, then search the rounded neighbourhood
    gram = [[sum(a[k] * b[k] for k in range(dim)) for b in basis] for a in basis]
    rhs = [-sum(a[k] * n[k] for k in range(dim)) for a in basis]
    m = len(basis)
    # solve gram * c = rhs in floats (gram is positive definite)
    if m == 1:
        c = [rhs[0] / gram[0][0]]
    else:
        det_g = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
        c = [
            (rhs[0] * gram[1][1] - gram[0][1] * rhs[1]) / det_g,
            (gram[0][0] * rhs[1] - rhs[0] * gram[1][0]) / det_g,
        ]
    best = None
    for deltas in product(*[range(-2, 3)] * m):
        coeffs = [round(c[i]) + deltas[i] for i in range(m)]
        cand = tuple(
            n[k] + sum(coeffs[i] * basis[i][k] for i in range(m)) for k in range(dim)
        )
        key = (sum(e * e for e in cand), cand)
        if best is None or key < best:
            best = key
    return best[1]


def face_matrices(cone: Cone) -> list[FaceTransform]:
    """One unimodular transform per 1d face, in facet order.

    Each transform depends only on the face's edge ray, its adjacent
    normals and their cofactor vector, read from the face walk kept on the
    cone; in 3d the walk has ordered the pair so that the edge ray pairs
    positively with the cofactor vector.  Preconditions: the cone must be
    good (otherwise no integral transform exists at some face and a
    DomainError is raised).
    """
    dim = cone.dim
    out: list[FaceTransform] = []
    for x, adjacent, w in cone._faces:
        if vec_gcd(w) != 1:
            raise DomainError(
                f"face with edge {x} is not good: normals "
                f"{', '.join(map(str, adjacent))} span a non-saturated lattice"
            )
        # n . w = det(n, adjacent): -1 only at the 2d face whose edge ray the walk negated
        eps = 1 if sum(a * b for a, b in zip(x, w)) > 0 else -1
        # a Bezout vector n0 . w = 1 from successive extended gcds
        g, n0 = w[0], (1,)
        for c in w[1:]:
            g, s, t = xgcd(g, c)
            n0 = tuple(s * e for e in n0) + (t,)
        n = _min_norm_coset_rep(tuple(eps * e for e in n0), adjacent)
        cols = (n, *adjacent)
        kt = unimodular_inverse(tuple(tuple(col[r] for col in cols) for r in range(dim)))
        assert sum(a * b for a, b in zip(n, x)) > 0
        out.append(
            FaceTransform(
                face_id=f"edge({','.join(map(str, x))})",
                edge_ray=x,
                normals=adjacent,
                n_vector=n,
                matrix=kt,
                det=eps,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Gorenstein frame for 3d cones


@dataclass(frozen=True)
class GorensteinFrame:
    """A 3d cone straightened so its Gorenstein vector becomes (1, 0, 0).

    ``basis`` has determinant +1 with the Gorenstein vector as first column;
    transformed normals are (1, -ell_i).  ``ell`` lists the 2d apex vectors
    of the facets in counterclockwise order (the input facet order, reversed
    if it wound clockwise), and ``chains[i]`` subdivides the half-open
    dominance wedge of facet i, spanned between the successive difference
    vectors t_{i-1} = ell_i - ell_{i-1} and t_i = ell_{i+1} - ell_i.
    """

    cone: Cone
    xi: IntVector
    basis: IntMatrix
    ell: tuple[IntVector, ...]
    chains: tuple[WedgeSubdivision, ...]

    def transformed_omegas(self, omegas: Sequence[complex]) -> tuple[complex, ...]:
        return mat_vec(mat_transpose(self.basis), omegas)

    def facet_omegas(self, omegas: Sequence[complex]) -> tuple[tuple[complex, complex], ...]:
        """Per-facet 2d parameters (w2 + ell^1 w1, w3 + ell^2 w1)."""
        w1, w2, w3 = self.transformed_omegas(omegas)
        return tuple((w2 + l[0] * w1, w3 + l[1] * w1) for l in self.ell)


def gorenstein_frame(cone: Cone) -> GorensteinFrame:
    """Straightening data for a good Gorenstein 3d cone.

    Raises DomainError when the cone is not 3d, not good (read from the
    cone's face walk), or has no Gorenstein vector.  The apex vectors ``ell``
    are put in counterclockwise order, reversing a clockwise listing.
    """
    if cone.dim != 3:
        raise DomainError("gorenstein_frame needs a 3d cone")
    if not is_good(cone):
        raise DomainError("cone is not good: some edge lattice is not saturated")
    xi = gorenstein_vector(cone)
    if xi is None:
        raise DomainError("cone has no Gorenstein vector")
    a = unimodular_with_first_column(xi)
    at = mat_transpose(a)
    # xi is the first column of a, so every transformed normal is (xi . v, -ell) = (1, -ell)
    listed = tuple((-vp[1], -vp[2]) for vp in (mat_vec(at, v) for v in cone.normals))
    n = len(listed)
    # the apex vectors of a valid cone turn the same way at every vertex, so
    # the turn at the first one tells whether the listing winds clockwise
    for ell in (listed, listed[::-1]):
        t = [tuple(ell[(i + 1) % n][k] - ell[i][k] for k in range(2)) for i in range(n)]
        if det2(t[-1], t[0]) > 0:
            break
    chains = tuple(subdivide_wedge(t[i - 1], t[i]) for i in range(n))
    return GorensteinFrame(cone=cone, xi=xi, basis=a, ell=ell, chains=chains)


# ---------------------------------------------------------------------------
# cone plan: the per-cone data every evaluation route reads


def _omega_cross(omegas: Sequence[complex], u: Sequence[int]) -> complex:
    return omegas[0] * u[1] - omegas[1] * u[0]


class ConePlan:
    """What the evaluation routes need from one cone, built once per ``Cone``.

    The pieces are cached properties, built on first read and kept: the
    chain sweeping a 2d cone, the Gorenstein frame of a 3d cone (which holds
    one chain per facet wedge) and the face transforms.  A piece whose build
    raises DomainError is not kept; its next read builds it again, which
    stops early and raises the same message.  Get a cone's plan with
    :func:`cone_plan`.
    """

    def __init__(self, cone: Cone):
        self.cone = cone

    # the builders are looked up as module globals at each build, so that a
    # wrapper installed on the module sees every build

    @cached_property
    def chain(self) -> WedgeSubdivision:
        return cone_chain_2d(self.cone)

    @cached_property
    def frame(self) -> GorensteinFrame:
        return gorenstein_frame(self.cone)

    @cached_property
    def face_transforms(self) -> list[FaceTransform]:
        return face_matrices(self.cone)

    def wedges(
        self, z: complex, omegas: Sequence[complex]
    ) -> tuple[complex | None, list[tuple[complex, tuple[complex, ...]]]]:
        """The unimodular decomposition of the cone at (z | omegas).

        Returns ``(axis, wedges)``, ``wedges`` listing each wedge's shifted
        argument and periods in chain order.  In 2d ``axis`` is None and
        every wedge but the last is shifted by its opening period.  In 3d
        ``axis`` is the period w1 of the straightened axis, and every facet
        wedge is shifted and has periods (w1, a, b).
        """
        if self.cone.dim == 2:
            axis = None
            walks = [(omegas, self.chain)]
        else:
            frame = self.frame
            axis = frame.transformed_omegas(omegas)[0]
            walks = zip(frame.facet_omegas(omegas), frame.chains)
        wedges = []
        for fo, walk in walks:
            for u, up in zip(walk.lines, walk.lines[1:]):
                a = _omega_cross(fo, u)
                b = _omega_cross(fo, up)
                wedges.append((z + a, (a, b) if axis is None else (axis, a, b)))
        if axis is None:
            wedges[-1] = (z, wedges[-1][1])
        return axis, wedges

    def faces(self, z: complex, omegas: Sequence[complex], variant: str = "primary"):
        """Yield ``(face_id, z / scale, face periods)`` per face.

        With ``p = K omegas`` for the face matrix K, ``p_0`` pairs the periods
        with the edge ray.  ``scale`` is ``p_0`` for ``variant="primary"``
        and ``-p_0`` for ``"alternative"``; the face periods are
        ``(-1 / scale, p_1 / scale, ...)`` and ``(1 / scale, p_1 / scale, ...)``.
        This is the image of (periods, 1) under S diag(K, 1) or S^-1 diag(K, 1)
        divided by its last entry, where S has -1 top right, +1 bottom left
        and an identity block between.  A vanishing scale raises DomainError.
        """
        if variant not in ("primary", "alternative"):
            raise DomainError(f"unknown variant {variant!r}: use 'primary' or 'alternative'")
        primary = variant == "primary"
        for ft in self.face_transforms:
            p = mat_vec(ft.matrix, omegas)
            # 0 - p_0, not -p_0: zero parts stay +0.0, as in the S^-1 diag(K, 1) image
            scale = p[0] if primary else 0 - p[0]
            if abs(scale) < 1e-12:
                raise DomainError(f"face {ft.face_id}: transformed scale vanishes")
            yield ft.face_id, z / scale, ((-1 if primary else 1) / scale, *(pk / scale for pk in p[1:]))


def cone_plan(cone: Cone) -> ConePlan:
    """The cone's plan, built on first use and kept on the cone."""
    plan = getattr(cone, "_plan", None)
    if plan is None:
        plan = ConePlan(cone)
        object.__setattr__(cone, "_plan", plan)
    return plan


# ---------------------------------------------------------------------------
# lattice enumeration (numpy, for oracles and property tests)


def lattice_points(cone: Cone, radius: int, interior: bool = False):
    """Integer points of the cone (or its interior) with sup-norm <= radius.

    Returns a numpy integer array of shape (count, dim), in lexicographic
    order.  Enumerates the cube one value of the first coordinate at a time
    to bound memory.
    """
    import numpy as np

    normals = np.asarray(cone.normals, dtype=np.int64)
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[rng] * (cone.dim - 1), indexing="ij"), axis=-1).reshape(-1, cone.dim - 1)
    rest_vals = rest @ normals[:, 1:].T
    chunks = []
    for x0 in range(-radius, radius + 1):
        vals = rest_vals + x0 * normals[:, 0]
        mask = (vals >= 1).all(axis=1) if interior else (vals >= 0).all(axis=1)
        if mask.any():
            sel = rest[mask]
            full = np.empty((sel.shape[0], cone.dim), dtype=np.int64)
            full[:, 0] = x0
            full[:, 1:] = sel
            chunks.append(full)
    if not chunks:
        return np.empty((0, cone.dim), dtype=np.int64)
    return np.concatenate(chunks, axis=0)
