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

import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul
from typing import Sequence

from .errors import DomainError, ParseError

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


_draw_store: ContextVar[dict | None] = ContextVar("conesine_draw_store", default=None)


def _per_draw(key: tuple, build, *args):
    """``build(*args)``, kept under ``key`` unless it raises, in the ``_draw_store`` that
    ``verify_theorem`` sets while it samples (elsewhere nothing is kept): the identities on
    one cone share each draw's side values, wedge walk, face walk and Bernoulli tables, unchanged."""
    store = _draw_store.get()
    if store is None:
        return build(*args)
    if key not in store:
        store[key] = build(*args)
    return store[key]


# ---------------------------------------------------------------------------
# small exact helpers


def _as_ivec(v: Sequence[int], name: str = "vector") -> IntVector:
    try:
        out = tuple(int(c) for c in v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a sequence of integers: {v!r}") from exc
    for c, o in zip(v, out):
        if o != c or isinstance(c, bool):
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


def _omega_cross(omegas: Sequence[complex], u: Sequence[int]) -> complex:
    return omegas[0] * u[1] - omegas[1] * u[0]


def mat_vec(m: IntMatrix, v: Sequence) -> tuple:
    """Matrix times vector; entries may be ints or complex numbers."""
    if len(m[0]) != len(v):
        raise DomainError(f"matrix of width {len(m[0])} cannot act on length-{len(v)} vector")
    return tuple(sum(map(mul, row, v)) for row in m)


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


def _bezout(w: Sequence[int]) -> IntVector:
    """An integer vector b with b . w = gcd of the entries of w, from
    successive extended gcds."""
    g, b = w[0], (1,)
    for c in w[1:]:
        g, s, t = xgcd(g, c)
        b = tuple(s * e for e in b) + (t,)
    return b


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
    """A determinant +1 integer matrix whose first column is the primitive xi.

    Column operations on the identity keep column 0 equal to the entries of
    xi read so far over their gcd g.  At a nonzero entry c_i, with (h, s, t)
    = xgcd(g, c_i), columns 0 and i become (g/h) col_0 + (c_i/h) col_i and
    s col_i - t col_0, a block of determinant (s g + t c_i)/h = 1.  Only
    xi = -e_1 ends with g = -1, and negating the first and last columns fixes it.
    """
    col = _as_ivec(xi, "xi")
    if vec_gcd(col) != 1:
        raise DomainError(f"{col} is not primitive, cannot extend to a unimodular basis")
    n = len(col)
    if n not in (2, 3):
        raise DomainError(f"only 2x2 and 3x3 determinants are supported, got {n} rows")
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    g = col[0]
    for i, c in enumerate(col[1:], 1):
        if c:
            h, s, t = xgcd(g, c)
            c0, ci = cols[0], cols[i]
            cols[0] = [g // h * a + c // h * b for a, b in zip(c0, ci)]
            cols[i] = [s * b - t * a for a, b in zip(c0, ci)]
            g = h
    if g == -1:
        cols[0], cols[-1] = [-e for e in cols[0]], [-e for e in cols[-1]]
    return mat_transpose(cols)


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
    predicates reading the walk.  What the evaluation routes read (the
    chain of a 2d cone, the Gorenstein frame of a 3d cone and the face
    transforms), and the Bernoulli oracle's parallelepiped pieces, is built
    on first read and kept on the cone.
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
        object.__setattr__(self, "_largest_entry", max(abs(c) for v in normals + self._edge_rays for c in v))

    # -- geometry the routes read, built on first read -------------------
    # a piece whose build raises DomainError is not kept: its next read raises
    # the same message.  The builders are looked up as module globals at each
    # build, so that a wrapper installed on the module sees every build.

    @cached_property
    def chain(self) -> WedgeSubdivision:
        return cone_chain_2d(self)

    @cached_property
    def frame(self) -> GorensteinFrame:
        return gorenstein_frame(self)

    @cached_property
    def face_transforms(self) -> list[FaceTransform]:
        return face_matrices(self)

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        return parallelepiped_pieces(self)

    def wedges(
        self, z: complex, omegas: Sequence[complex]
    ) -> tuple[complex | None, list[tuple[complex, tuple[complex, ...]]]]:
        """The unimodular decomposition of the cone at (z | omegas).

        Returns ``(axis, wedges)``, ``wedges`` listing each wedge's shifted
        argument and periods in chain order.  In 2d ``axis`` is None and
        every wedge but the last is shifted by its opening period.  In 3d
        ``axis`` is the period w1 of the straightened axis, and every facet
        wedge is shifted and has periods (w1, a, b).  Kept per draw (``_per_draw``).
        """
        return _per_draw(("wedges", z, omegas), self._walk_wedges, z, omegas)

    def _walk_wedges(self, z: complex, omegas: Sequence[complex]):
        if self.dim == 2:
            axis = None
            walks = [(omegas, self.chain)]
        else:
            frame = self.frame
            axis, w2, w3 = frame.transformed_omegas(omegas)
            # facet i has the 2d periods (w2 + ell_i^1 w1, w3 + ell_i^2 w1), w1 = axis
            walks = zip([(w2 + l[0] * axis, w3 + l[1] * axis) for l in frame.ell], frame.chains)
        wedges = []
        for fo, walk in walks:
            # each inner line closes one wedge and opens the next
            crosses = [_omega_cross(fo, u) for u in walk.lines]
            for a, b in zip(crosses, crosses[1:]):
                wedges.append((z + a, (a, b) if axis is None else (axis, a, b)))
        if axis is None:
            wedges[-1] = (z, wedges[-1][1])
        return axis, wedges

    def faces(self, z: complex, omegas: Sequence[complex]):
        """``(face_id, z / p_0, face periods)`` per face, as a generator.

        With ``p = K omegas`` for the face matrix K, ``p_0`` pairs the periods
        with the edge ray, and the face periods are ``(-1 / p_0, p_1 / p_0, ...)``.
        Up to an integer in each p_j / p_0, this is the image of (periods, 1)
        under S diag(K, 1) divided by its last entry, where S has -1 top
        right, +1 bottom left and an identity block between: p_j pairs the
        periods with row j of K less the multiple of the edge ray that brings
        |Re(p_j / p_0)| to at most 1/2, so its rounding error does not grow
        with K.  A vanishing p_0 raises DomainError at that face, so that the
        refusals come in face order.  The walk is kept per draw (``_per_draw``).
        """
        faces, refusal = _per_draw(("faces", z, omegas), self._walk_faces, z, omegas)
        yield from faces
        if refusal is not None:
            raise DomainError(refusal)

    def _walk_faces(self, z: complex, omegas: Sequence[complex]):
        """The faces in order up to the first whose p_0 vanishes, and that face's refusal, or None."""
        faces = []
        for ft in self.face_transforms:
            p0, *ps = mat_vec(ft.matrix, omegas)
            if abs(p0) < 1e-12:
                return faces, f"face {ft.face_id}: transformed scale vanishes"
            periods = []
            for row, pk in zip(ft.matrix[1:], ps):
                ratio = (pk / p0).real
                # past 2**52 a double has no fraction left to reduce, nor has nan or inf
                m = round(ratio) if abs(ratio) < 2**52 else 0
                periods.append(sum(map(mul, [r - m * e for r, e in zip(row, ft.edge_ray)], omegas)) / p0)
            faces.append((ft.face_id, z / p0, (-1 / p0, *periods)))
        return faces, None

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


def require_float_exact(cone: Cone) -> None:
    """Refuse, with DomainError, a cone with a normal or edge-ray entry of
    magnitude 2**53 or more, the first integers that a double does not hold
    exactly: the cone functions pair them with the periods, doubles."""
    if cone._largest_entry >= 2**53:
        raise DomainError(
            "the cone has a normal or edge-ray entry of magnitude 2**53 or more, "
            "which a double does not hold exactly"
        )


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
    row is the edge ray x.  ``n`` is any Bezout vector, n . x = 1: another
    moves each later row by a multiple of x, which ``Cone.faces`` reduces
    away.  ``det`` is +1 except for the one 2d face where the orientation
    forces -1.
    """

    face_id: str
    edge_ray: IntVector
    normals: tuple[IntVector, ...]
    n_vector: IntVector
    matrix: IntMatrix
    det: int


def face_matrices(cone: Cone) -> list[FaceTransform]:
    """One unimodular transform per 1d face, in facet order.

    Each transform depends only on the face's edge ray, its adjacent
    normals and their cofactor vector, read from the face walk kept on the
    cone; in 3d the walk has ordered the pair so that the edge ray pairs
    positively with the cofactor vector; ``n`` is any Bezout vector of the
    cofactor vector, signed to pair to 1 with the edge ray.  Preconditions:
    the cone must be good (otherwise no integral transform exists at some
    face and a DomainError is raised).
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
        n = tuple(eps * e for e in _bezout(w))
        cols = (n, *adjacent)
        kt = unimodular_inverse(tuple(tuple(col[r] for col in cols) for r in range(dim)))
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
    ``basis_t`` is the transpose of ``basis``.
    """

    xi: IntVector
    basis: IntMatrix
    basis_t: IntMatrix
    ell: tuple[IntVector, ...]
    chains: tuple[WedgeSubdivision, ...]

    def transformed_omegas(self, omegas: Sequence[complex]) -> tuple[complex, ...]:
        return mat_vec(self.basis_t, omegas)


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
    return GorensteinFrame(xi=xi, basis=a, basis_t=at, ell=ell, chains=chains)


# ---------------------------------------------------------------------------
# the open cone as disjoint simplicial pieces (Brion; Barvinok)

# a cone whose pieces hold more parallelepiped points than this is refused
MAX_PIECE_POINTS = 100_000
MAX_LATTICE_BOX = 2**24  # likewise a sup-norm box of (2 radius + 1)^dim points


@dataclass(frozen=True)
class Piece:
    """A relatively open simplicial cone spanned by primitive ``rays``.

    Its lattice points are exactly q + sum_i n_i rays[i] with n_i >= 0 and q
    in ``points``, the lattice points of the half-open parallelepiped
    sum_i (0, 1] rays[i].  A wall of a 3d cone has two rays.
    """

    rays: tuple[IntVector, ...]
    points: tuple[IntVector, ...]


def _parallelepiped_points(basis: IntMatrix, lead: int) -> tuple[IntVector, ...]:
    """The lattice points sum_i lambda_i basis[i] with lambda_i in (0, 1] for
    the first ``lead`` rows and in [0, 1) for the rest, |det basis| of them.

    A point is kept as its numerators a = |det| lambda.  Those of the unit
    vectors, the adjugate's rows signed by det, generate Z^d / (basis) Z^d:
    a breadth-first walk adds them, reducing each sum into the
    parallelepiped, until no new point appears.
    """
    det = int_det(basis)
    size = abs(det)
    gens = [tuple(c if det > 0 else -c for c in row) for row in _adjugate(basis)]
    order = [(size,) * lead + (0,) * (len(basis) - lead)]
    seen = set(order)
    for a in order:  # grows while it is walked
        for g in gens:
            b = tuple((c + d - 1) % size + 1 if i < lead else (c + d) % size for i, (c, d) in enumerate(zip(a, g)))
            if b not in seen:
                seen.add(b)
                order.append(b)
    return tuple(tuple(sum(map(mul, a, col)) // size for col in zip(*basis)) for a in order)


def parallelepiped_pieces(cone: Cone) -> tuple[Piece, ...]:
    """The open cone as disjoint relatively open simplicial pieces.

    A 2d cone is one piece, spanned by its edge rays.  A 3d cone is
    triangulated from its first edge ray x_0: the open triangles
    (x_0, x_j, x_{j+1}) and the open walls (x_0, x_j) between consecutive
    ones, 2 <= j <= k - 2, partition its interior.  A wall's points are
    found with a third basis vector b, b . nu = 1 for the wall's primitive
    normal nu: every lattice point has an integer b-coordinate, so the
    [0, 1) range keeps exactly the wall's index of them.  A DomainError is
    raised when the pieces would hold more than MAX_PIECE_POINTS points.
    """
    x = edge_rays(cone)
    if cone.dim == 2:
        spans = [(x, ())]
    else:
        spans = [((x[0], x[j], x[j + 1]), ()) for j in range(1, len(x) - 1)]
        spans += [((x[0], x[j]), (_bezout(primitive_part(cross3(x[0], x[j]))),)) for j in range(2, len(x) - 1)]
    count = sum(abs(int_det(rays + extra)) for rays, extra in spans)
    if count > MAX_PIECE_POINTS:
        raise DomainError(f"the cone's pieces hold {count} parallelepiped points, more than {MAX_PIECE_POINTS}")
    return tuple(Piece(rays, _parallelepiped_points(rays + extra, len(rays))) for rays, extra in spans)


# ---------------------------------------------------------------------------
# lattice enumeration (numpy, for oracles and property tests)


def require_count(value, name: str, least: int) -> int:
    """``value`` as an int; a bool, a non-integer or a value below ``least``
    raises DomainError naming it ``name``."""
    if type(value) is not int:  # an exact int skips the slower abstract-class check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


def lattice_points(cone: Cone, radius: int, interior: bool = False):
    """Integer points of the cone (or its interior) with sup-norm <= radius.

    Returns a fresh, writeable numpy int64 array of shape (count, dim), in
    lexicographic order; ``radius`` must be an integer >= 0, not a bool.
    The points are built fiber by fiber along the last axis.  A normal (b, a),
    with a its last coordinate, asks a s >= c - b . u of the coordinate s over
    the transverse point u (c = 1 for the interior, else 0).  It bounds s from
    below by ceil((c - b . u) / a) when a > 0 and from above by
    floor((c - b . u) / a) when a < 0; with a = 0 it keeps the whole fiber or
    empties it.  Each fiber is the interval between its bounds cut to
    [-radius, radius], so no point outside the cone is ever built.  Normals
    whose pairings with such points could leave int64, and a box of more than
    MAX_LATTICE_BOX points, raise DomainError before any allocation.
    """
    import numpy as np

    radius = require_count(radius, "radius", 0)
    largest = max(abs(c) for v in cone.normals for c in v)
    if largest * cone.dim * radius >= 2**63:
        raise DomainError(f"a normal entry of {largest} at radius {radius} overflows int64 pairings")
    box = (2 * radius + 1) ** cone.dim
    if box > MAX_LATTICE_BOX:
        raise DomainError(f"the box at radius {radius} holds {box} points, more than {MAX_LATTICE_BOX}")
    normals = np.asarray(cone.normals, dtype=np.int64)
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[rng] * (cone.dim - 1), indexing="ij"), axis=-1).reshape(-1, cone.dim - 1)
    need = (1 if interior else 0) - rest @ normals[:, :-1].T
    lo = np.full(len(rest), -radius, dtype=np.int64)
    hi = np.full(len(rest), radius, dtype=np.int64)
    for a, need_i in zip(normals[:, -1], need.T):
        if a > 0:
            np.maximum(lo, -(-need_i // a), out=lo)
        elif a < 0:
            np.minimum(hi, need_i // a, out=hi)
        else:
            hi[need_i > 0] = -radius - 1
    # a lower bound past the radius empties the fiber; clipped, hi - lo stays in int64
    np.minimum(lo, radius + 1, out=lo)
    counts = np.maximum(hi - lo + 1, 0)
    points = np.empty((counts.sum(), cone.dim), dtype=np.int64)
    for k in range(cone.dim - 1):
        points[:, k] = np.repeat(rest[:, k], counts)
    # a point's last coordinate is its fiber's lowest plus its place in the fiber
    firsts = np.cumsum(counts) - counts
    points[:, -1] = np.repeat(lo - firsts, counts)
    points[:, -1] += np.arange(len(points), dtype=np.int64)
    return points
