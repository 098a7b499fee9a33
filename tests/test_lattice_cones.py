"""Exact integer geometry: cone validation, wedge subdivision, face transforms."""
from __future__ import annotations

import cmath
import gc
import itertools
import json
import math
import weakref
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conesine import (
    DEFAULT_CONFIG,
    BudgetError,
    Cone,
    DomainError,
    ParseError,
    cone_chain_2d,
    dual_contains,
    edge_rays,
    elliptic_gamma,
    face_matrices,
    gorenstein_frame,
    gorenstein_vector,
    is_good,
    lattice_points,
    subdivide_wedge,
    verify_theorem,
)
from conesine import lattice_cones
from conesine.fixtures import FIXTURE_NAMES, fixture_cone
from conesine import generalized
from conesine.generalized import (
    THEOREMS,
    _sample_gamma_params,
    _sample_sine_params,
    gamma_cone_direct,
    gamma_cone_factorized,
    sine_cone_decomposed,
    sine_cone_factorized,
)
from conesine.lattice_cones import (
    _adjugate,
    contains,
    cross3,
    det2,
    det3,
    int_det,
    is_primitive,
    mat_vec,
    primitive_part,
    unimodular_inverse,
    unimodular_with_first_column,
)

from cone_strategies import planar_cones, polygon_cones
from lattice_reference import cube_scan_lattice_points, row_reduction_unimodular_with_first_column
from params import SINE_OMEGAS, STRESS_CONES, Z_GENERIC


# ---------------------------------------------------------------------------
# primitivity


def test_unit_vector_is_primitive():
    assert is_primitive((0, 1))


def test_even_multiple_is_not_primitive():
    assert not is_primitive((2, 4))


def test_coprime_pair_is_primitive():
    assert is_primitive((-3, 2))


def test_zero_vector_is_rejected():
    with pytest.raises(DomainError):
        is_primitive((0, 0))


def test_primitive_part_divides_out_gcd():
    assert primitive_part((4, -6)) == (2, -3)
    assert primitive_part((0, 5, 0)) == (0, 1, 0)


# ---------------------------------------------------------------------------
# cone construction and validation


@pytest.mark.parametrize("dim, normals, match", [
    (2, ((0, 1), (1, 1), (1, 0)), r"^a 2d cone needs exactly two normals$"),
    (3, ((1, 0, 0), (0, 1, 0)), r"^a 3d cone needs at least three normals$"),
    (2, ((0, 1), (0, -1)), r"^normals do not span 2d space: cone contains a line$"),
    # normals whose last coordinates are all 0 never span, so the fiber walk
    # of lattice_points always has a bound along that axis
    (2, ((1, 0), (-1, 0)), r"^normals do not span 2d space: cone contains a line$"),
    (3, ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)),
     r"^normals do not span 3d space: cone contains a line$"),
    (3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)),
     r"^consecutive normals \(1, 0, 0\), \(-1, 0, 0\) are parallel$"),
    # cone-over-square with its second and third normals swapped
    (3, ((1, 0, 0), (1, -1, -1), (1, -1, 0), (1, 0, -1)),
     r"^normals \(1, 0, 0\) and \(1, -1, -1\) are listed as facet neighbours but share no edge: "
     r"normals are not in cyclic order or the cone is not minimal$"),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
     r"^edge between facets 0 and 1 lies on facet 3: normal list is redundant or mis-ordered$"),
    (2.5, ((0, 1), (-2, 1)), r"^only cones of dimension 2 or 3 are supported, got 2.5$"),
    # JSON reads 1e400 as infinity, which int() cannot convert
    (2, ((math.inf, 1), (0, 1)), r"^normal must be a sequence of integers: \(inf, 1\)$"),
    # int(True) == True, so a bool entry loaded as 1
    (2, ((True, 1), (0, 1)), r"^normal must have integer entries: \(True, 1\)$"),
], ids=["2d-three-normals", "3d-two-normals", "2d-half-plane", "2d-free-last-axis", "3d-rank-deficient",
        "3d-consecutive-parallel", "3d-shuffled-square", "3d-edge-on-third-facet",
        "non-integral-dim", "infinite-entry", "bool-entry"])
def test_cone_refusal_messages(dim, normals, match):
    with pytest.raises(DomainError, match=match):
        Cone(dim, normals)


@pytest.mark.parametrize("normals, refused", [
    (((2**53 - 1, 1), (0, 1)), False),
    (((2**53, 1), (0, 1)), True),
    (((-(2**53), 1), (0, 1)), True),
    # every normal entry is below 2**28, but an edge ray has the entry -2**54
    (((1, 0, 0), (0, 2**27, 1), (2**27, 1, 1)), True),
], ids=["2d-below", "2d-at", "2d-negative", "3d-edge-ray"])
def test_require_float_exact_refuses_entries_from_2_to_the_53(normals, refused):
    cone = Cone(len(normals[0]), normals)
    if refused:
        with pytest.raises(DomainError, match=r"entry of magnitude 2\*\*53 or more"):
            lattice_cones.require_float_exact(cone)
    else:
        lattice_cones.require_float_exact(cone)


def test_integral_float_dimension_loads_as_int():
    # an integral dim is read as normal entries are: 2.0 is the int 2
    cone = Cone.from_json_dict(json.loads('{"dim": 2.0, "normals": [[0, 1], [-2, 1]]}'))
    assert type(cone.dim) is int
    assert cone == Cone(2, ((0, 1), (-2, 1)))
    assert cone.to_json_dict() == {"dim": 2, "normals": [[0, 1], [-2, 1]]}


def test_cone_rejects_non_primitive_normal():
    with pytest.raises(DomainError):
        Cone(2, ((0, 1), (2, -4)))


def test_cone_json_round_trip(square):
    doc = square.to_json_dict()
    assert doc["dim"] == 3
    assert Cone.from_json_dict(json.loads(json.dumps(doc))) == square


def test_cone_from_json_requires_keys():
    with pytest.raises(ParseError):
        Cone.from_json_dict({"dim": 2})
    with pytest.raises(ParseError):
        Cone.from_json_dict({"normals": [[0, 1], [1, 0]]})


# ---------------------------------------------------------------------------
# goodness and the Gorenstein certificate


def test_standard_2d_cone_is_good(std2):
    assert is_good(std2)


def test_wedge21_is_good(w21):
    assert is_good(w21)


def test_non_saturated_face_pair_is_not_good():
    cone = Cone(3, ((1, 0, 0), (1, 2, 0), (0, 0, 1)))
    assert not is_good(cone)


def test_gorenstein_vector_triangle_cone():
    cone = Cone(3, ((1, 0, 0), (1, -1, 0), (1, 0, -1)))
    assert gorenstein_vector(cone) == (1, 0, 0)


def test_gorenstein_vector_square_cone(square):
    assert gorenstein_vector(square) == (1, 0, 0)


def test_gorenstein_vector_wedge21(w21):
    assert gorenstein_vector(w21) == (0, 1)


def test_gorenstein_vector_standard_3d(std3):
    assert gorenstein_vector(std3) == (1, 1, 1)


def test_wedge53_has_no_gorenstein_vector(w53):
    assert gorenstein_vector(w53) is None


def test_gorenstein_vector_pairs_to_one_on_every_normal(square, std3, w21):
    for cone in (square, std3, w21):
        xi = gorenstein_vector(cone)
        for v in cone.normals:
            assert sum(a * b for a, b in zip(xi, v)) == 1


def _pair_is_saturated(a, b) -> bool:
    """Whether every lattice point of a box in span(a, b) lies in Z a + Z b.

    A lattice point of the span outside Z a + Z b has a representative
    s a + t b with 0 <= s, t < 1, whose entries are below |a| + |b| in sup
    norm, so the box of that half-width finds one if any exists.
    """
    w = np.array(cross3(a, b))
    half = max(map(abs, a)) + max(map(abs, b))
    r = np.arange(-half, half + 1)
    box = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    plane = box[box @ w == 0]
    # p = s a + t b gives (p x b) . w = s |w|^2 and (a x p) . w = t |w|^2
    ww = int(w @ w)
    s = np.cross(plane, b) @ w
    t = np.cross(a, plane) @ w
    return bool((s % ww == 0).all() and (t % ww == 0).all())


def _gorenstein_by_elimination(normals):
    """The integer solution of N x = 1 over all normals, by exact Gauss-Jordan
    elimination in rationals, or None."""
    rows = [[Fraction(c) for c in v] + [Fraction(1)] for v in normals]
    for col in range(3):
        pivot = next(i for i in range(col, len(rows)) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [e / rows[col][col] for e in rows[col]]
        for i, row in enumerate(rows):
            if i != col:
                rows[i] = [e - row[col] * p for e, p in zip(row, rows[col])]
    if any(row[3] != 0 for row in rows[3:]):
        return None  # inconsistent: no rational solution
    x = [rows[i][3] for i in range(3)]
    if any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


@st.composite
def normal_sets_3d(draw):
    """3 to 6 primitive vectors with entries in [-4, 4], turned to the side of
    the first one and listed by angle around their sum, so that a fair share
    are valid cyclic normal lists."""
    raw = [tuple(draw(st.integers(-4, 4)) for _ in range(3)) for _ in range(draw(st.integers(3, 6)))]
    assume(all(any(v) for v in raw))
    return _cyclic_normals(raw)


def _cyclic_normals(raw):
    """Primitive parts of nonzero vectors, listed by angle around their sum."""
    vs = [primitive_part(v) for v in raw]
    vs = [v if np.dot(v, vs[0]) >= 0 else tuple(-c for c in v) for v in vs]
    s = tuple(sum(v[k] for v in vs) for k in range(3))
    e1 = cross3(s, (1, 0, 0) if abs(s[0]) <= max(abs(s[1]), abs(s[2])) else (0, 1, 0))
    e2 = cross3(s, e1)
    return tuple(sorted(vs, key=lambda v: math.atan2(np.dot(v, e2), np.dot(v, e1))))


@settings(max_examples=200, deadline=None)
@given(normal_sets_3d())
@example(((1, 0, 0), (1, -1, 0), (1, -1, -1), (1, 0, -1)))  # cone over the square
@example(((1, 0, 0), (1, 2, 0), (0, 0, 1)))  # an edge lattice of index 2
def test_property_closed_form_predicates_match_definitions(normals):
    try:
        cone = Cone(3, normals)
    except DomainError:
        assume(False)
    n = len(normals)
    pairs = [(normals[i], normals[(i + 1) % n]) for i in range(n)]
    good = all(_pair_is_saturated(a, b) for a, b in pairs)
    xi = _gorenstein_by_elimination(normals)
    event(f"{n} normals, {'good' if good else 'not good'}, {'no ' if xi is None else ''}xi")
    assert is_good(cone) == good
    assert gorenstein_vector(cone) == xi
    if good:
        _assert_face_transforms_match_definitions(cone)
    else:
        with pytest.raises(DomainError, match="is not good"):
            face_matrices(cone)


@settings(max_examples=200, deadline=None)
@given(normal_sets_3d(), st.booleans())
@example(((1, 0, 0), (1, -1, 0), (1, -1, -1), (1, 0, -1)), True)  # cone over the square, clockwise
def test_property_accepted_listing_winds_one_way_over_two_dimensional_facets(normals, clockwise):
    # invariants the face walk relies on without checking them: every face
    # of an accepted listing turns the same way, det3(x_i, v_i, v_i+1) of one
    # nonzero sign, and consecutive edge rays span a 2d facet
    if clockwise:
        normals = normals[::-1]
    try:
        cone = Cone(3, normals)
    except DomainError:
        assume(False)
    n = len(normals)
    rays = edge_rays(cone)
    turns = {int(np.sign(det3(x, normals[i], normals[(i + 1) % n]))) for i, x in enumerate(rays)}
    event(f"turns {sorted(turns)}")
    assert turns in ({1}, {-1})
    assert all(any(cross3(rays[i], rays[(i + 1) % n])) for i in range(n))


def _assert_face_transforms_match_definitions(cone: Cone) -> None:
    """Each face transform against its definition: the inverse of the frame
    [n | adjacent normals], of determinant ``det`` (+1 in 3d), with n
    positive on the edge ray; the adjacent normals vanish on the edge ray,
    ordered in 3d so that det3(x, a, b) > 0."""
    dim = cone.dim
    faces = face_matrices(cone)
    assert [ft.edge_ray for ft in faces] == list(edge_rays(cone))
    for ft in faces:
        x, n, adjacent = ft.edge_ray, ft.n_vector, ft.normals
        assert len(adjacent) == dim - 1
        assert set(adjacent) == {v for v in cone.normals if np.dot(v, x) == 0}
        cols = (n, *adjacent)
        frame = tuple(tuple(col[r] for col in cols) for r in range(dim))
        assert (np.array(ft.matrix) @ np.array(frame) == np.eye(dim, dtype=int)).all()
        assert ft.matrix[0] == ft.edge_ray
        assert int_det(frame) == ft.det
        assert ft.det == 1 if dim == 3 else ft.det in (1, -1)
        assert np.dot(n, x) > 0
        if dim == 3:
            assert det3(x, *adjacent) > 0


@st.composite
def normal_pairs_2d(draw):
    """Two primitive, non-parallel vectors with entries in [-6, 6]."""
    raw = [tuple(draw(st.integers(-6, 6)) for _ in range(2)) for _ in range(2)]
    assume(all(any(v) for v in raw))
    vs = tuple(primitive_part(v) for v in raw)
    assume(det2(*vs) != 0)
    return vs


@settings(max_examples=150, deadline=None)
@given(normal_pairs_2d())
@example(((0, 1), (1, 0)))  # the standard cone, one face of det -1
@example(((-2, 1), (1, 0)))  # wedge21
def test_property_2d_face_transforms_match_definitions(normals):
    _assert_face_transforms_match_definitions(Cone(2, normals))


# ---------------------------------------------------------------------------
# membership and dual membership


def test_interior_point_of_standard_cone(std2):
    assert dual_contains(std2, (1, 1), strict=True)


def test_outside_point_of_standard_cone(std2):
    assert not dual_contains(std2, (-1, 0))


def test_dual_boundary_point_is_not_strict(w21):
    # the normals generate the dual cone, so each normal lies on its boundary
    assert dual_contains(w21, (0, 1))
    assert not dual_contains(w21, (0, 1), strict=True)


def test_edge_rays_of_wedges(w21, w53):
    assert edge_rays(w21) == ((-1, 0), (1, 2))
    assert edge_rays(w53) == ((-1, 0), (3, 5))


def test_edge_rays_pair_to_zero_with_their_normal(square):
    rays = edge_rays(square)
    for ray in rays:
        touched = [v for v in square.normals if sum(a * b for a, b in zip(ray, v)) == 0]
        assert len(touched) == 2  # each edge of a 3d cone lies on two facets
        assert contains(square, ray)


def test_contains_strict_vs_boundary(w21):
    assert contains(w21, (0, 1), strict=True)
    assert contains(w21, (-1, 0))
    assert not contains(w21, (-1, 0), strict=True)


# ---------------------------------------------------------------------------
# wedge subdivision


def test_subdivision_trivial_quarter_turn():
    assert subdivide_wedge((0, 1), (-1, 0)).lines == ((0, 1), (-1, 0))


def test_subdivision_wedge21():
    assert subdivide_wedge((0, 1), (-2, 1)).lines == ((0, 1), (-1, 1), (-2, 1))


def test_subdivision_wedge32():
    assert subdivide_wedge((0, 1), (-3, 2)).lines == ((0, 1), (-1, 1), (-3, 2))


def test_subdivision_wedge53_chain():
    chain = subdivide_wedge((0, 1), (-5, 3))
    assert chain.lines == ((0, 1), (-1, 1), (-3, 2), (-5, 3))
    for a, b in zip(chain.lines, chain.lines[1:]):
        assert det2(a, b) == 1


def test_subdivision_rejects_parallel_inputs():
    with pytest.raises(DomainError):
        subdivide_wedge((0, 1), (0, -1))


def test_subdivision_rejects_negative_orientation():
    with pytest.raises(DomainError):
        subdivide_wedge((-2, 1), (0, 1))


def test_interior_lines_slice():
    chain = subdivide_wedge((0, 1), (-5, 3))
    assert chain.interior == ((-1, 1), (-3, 2))


def test_neighbour_sum_is_multiple_of_interior_line():
    chain = subdivide_wedge((0, 1), (-5, 3)).lines
    for j in range(1, len(chain) - 1):
        s = tuple(a + b for a, b in zip(chain[j - 1], chain[j + 1]))
        u = chain[j]
        # s = a * u for an integer a
        assert s[0] * u[1] == s[1] * u[0]
        k = (s[0] // u[0]) if u[0] != 0 else (s[1] // u[1])
        assert tuple(k * c for c in u) == s


def _brute_partition_ok(chain: tuple, radius: int) -> bool:
    """Every lattice point of the closed wedge must fall in exactly one
    half-open sub-wedge {x: det2(x, u_j) <= 0 < det2(x, u_{j+1})} ... the
    count over sub-wedges is compared against direct membership."""
    v1, v2 = chain[0], chain[-1]
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            p = (x, y)
            in_wedge = det2(v1, p) >= 0 > det2(v2, p) or p == (0, 0)
            hits = 0
            for a, b in zip(chain, chain[1:]):
                if det2(a, p) >= 0 > det2(b, p) or p == (0, 0):
                    hits += 1
            if p == (0, 0):
                # the apex is shared; it belongs to the wedge exactly once
                hits = 1
            if hits != (1 if in_wedge else 0):
                return False
    return True


def test_subdivision_partitions_lattice_ball():
    for v1, v2 in (((0, 1), (-2, 1)), ((0, 1), (-5, 3)), ((1, 1), (-1, 1))):
        chain = subdivide_wedge(v1, v2).lines
        assert _brute_partition_ok(chain, 12)


def test_subdivision_is_sl2_equivariant():
    mats = ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]])
    pairs = (((0, 1), (-2, 1)), ((0, 1), (-5, 3)), ((1, 0), (0, 1)))
    for m in mats:
        for v1, v2 in pairs:
            base = subdivide_wedge(v1, v2).lines
            mapped = tuple(
                (m[0][0] * u[0] + m[0][1] * u[1], m[1][0] * u[0] + m[1][1] * u[1])
                for u in base
            )
            direct = subdivide_wedge(mapped[0], mapped[-1]).lines
            assert mapped == direct


@st.composite
def wedge_pairs(draw):
    """Primitive, positively oriented, non-parallel 2d vector pairs."""
    def vec():
        v = (draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
        if v == (0, 0):
            v = (0, 1)
        return primitive_part(v)

    v1 = vec()
    v2 = vec()
    if det2(v1, v2) < 0:
        v1, v2 = v2, v1
    if det2(v1, v2) == 0:
        # v1 rotated by a quarter turn: primitive, and det2(v1, v2) = |v1|^2 > 0
        v2 = (-v1[1], v1[0])
    return v1, v2


@settings(max_examples=60, deadline=None)
@given(wedge_pairs())
def test_property_subdivision_chain_is_unimodular(pair):
    v1, v2 = pair
    chain = subdivide_wedge(v1, v2)
    assert chain.lines[0] == v1
    assert chain.lines[-1] == v2
    for a, b in zip(chain.lines, chain.lines[1:]):
        assert det2(a, b) == 1


@settings(max_examples=15, deadline=None)
@given(wedge_pairs())
def test_property_subdivision_partitions_small_ball(pair):
    v1, v2 = pair
    chain = subdivide_wedge(v1, v2).lines
    assert _brute_partition_ok(chain, 8)


def test_cone_chain_endpoints_and_interior(w21, w53):
    chain21 = cone_chain_2d(w21)
    assert chain21.lines == ((-2, 1), (-1, 0), (0, -1))
    assert chain21.interior == ((-1, 0),)
    chain53 = cone_chain_2d(w53)
    assert chain53.lines == ((-5, 3), (-2, 1), (-1, 0), (0, -1))
    for a, b in zip(chain53.lines, chain53.lines[1:]):
        assert det2(a, b) == 1


# ---------------------------------------------------------------------------
# face transforms


def test_face_transforms_standard_cone(std2):
    fts = {ft.face_id: ft for ft in face_matrices(std2)}
    assert set(fts) == {"edge(1,0)", "edge(0,1)"}
    assert fts["edge(1,0)"].matrix == ((1, 0), (0, 1))
    assert fts["edge(0,1)"].matrix == ((0, 1), (1, 0))
    assert fts["edge(1,0)"].det == 1
    assert fts["edge(0,1)"].det == -1


def test_face_transforms_wedge21(w21):
    fts = {ft.face_id: ft for ft in face_matrices(w21)}
    assert set(fts) == {"edge(-1,0)", "edge(1,2)"}
    ft = fts["edge(1,2)"]
    assert ft.n_vector == (1, 0)
    assert ft.matrix == ((1, 2), (0, 1))
    assert ft.det == 1
    other = fts["edge(-1,0)"]
    assert other.det == -1
    assert other.matrix == ((-1, 0), (0, 1))


def test_face_transform_matrix_inverts_normal_frame(square):
    # matrix is the inverse of the integer frame [n, adjacent normals]
    for ft in face_matrices(square):
        cols = [ft.n_vector, *ft.normals]
        frame = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
        assert (np.array(ft.matrix) @ np.array(frame) == np.eye(3, dtype=int)).all()
        assert ft.det == 1
        assert int_det(ft.matrix) == 1


def test_face_transform_count_matches_edges(square, std3, w21):
    assert len(face_matrices(square)) == 4
    assert len(face_matrices(std3)) == 3
    assert len(face_matrices(w21)) == 2


def test_face_transforms_need_good_cone():
    bad = Cone(3, ((1, 0, 0), (1, 2, 0), (0, 0, 1)))
    with pytest.raises(DomainError):
        face_matrices(bad)


def test_alternative_normal_choice_shifts_parameters_by_integers(square, w21):
    # replacing n by n + v, for an adjacent normal v, keeps the determinant
    # and the first row of the face matrix, the pairing with the edge ray:
    # z / scale is unchanged and each period ratio moves by an exact integer
    # (Cone.faces reduces each ratio by its own integer, so which one is not fixed)
    z = 0.17 - 0.23j
    for cone, omegas in ((w21, (0.3 + 0.4j, -0.2 + 0.9j)), (square, (0.9 + 0.3j, -0.2 + 0.5j, 0.1 - 0.4j))):
        for ft, (_, z_scaled, scaled) in zip(face_matrices(cone), cone.faces(z, omegas)):
            for v in ft.normals:
                alt_cols = [tuple(n + c for n, c in zip(ft.n_vector, v)), *ft.normals]
                frame = tuple(tuple(col[r] for col in alt_cols) for r in range(cone.dim))
                assert int_det(frame) == ft.det
                alt_matrix = unimodular_inverse(frame)
                assert alt_matrix[0] == ft.matrix[0] == ft.edge_ray
                p = mat_vec(alt_matrix, omegas)
                assert z / p[0] == z_scaled
                for ratio, pk in zip(scaled[1:], p[1:]):
                    shift = pk / p[0] - ratio
                    assert abs(shift - round(shift.real)) < 1e-12


def _random_good_cones(dim: int, count: int, seed: int, gorenstein: bool = False) -> list[Cone]:
    """Seeded good cones: two primitive normals in 2d, three to six normals
    listed by angle in 3d, entries in [-4, 4]; with ``gorenstein``, only
    cones that have a Gorenstein vector."""
    rng = Random(seed)
    cones = []
    while len(cones) < count:
        raw = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(2 if dim == 2 else rng.randint(3, 6))]
        if not all(any(v) for v in raw):
            continue
        try:
            cone = Cone(dim, tuple(primitive_part(v) for v in raw) if dim == 2 else _cyclic_normals(raw))
        except DomainError:
            continue
        if is_good(cone) and (not gorenstein or gorenstein_vector(cone) is not None):
            cones.append(cone)
    return cones


FACE_CONES = [fixture_cone(name) for name in FIXTURE_NAMES] + [
    cone for dim in (2, 3) for cone in _random_good_cones(dim, 30, 41 + dim)
]


# good Gorenstein 3d cones, each listed counterclockwise
GORENSTEIN_CONES = [fixture_cone("standard-3"), fixture_cone("cone-over-square")] + _random_good_cones(
    3, 40, 13, gorenstein=True
)


def _relistings(cone: Cone) -> list[Cone]:
    """The cone as listed, reversed (clockwise) and rotated by one."""
    return [cone, Cone(3, cone.normals[::-1]), Cone(3, cone.normals[1:] + cone.normals[:1])]


def _rotation(a: tuple, b: tuple) -> int:
    """The k with b == a[k:] + a[:k]."""
    return next(k for k in range(len(a)) if b == a[k:] + a[:k])


@pytest.mark.parametrize("clockwise", [False, True], ids=["as-listed", "reversed"])
def test_gorenstein_frame_straightens_normals_and_winds_counterclockwise(clockwise):
    # invariants gorenstein_frame relies on without checking them: every
    # straightened normal has first entry xi . v = 1, and the listed apex
    # vectors turn the same way at every vertex
    for cone in GORENSTEIN_CONES:
        if clockwise:
            cone = Cone(3, cone.normals[::-1])
        frame = gorenstein_frame(cone)
        straightened = [mat_vec(tuple(zip(*frame.basis)), v) for v in cone.normals]
        assert all(p[0] == 1 for p in straightened)
        listed = tuple((-p[1], -p[2]) for p in straightened)
        n = len(listed)
        steps = [tuple(np.subtract(listed[(i + 1) % n], listed[i])) for i in range(n)]
        turns = {int(np.sign(det2(steps[i - 1], steps[i]))) for i in range(n)}
        assert turns == ({-1} if clockwise else {1})
        assert frame.ell == (listed[::-1] if clockwise else listed)


def test_frame_transpose_is_formed_once(monkeypatch):
    cone = fixture_cone("cone-over-square")
    frame = cone.frame
    assert frame.basis_t == tuple(zip(*frame.basis))
    built = []
    monkeypatch.setattr(lattice_cones, "mat_transpose", lambda m: built.append(m) or tuple(zip(*m)))
    omegas = (0.42 + 0.014j, -0.13 + 0.009j, -0.17 - 0.012j)
    for _ in range(3):
        axis, _wedges = cone.wedges(0.19 + 0.07j, omegas)
    assert not built
    assert frame.transformed_omegas(omegas) == mat_vec(tuple(zip(*frame.basis)), omegas)
    assert axis == frame.transformed_omegas(omegas)[0]


NOT_GOOD = ((1, 0, 0), (1, 2, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "normals, piece",
    [(((1, 0, 0), (0, 1, 0), (0, 0, 1)), "chain"), (NOT_GOOD, "frame"), (NOT_GOOD, "face_transforms"),
     (((0, 1), (-2, 1)), "frame")],
)
def test_a_piece_whose_build_fails_is_not_kept(normals, piece):
    cone = Cone(len(normals[0]), normals)
    with pytest.raises(DomainError) as first:
        getattr(cone, piece)
    assert piece not in vars(cone)
    with pytest.raises(DomainError) as second:
        getattr(cone, piece)
    assert str(second.value) == str(first.value)


@pytest.mark.parametrize(
    "name, pieces", [("wedge21", ("chain", "face_transforms")), ("cone-over-square", ("frame", "face_transforms"))]
)
def test_a_cone_with_built_geometry_is_freed_without_the_cycle_collector(name, pieces):
    # the cached pieces hold no reference back to the cone, so reference
    # counting alone frees it (a fresh cone: fixture_cone keeps its own)
    kept = fixture_cone(name)
    cone = Cone(kept.dim, kept.normals)
    for piece in pieces:
        getattr(cone, piece)
    cone.wedges(Z_GENERIC, SINE_OMEGAS[name])
    list(cone.faces(Z_GENERIC, SINE_OMEGAS[name]))
    ref = weakref.ref(cone)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del cone
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _check_relisted_geometry(cone: Cone) -> None:
    # reversing a listing makes the face walk swap every adjacent pair and
    # the frame reverse its apex vectors; rotating it only rotates the walk
    faces = {ft.face_id: ft for ft in face_matrices(cone)}
    frame = gorenstein_frame(cone)
    for other in _relistings(cone)[1:]:
        assert set(edge_rays(other)) == set(edge_rays(cone))
        assert {ft.face_id: ft for ft in face_matrices(other)} == faces
        moved = gorenstein_frame(other)
        assert (moved.xi, moved.basis) == (frame.xi, frame.basis)
        k = _rotation(frame.ell, moved.ell)
        assert [c.lines for c in moved.chains] == [c.lines for c in frame.chains[k:] + frame.chains[:k]]


RELISTED_ROUTES = [
    (sine_cone_decomposed, {}, _sample_sine_params),
    (sine_cone_factorized, {}, _sample_sine_params),
    (gamma_cone_direct, {}, _sample_gamma_params),
    (gamma_cone_factorized, {"variant": "primary"}, _sample_gamma_params),
    (gamma_cone_factorized, {"variant": "alternative"}, _sample_gamma_params),
    (THEOREMS["face-modularity"].rhs, {}, _sample_gamma_params),
]
RELISTED_ROUTE_IDS = ["sine-decomposed", "sine-factorized", "gamma-direct", "gamma-factorized",
                      "gamma-factorized-alternative", "face-product-reduced"]


def _check_relisted_values(cone: Cone, route, kwargs, sampler, rng: Random) -> None:
    # redraw a sample the route refuses: a degenerate one (DomainError, as
    # verify redraws) or one whose moduli sit so near the unit circle that
    # the series overruns its budget (BudgetError)
    for _ in range(10):
        z, omegas = sampler(cone, rng)
        try:
            want = route(cone, z, omegas, DEFAULT_CONFIG, **kwargs)
            break
        except (DomainError, BudgetError):
            pass
    else:
        pytest.fail(f"no generic sample for {cone.normals}")
    for other in _relistings(cone)[1:]:
        got = route(other, z, omegas, DEFAULT_CONFIG, **kwargs)
        assert abs(got - want) <= 1e-14 * abs(want), (cone.normals, other.normals)


def test_relisted_3d_cones_keep_their_geometry():
    for cone in GORENSTEIN_CONES:
        _check_relisted_geometry(cone)


@pytest.mark.parametrize("route, kwargs, sampler", RELISTED_ROUTES, ids=RELISTED_ROUTE_IDS)
def test_relisted_3d_cones_keep_their_values(route, kwargs, sampler):
    rng = Random(29)
    for cone in GORENSTEIN_CONES:
        _check_relisted_values(cone, route, kwargs, sampler, rng)


# cones over lattice polygons reach four to eight facets and both windings,
# which the draws of _random_good_cones(3, ..., gorenstein=True) almost never do


@settings(max_examples=30, deadline=None)
@given(cone=polygon_cones())
def test_relisted_polygon_cones_keep_their_geometry(cone):
    event(f"{len(cone.normals)} facets")
    _check_relisted_geometry(cone)


@settings(max_examples=10, deadline=None)
@given(cone=polygon_cones(), seed=st.integers(0, 2**32 - 1))
# first sine sample: face moduli within 3e-5 of the unit circle, which form 1 of the factorized
# route refuses after most of a second; the form each route now picks returns it
@example(cone=Cone(3, ((5, 2, -2), (-3, 1, 2), (-1, -2, 1), (3, -1, -1))), seed=1)
@pytest.mark.parametrize("route, kwargs, sampler", RELISTED_ROUTES, ids=RELISTED_ROUTE_IDS)
def test_relisted_polygon_cones_keep_their_values(route, kwargs, sampler, cone, seed):
    event(f"{len(cone.normals)} facets")
    _check_relisted_values(cone, route, kwargs, sampler, Random(seed))


@settings(max_examples=30, deadline=None)
@given(cone=polygon_cones(), seed=st.integers(0, 2**32 - 1))
# second g2c sample: the primary face product underflowed midway, so the factorized route returned 0
@example(cone=Cone(3, ((2, -1, 2), (-2, -3, 5), (-2, -1, 2), (-1, 3, -4))), seed=0)
@pytest.mark.parametrize(
    "theorem_id", ["s3c-factorization", "g2c-factorization", "g2c-alternative", "face-modularity"]
)
def test_polygon_cones_agree_across_routes(theorem_id, cone, seed):
    # the four cone routes, both gamma variants and the reduced face product,
    # at the identity tolerances
    event(f"{len(cone.normals)} facets")
    report = verify_theorem(theorem_id, cone, samples=2, seed=seed)
    assert report.status == "PASS", (cone.normals, seed, report.residuals)


@settings(max_examples=30, deadline=None)
@given(cone=planar_cones, seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("theorem_id", ["s2c-factorization", "g1c-factorization"])
def test_planar_cones_agree_across_routes(theorem_id, cone, seed):
    # the wedge walk along a 2d cone's chain against its face walk
    report = verify_theorem(theorem_id, cone, samples=2, seed=seed)
    assert report.status == "PASS", (cone.normals, seed, report.residuals)


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_faces_are_the_s_composed_face_action(variant):
    # the face loop against its definition: the image of (periods, 1) under
    # S (K + 1), or S^-1 (K + 1) for the alternative (the primary walk with
    # z / p_0 and each p_j / p_0 negated), divided by its last entry; S has -1
    # top right, +1 bottom left and an identity block between.  The periods
    # after the first are that image up to an integer each, with real part
    # within 1/2 of zero
    rng = Random(5)
    for cone in FACE_CONES:
        size = cone.dim + 1
        s = np.eye(size, dtype=int)
        s[0, 0] = s[-1, -1] = 0
        s[0, -1], s[-1, 0] = -1, 1
        g = s if variant == "primary" else s.T  # S is a signed permutation: S^-1 = S^T
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        omegas = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(cone.dim))
        # the (u, taus) the route hands to each face's elliptic gamma, in walk order; its period
        # check and Bernoulli exponent are stubbed, so the walk sees any periods on any good cone
        handed = []
        with mock.patch.multiple(generalized, _route_periods=lambda cone, omegas, gamma: omegas,
                                 bernoulli_cone_lifted=lambda *args: 0j,
                                 elliptic_gamma=lambda u, taus, cfg: handed.append((u, taus)) or 1):
            gamma_cone_factorized(cone, z, omegas, variant=variant)
        assert len(handed) == len(face_matrices(cone))
        for ft, (z_scaled, scaled) in zip(face_matrices(cone), handed):
            k_plus_1 = np.eye(size, dtype=int)
            k_plus_1[:-1, :-1] = ft.matrix
            image = (g @ k_plus_1) @ np.array([*omegas, 1], dtype=complex)
            want = (z, *image[:-1]) / image[-1]
            assert np.allclose((z_scaled, scaled[0]), want[:2], rtol=1e-15, atol=0)
            for period, image_period in zip(scaled[1:], want[2:]):
                assert abs(period.real) <= 0.5 + 1e-12
                shifted = period + round((image_period - period).real)
                assert np.isclose(shifted, image_period, rtol=1e-15, atol=0)


@pytest.mark.parametrize("omegas", [(complex("nan"), 1j), (-1e-10 + 0j, 1e300 + 0j)], ids=["nan", "infinite-ratio"])
def test_a_face_ratio_with_no_fraction_is_not_reduced(w21, omegas):
    # round() refuses nan and inf: such a period is passed on as it is, and the face factor refuses it
    refused = []
    for ft, (_, u, scaled) in zip(face_matrices(w21), w21.faces(0.1, omegas)):
        p = mat_vec(ft.matrix, omegas)
        assert repr(scaled[1:]) == repr(tuple(pk / p[0] for pk in p[1:]))
        if not all(map(cmath.isfinite, scaled)):
            with pytest.raises(DomainError, match="an argument or period is not finite"):
                elliptic_gamma(u, scaled)
            refused.append(u)
    assert refused


# ---------------------------------------------------------------------------
# integer linear algebra utilities


def test_unimodular_inverse_round_trip():
    m = ((3, 1), (2, 1))
    assert (np.array(unimodular_inverse(m)) @ np.array(m) == np.eye(2, dtype=int)).all()


def _leibniz_det(m) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_det_and_adjugate_on_random_integer_matrices(n):
    rng = Random(20261018 + n)
    for _ in range(500):
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        d = int_det(m)
        assert d == _leibniz_det(m)
        adj = _adjugate(m)
        product = tuple(tuple(sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)) for i in range(n))
        assert product == tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))


def test_unimodular_completion_of_a_column():
    m = unimodular_with_first_column((2, 1))
    assert (m[0][0], m[1][0]) == (2, 1)
    assert abs(int_det(m)) == 1


@pytest.mark.parametrize("dim, count", [(2, 144), (3, 2882)])
def test_unimodular_completion_matches_the_row_reduction_reference(dim, count):
    cols = [c for c in itertools.product(range(-7, 8), repeat=dim) if math.gcd(*c) == 1]
    assert len(cols) == count
    for c in cols:
        m = unimodular_with_first_column(c)
        assert m == row_reduction_unimodular_with_first_column(c), c
        assert tuple(row[0] for row in m) == c and int_det(m) == 1


def test_frame_of_the_cone_with_gorenstein_vector_minus_e1():
    # the one completion that ends on the sign step: xi = -e_1 gives diag(-1, 1, -1)
    frame = gorenstein_frame(Cone(3, ((-1, 0, 0), (-1, 1, 0), (-1, 1, 1), (-1, 0, 1))))
    assert frame.xi == (-1, 0, 0)
    assert frame.basis == ((-1, 0, 0), (0, 1, 0), (0, 0, -1))
    assert frame.basis == row_reduction_unimodular_with_first_column(frame.xi)


@pytest.mark.parametrize("xi", [(1,), (1, 0, 0, 0), (0, 0), (2, 4), (True, 1), (1.5, 1), (), "ab"])
def test_unimodular_completion_refuses_as_the_reference_does(xi):
    with pytest.raises(DomainError) as expected:
        row_reduction_unimodular_with_first_column(xi)
    with pytest.raises(DomainError) as got:
        unimodular_with_first_column(xi)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# lattice enumeration


def test_lattice_points_standard_small_ball(std2):
    pts = {tuple(p) for p in lattice_points(std2, 2)}
    assert pts == {(x, y) for x in range(3) for y in range(3)}


def test_lattice_points_interior_excludes_boundary(std2):
    pts = {tuple(p) for p in lattice_points(std2, 2, interior=True)}
    assert pts == {(x, y) for x in range(1, 3) for y in range(1, 3)}


def test_lattice_points_match_membership():
    # the ordered list, not a set: the gamma oracle multiplies in this order
    for name, interior in itertools.product(FIXTURE_NAMES, (False, True)):
        cone = fixture_cone(name)
        radius = 6 if cone.dim == 2 else 4
        pts = lattice_points(cone, radius, interior=interior)
        assert pts.dtype == np.int64
        brute = [
            p
            for p in itertools.product(range(-radius, radius + 1), repeat=cone.dim)
            if contains(cone, p, strict=interior)
        ]
        assert [tuple(int(c) for c in p) for p in pts] == brute, (name, interior)
        assert pts.shape == (len(brute), cone.dim)
        empty = lattice_points(cone, 0, interior=True)
        assert empty.dtype == np.int64 and empty.shape == (0, cone.dim)


def _membership_list(cone, radius, interior):
    return [
        p
        for p in itertools.product(range(-radius, radius + 1), repeat=cone.dim)
        if contains(cone, p, strict=interior)
    ]


@settings(max_examples=150, deadline=None)
@given(cone=planar_cones, radius=st.integers(0, 8), interior=st.booleans())
def test_planar_lattice_points_are_the_ordered_membership_list(cone, radius, interior):
    # every fiber along the last axis is cut by the normals' bounds; random
    # cones reach normals with a zero, positive or negative last coordinate
    pts = lattice_points(cone, radius, interior=interior)
    assert pts.dtype == np.int64 and pts.shape[1:] == (2,)
    assert [tuple(int(c) for c in p) for p in pts] == _membership_list(cone, radius, interior)


@settings(max_examples=60, deadline=None)
@given(cone=polygon_cones(), radius=st.integers(0, 4), interior=st.booleans())
def test_polygon_lattice_points_are_the_ordered_membership_list(cone, radius, interior):
    event(f"{len(cone.normals)} facets")
    pts = lattice_points(cone, radius, interior=interior)
    assert pts.dtype == np.int64 and pts.shape[1:] == (3,)
    assert [tuple(int(c) for c in p) for p in pts] == _membership_list(cone, radius, interior)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_lattice_points_match_the_cube_scan(name):
    # the ordered arrays at the oracles' radii, against the scan of the whole cube
    cone = fixture_cone(name)
    for radius, interior in itertools.product((0, 4, 40 if cone.dim == 3 else 60), (False, True)):
        pts = lattice_points(cone, radius, interior=interior)
        ref = cube_scan_lattice_points(cone, radius, interior=interior)
        assert pts.dtype == ref.dtype and pts.shape == ref.shape and np.array_equal(pts, ref), (radius, interior)


@pytest.mark.parametrize("interior", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize("radius", [2, 5, 40])
@pytest.mark.parametrize("name", STRESS_CONES)
def test_lattice_points_match_the_cube_scan_on_the_stress_cones(name, radius, interior):
    # fibers bounded on both sides, ends that move by a stride longer than a
    # row, and bounds from normal entries near 1e6 and past 2^32
    cone = STRESS_CONES[name]
    pts = lattice_points(cone, radius, interior=interior)
    ref = cube_scan_lattice_points(cone, radius, interior=interior)
    assert len(ref) > 0
    assert pts.dtype == ref.dtype and pts.shape == ref.shape and np.array_equal(pts, ref)


@pytest.mark.parametrize("radius, message", [
    (-1, "radius must be at least 0, got -1"),
    (2.5, "radius must be an integer, got 2.5"),
    (2.0, "radius must be an integer, got 2.0"),
    (True, "radius must be an integer, got True"),
    ("3", "radius must be an integer, got '3'"),
    (2048, "the box at radius 2048 holds 16785409 points, more than 16777216"),
])
def test_lattice_points_refuse_a_radius_that_is_not_a_natural_number(std2, radius, message):
    # -1 returned an empty array, 2.5 raised a raw TypeError and True was taken as 1
    with pytest.raises(DomainError, match=message):
        lattice_points(std2, radius)


@pytest.mark.parametrize("normal", [(2**62 + 1, 2**62), (2**63 + 1, 2**63)])
def test_lattice_points_refuse_normals_whose_pairings_overflow_int64(normal):
    # the first returned points outside the cone, the second raised a raw OverflowError
    with pytest.raises(DomainError, match="overflows int64"):
        lattice_points(Cone(2, (normal, (0, 1))), 3)


@pytest.mark.parametrize("interior", [False, True])
def test_lattice_points_are_right_for_normals_just_inside_the_int64_guard(interior):
    # a fiber's bounds reach about +-2 a R here, so hi - lo would leave int64 unless lo is clipped
    a = 2**61 + 2**59
    cone = Cone(3, ((a, a, 1), (a, a, -1), (-1, 0, 0)))
    pts = lattice_points(cone, 1, interior=interior)
    assert pts.dtype == np.int64 and pts.shape[1:] == (3,)
    assert [tuple(int(c) for c in p) for p in pts] == _membership_list(cone, 1, interior)
    assert np.array_equal(pts, cube_scan_lattice_points(cone, 1, interior=interior))


def test_lattice_points_take_an_integral_numpy_radius(std2):
    assert np.array_equal(lattice_points(std2, np.int64(2)), lattice_points(std2, 2))


# ---------------------------------------------------------------------------
# parallelepiped pieces


def _assert_pieces_partition_the_interior(cone: Cone, radius: int) -> None:
    """Each piece's points q are interior and its rays lie in the cone, so
    q + sum_i n_i v_i is interior; every interior point within ``radius`` is
    one of these for exactly one piece, point and n >= 0.  In integers."""
    interior = lattice_points(cone, radius, interior=True)
    hits = np.zeros(len(interior), dtype=np.int64)
    assert cone.pieces is cone.pieces  # built once, kept on the cone
    for piece in cone.pieces:
        assert all(contains(cone, v) for v in piece.rays)
        assert all(contains(cone, q, strict=True) for q in piece.points)
        # a wall's third basis vector is its normal, so that coordinate must vanish
        basis = piece.rays + ((cross3(*piece.rays),) if len(piece.rays) < cone.dim else ())
        det = int_det(basis)
        index = abs(det) if len(piece.rays) == cone.dim else math.gcd(*basis[-1])
        assert len(set(piece.points)) == len(piece.points) == index
        adj = np.array(_adjugate(basis), dtype=np.int64)
        for q in piece.points:
            num = (interior - np.array(q, dtype=np.int64)) @ adj
            steps = num // det
            whole = (num % det == 0).all(axis=1)
            k = len(piece.rays)
            hits += whole & (steps[:, :k] >= 0).all(axis=1) & (steps[:, k:] == 0).all(axis=1)
    assert (hits == 1).all(), interior[hits != 1][:5]


@settings(max_examples=40, deadline=None)
@given(cone=planar_cones)
def test_planar_pieces_partition_the_interior(cone):
    _assert_pieces_partition_the_interior(cone, 12)


@settings(max_examples=40, deadline=None)
@given(cone=polygon_cones())
def test_polygon_pieces_partition_the_interior(cone):
    _assert_pieces_partition_the_interior(cone, 5)


def _past_every_piece_point(cone: Cone) -> int:
    """A radius of at least 6 that reaches past every piece point, so that
    each point is itself one of the interior points hit-checked."""
    return max(6, 1 + max(abs(c) for piece in cone.pieces for q in piece.points for c in q))


# its piece points reach entries of 11, past radius 6
FOUR_FACETS_3D = ((4, 1, 2), (4, -1, 3), (4, -1, -2), (4, 1, -3))


@pytest.mark.parametrize("cone", [
    *FIXTURE_NAMES,
    STRESS_CONES["two-sided-2d"],  # fibers along the last axis bounded on both sides
    STRESS_CONES["two-sided-3d"],  # the same in 3d
    Cone(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 2))),  # no Gorenstein vector
    Cone(3, ((2, 0, -1), (0, 2, -1), (0, 0, 1))),  # not good
    Cone(3, FOUR_FACETS_3D),  # neither
    STRESS_CONES["stride-105"],  # 225 points in one piece, reaching entries of 10
    STRESS_CONES["lone-bend"],  # two-sided, and not good
], ids=[*FIXTURE_NAMES, "two-sided-2d", "two-sided-3d", "no-gorenstein", "not-good", "four-facets", "stride-105",
        "lone-bend"])
def test_pieces_partition_the_interior_of_any_cone(cone):
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    _assert_pieces_partition_the_interior(cone, _past_every_piece_point(cone))


def test_partition_check_refuses_a_piece_point_moved_by_a_ray(monkeypatch):
    # (11, 4, 0) moved by its piece's first ray v: the piece loses the points
    # (11, 4, 0) + n_2 v_2 + n_3 v_3, none of which lies within radius 6, but
    # four-facets runs at the radius past its piece points
    radius = _past_every_piece_point(Cone(3, FOUR_FACETS_3D))
    pieces = lattice_cones.parallelepiped_pieces

    def moved(cone):
        first, *rest = pieces(cone)
        assert first.points[0] == (11, 4, 0)
        point = tuple(map(sum, zip(first.points[0], first.rays[0])))
        return (lattice_cones.Piece(first.rays, (point, *first.points[1:])), *rest)

    monkeypatch.setattr(lattice_cones, "parallelepiped_pieces", moved)
    with pytest.raises(AssertionError, match=r"\[11, +4, +0\]"):
        _assert_pieces_partition_the_interior(Cone(3, FOUR_FACETS_3D), radius)
