"""Cone-generalized sine and gamma functions: route agreement, degeneration
to the classical functions, face locality, and the verification reports."""
from __future__ import annotations

import asyncio
import cmath
import math
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from unittest import mock

from conesine import (
    DEFAULT_CONFIG,
    BudgetError,
    DomainError,
    EvalConfig,
    FIXTURE_NAMES,
    THEOREM_IDS,
    bernoulli_cone_lifted,
    elliptic_gamma,
    fixture_cone,
    gamma_cone_direct,
    gamma_cone_factorized,
    gamma_cone_lattice_oracle,
    lattice_points,
    multiple_sine,
    sine_cone_decomposed,
    sine_cone_factorized,
    verify_theorem,
)
from conesine import bernoulli, generalized, lattice_cones, qseries
from conesine.generalized import THEOREMS, _sample_gamma_params, _sample_sine_params
from conesine.lattice_cones import Cone, cone_chain_2d

from cone_strategies import planar_cones, polygon_cones
from identities import wedge_product_check
from lattice_reference import cube_scan_gamma_oracle
from params import (
    GAMMA_OMEGAS, OVERFLOWING_PRODUCTS, SINE_OMEGAS, Z_GENERIC, chain_wedges, face_factors, forced_form,
    recorded_products, rel,
)


# ---------------------------------------------------------------------------
# route agreement at frozen parameters


@pytest.mark.parametrize("name", ["standard-2", "wedge21", "wedge53"])
def test_sine_2d_routes_agree(name):
    cone = fixture_cone(name)
    a = sine_cone_decomposed(cone, Z_GENERIC, SINE_OMEGAS[name])
    b = sine_cone_factorized(cone, Z_GENERIC, SINE_OMEGAS[name])
    assert rel(a, b) < 1e-8


@pytest.mark.parametrize("name", ["standard-3", "cone-over-square"])
def test_sine_3d_routes_agree(name):
    cone = fixture_cone(name)
    a = sine_cone_decomposed(cone, Z_GENERIC, SINE_OMEGAS[name])
    b = sine_cone_factorized(cone, Z_GENERIC, SINE_OMEGAS[name])
    assert rel(a, b) < 1e-7


def _factorized_in_form(form: int, cone: Cone, z: complex, omegas: tuple) -> complex | None:
    # the factorized route with form ``form`` tried first, or None where that form refuses and
    # the route takes the other: each form tried builds its prefactor first
    with forced_form(form), mock.patch.object(qseries, "_prefactor", wraps=qseries._prefactor) as prefactors:
        value = sine_cone_factorized(cone, z, omegas)
    return value if prefactors.call_count == 1 else None


def _check_form_2_factorization(cone: Cone, seed: int) -> None:
    # form 2 against form 1 and the decomposed route at the identity's
    # tolerance; a draw the decomposed route or form 2 refuses is redrawn,
    # as verify redraws
    tol = THEOREMS[f"s{cone.dim}c-factorization"].tolerance
    rng = Random(seed)
    for _ in range(10):
        z, omegas = _sample_sine_params(cone, rng)
        try:
            form2 = _factorized_in_form(2, cone, z, omegas)
            want = sine_cone_decomposed(cone, z, omegas)
            if form2 is not None:
                break
        except (DomainError, BudgetError):
            pass
        event("redrawn")
    else:
        pytest.fail(f"no generic sample for {cone.normals}")
    assert rel(form2, want) < tol, (z, omegas)
    try:
        form1 = _factorized_in_form(1, cone, z, omegas)
    except BudgetError:
        form1 = None
    if form1 is None:
        event("form 1 refuses")  # near the unit circle form 1 can overflow or cost far more than form 2
        return
    assert rel(form2, form1) < tol, (z, omegas)
    # the route evaluates one of the two forms
    assert sine_cone_factorized(cone, z, omegas) in (form1, form2)


@settings(max_examples=30, deadline=None)
@given(cone=planar_cones, seed=st.integers(0, 2**32 - 1))
def test_form_2_face_factorization_on_random_2d_cones(cone, seed):
    _check_form_2_factorization(cone, seed)


@settings(max_examples=30, deadline=None)
@given(cone=polygon_cones(), seed=st.integers(0, 2**32 - 1))
def test_form_2_face_factorization_on_polygon_cones(cone, seed):
    event(f"{len(cone.normals)} facets")
    _check_form_2_factorization(cone, seed)


def test_near_circle_polygon_cone_sine_routes_agree():
    # the first sine draw of Random(1) on this polygon cone puts face moduli
    # within 3e-5 of the unit circle: in form 1 the decomposed route refused
    # it in milliseconds and the factorized route after 0.6 s; in the forms
    # each route now picks, both return it
    cone = Cone(3, ((5, 2, -2), (-3, 1, 2), (-1, -2, 1), (3, -1, -1)))
    z, omegas = _sample_sine_params(cone, Random(1))
    start = time.perf_counter()
    a = sine_cone_decomposed(cone, z, omegas)
    b = sine_cone_factorized(cone, z, omegas)
    assert time.perf_counter() - start < 0.5
    assert rel(a, b) < 1e-10


@pytest.mark.parametrize("name", ["standard-2", "wedge21", "wedge53"])
def test_gamma_2d_routes_agree(name):
    cone = fixture_cone(name)
    a = gamma_cone_direct(cone, Z_GENERIC, GAMMA_OMEGAS[name])
    b = gamma_cone_factorized(cone, Z_GENERIC, GAMMA_OMEGAS[name])
    assert rel(a, b) < 1e-8


@pytest.mark.parametrize("name", ["standard-2", "wedge21", "wedge53"])
def test_gamma_2d_alternative_variant_agrees_with_direct_route(name):
    # the alternative variant (lift +1, S^-1, opposite exponent) in 2d, at
    # five seeded samples and the g1c identity tolerance
    cone, rng = fixture_cone(name), Random(17)
    for _ in range(5):
        for _ in range(10):  # redraw a degenerate sample, as verify does
            z, omegas = _sample_gamma_params(cone, rng)
            try:
                a = gamma_cone_direct(cone, z, omegas)
                b = gamma_cone_factorized(cone, z, omegas, variant="alternative")
                break
            except DomainError:
                pass
        else:
            pytest.fail(f"no generic sample for {name}")
        assert rel(a, b) < 1e-8


@pytest.mark.parametrize("name", ["standard-3", "cone-over-square"])
def test_gamma_3d_routes_agree(name):
    cone = fixture_cone(name)
    a = gamma_cone_direct(cone, Z_GENERIC, GAMMA_OMEGAS[name])
    b = gamma_cone_factorized(cone, Z_GENERIC, GAMMA_OMEGAS[name], variant="primary")
    c = gamma_cone_factorized(cone, Z_GENERIC, GAMMA_OMEGAS[name], variant="alternative")
    assert rel(a, b) < 1e-7
    assert rel(b, c) < 1e-7


def test_gamma_3d_variant_is_validated(square):
    with pytest.raises(DomainError, match="unknown variant 'bogus'"):
        gamma_cone_factorized(square, Z_GENERIC, GAMMA_OMEGAS["cone-over-square"], variant="bogus")


# ---------------------------------------------------------------------------
# standard cones reduce to the classical functions


def test_standard_cone_degenerations(std2, std3):
    s2, s3 = SINE_OMEGAS["standard-2"], SINE_OMEGAS["standard-3"]
    g2, g3 = GAMMA_OMEGAS["standard-2"], GAMMA_OMEGAS["standard-3"]
    z = Z_GENERIC
    assert rel(sine_cone_decomposed(std2, z, s2), multiple_sine(z, s2)) < 1e-10
    assert rel(sine_cone_factorized(std2, z, s2), multiple_sine(z, s2)) < 1e-10
    assert rel(sine_cone_decomposed(std3, z, s3), multiple_sine(z, s3)) < 1e-10
    assert rel(sine_cone_factorized(std3, z, s3), multiple_sine(z, s3)) < 1e-10
    assert rel(gamma_cone_direct(std2, z, g2), elliptic_gamma(z, g2)) < 1e-10
    assert rel(gamma_cone_factorized(std2, z, g2), elliptic_gamma(z, g2)) < 1e-10
    assert rel(gamma_cone_direct(std3, z, g3), elliptic_gamma(z, g3)) < 1e-10
    assert rel(
        gamma_cone_factorized(std3, z, g3, variant="primary"), elliptic_gamma(z, g3)
    ) < 1e-10


# ---------------------------------------------------------------------------
# brute-force lattice oracles


def test_gamma_2d_matches_lattice_oracle(w21):
    om = GAMMA_OMEGAS["wedge21"]
    oracle = gamma_cone_lattice_oracle(w21, Z_GENERIC, om, radius=60)
    assert rel(gamma_cone_direct(w21, Z_GENERIC, om), oracle) < 1e-6


def test_gamma_3d_matches_lattice_oracle(square):
    om = GAMMA_OMEGAS["cone-over-square"]
    oracle = gamma_cone_lattice_oracle(square, Z_GENERIC, om, radius=40)
    assert rel(gamma_cone_direct(square, Z_GENERIC, om), oracle) < 1e-5


@pytest.mark.parametrize("z, omegas", [
    # an infinite real part: two "invalid value encountered in matmul" warnings, then DomainError
    (0.31 - 0.17j, (complex(math.inf, -0.6), -0.04 + 0.65j)),
    (complex(math.nan, 0.1), GAMMA_OMEGAS["wedge21"]),
], ids=["inf-period", "nan-z"])
def test_gamma_lattice_oracle_refuses_a_non_finite_input_before_any_warning(w21, z, omegas):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="needs a finite z and finite periods"):
            gamma_cone_lattice_oracle(w21, z, omegas)


def _jittered_points(name: str, seed: int) -> tuple[complex, tuple[complex, ...]]:
    # the oracle benchmark's first-pass point for its seed: z and each period
    # shaken by up to 3% from a stream seeded by the seed, the pass and the case
    rng = Random(f"{seed}/0/gamma/{name}")

    def shake(w: complex) -> complex:
        return w * complex(1 + rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))

    return shake(Z_GENERIC), tuple(shake(w) for w in GAMMA_OMEGAS[name])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_gamma_lattice_oracle_is_the_cube_scan_product(name):
    # the product over the fiber-built points against the whole-cube scan it
    # replaced, at the default radius: same points, same order, same float
    # operations, so the values are ==-identical, not merely close.  Every fixture has a normal
    # with last coordinate 0, the interval rule's special case.
    cone = fixture_cone(name)
    radius = 60 if cone.dim == 2 else 40
    for z, om in [(Z_GENERIC, GAMMA_OMEGAS[name])] + [_jittered_points(name, seed) for seed in range(1, 6)]:
        assert gamma_cone_lattice_oracle(cone, z, om) == cube_scan_gamma_oracle(cone, z, om, radius), (z, om)


@st.composite
def _damped_draws(draw):
    """A random cone, a radius, z and periods whose imaginary parts are a
    positive combination of the normals, strictly inside the dual cone."""
    cone = draw(planar_cones | polygon_cones())
    radius = draw(st.integers(1, 8 if cone.dim == 2 else 5))
    unit = st.floats(-0.6, 0.6)
    weights = [draw(st.floats(0.05, 0.6)) for _ in cone.normals]
    im = [sum(c * v[k] for c, v in zip(weights, cone.normals)) for k in range(cone.dim)]
    om = tuple(complex(draw(unit), y) for y in im)
    return cone, radius, complex(draw(unit), draw(unit)), om


@settings(max_examples=150, deadline=None)
@given(_damped_draws())
# the interior holds the lone point (4, -5), which numpy pairs by a BLAS dot,
# not the summation it uses for two or more points
@example((Cone(2, ((-1, -1), (4, 3))), 5, 0.164 + 0.275j, (0.445 + 0.711j, -0.5 + 0.407j)))
def test_gamma_lattice_oracle_is_the_cube_scan_product_on_random_cones(draw):
    cone, radius, z, om = draw
    try:
        expected = cube_scan_gamma_oracle(cone, z, om, radius)
    except DomainError:
        with pytest.raises(DomainError):
            gamma_cone_lattice_oracle(cone, z, om, radius=radius)
        return
    assert gamma_cone_lattice_oracle(cone, z, om, radius=radius) == expected


def test_lattice_oracle_needs_damped_periods(w21):
    with pytest.raises(DomainError):
        gamma_cone_lattice_oracle(w21, Z_GENERIC, SINE_OMEGAS["wedge21"], radius=10)


@pytest.mark.parametrize("radius, message", [
    (-3, "radius must be at least 1, got -3"),
    (0, "radius must be at least 1, got 0"),
    (2.5, "radius must be an integer, got 2.5"),
    (2.0, "radius must be an integer, got 2.0"),
    (True, "radius must be an integer, got True"),
    (10**6, "the box at radius 1000000 holds 4000004000001 points, more than 16777216"),
    (2048, "the box at radius 2048 holds 16785409 points, more than 16777216"),
])
def test_lattice_oracle_refuses_a_radius_that_is_not_a_positive_integer(std2, radius, message):
    # -3 returned the empty product 1, 0 the origin's factor alone, 2.5
    # raised a raw TypeError and True was taken as 1; 10**6 raised numpy's
    # raw memory error for a 29 TiB array
    with pytest.raises(DomainError, match=message):
        gamma_cone_lattice_oracle(std2, Z_GENERIC, GAMMA_OMEGAS["standard-2"], radius=radius)


def test_lattice_oracle_refuses_a_3d_box_too_large_to_build(std3):
    # 257^3 points at radius 128 exceed MAX_LATTICE_BOX = 2^24; 255^3 at radius 127 do not
    message = "the box at radius 128 holds 16974593 points, more than 16777216"
    with pytest.raises(DomainError, match=message):
        lattice_points(std3, 128)
    with pytest.raises(DomainError, match=message):
        gamma_cone_lattice_oracle(std3, Z_GENERIC, GAMMA_OMEGAS["standard-3"], radius=128)


@pytest.fixture
def point_builds():
    """The oracle's kept point sets emptied, and every lattice_points call
    it makes recorded as (interior, returned array)."""
    generalized._kept_points.cache_clear()
    builds = []

    def build(cone, radius, interior=False):
        points = lattice_points(cone, radius, interior)
        builds.append((interior, points))
        return points

    with mock.patch.object(generalized, "lattice_points", build):
        yield builds
    generalized._kept_points.cache_clear()


def test_lattice_oracle_builds_each_point_set_once_per_cone_and_radius(w21, point_builds):
    om = GAMMA_OMEGAS["wedge21"]
    first = gamma_cone_lattice_oracle(w21, Z_GENERIC, om, radius=9)
    # an equal cone built anew shares the kept sets
    second = gamma_cone_lattice_oracle(Cone(2, w21.normals), 0.2 + 0.1j, om, radius=9)
    assert [interior for interior, _ in point_builds] == [False]
    assert first == cube_scan_gamma_oracle(w21, Z_GENERIC, om, 9)
    assert second == cube_scan_gamma_oracle(w21, 0.2 + 0.1j, om, 9)
    # another radius builds its own set and still gives the cube-scan product
    assert gamma_cone_lattice_oracle(w21, Z_GENERIC, om, radius=11) == cube_scan_gamma_oracle(w21, Z_GENERIC, om, 11)
    assert [interior for interior, _ in point_builds] == [False, False]


@pytest.mark.parametrize("radius, message", [
    (0, "radius must be at least 1, got 0"),
    (True, "radius must be an integer, got True"),
    (2.5, "radius must be an integer, got 2.5"),
])
def test_lattice_oracle_refuses_a_bad_radius_after_a_kept_call(std2, point_builds, radius, message):
    om = GAMMA_OMEGAS["standard-2"]
    gamma_cone_lattice_oracle(std2, Z_GENERIC, om, radius=1)
    with pytest.raises(DomainError, match=message):
        gamma_cone_lattice_oracle(std2, Z_GENERIC, om, radius=radius)
    assert len(point_builds) == 1


def test_lattice_oracle_keeps_its_points_read_only_and_compact(square, point_builds):
    gamma_cone_lattice_oracle(square, Z_GENERIC, GAMMA_OMEGAS["cone-over-square"], radius=40)
    closed, inner = generalized._kept_points(square, 40)
    ((_, built),) = point_builds  # the closed points alone; the mask comes from their pairings
    interior = lattice_points(square, 40, interior=True)
    assert closed.dtype == np.int8 and inner.dtype == bool
    assert np.array_equal(closed, built) and np.array_equal(closed[inner], interior)
    for array, index in ((closed, (0, 0)), (inner, 0)):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[index] = 1


def test_lattice_oracle_keeps_the_five_fixtures_in_under_a_megabyte(point_builds):
    # dim + 1 bytes a closed point: 902,379 bytes (0.86 MiB) at the default
    # radii, where the closed points with a copy of the interior ones took 1,314,444
    kept = [generalized._kept_points(cone, 60 if cone.dim == 2 else 40) for cone in map(fixture_cone, FIXTURE_NAMES)]
    assert sum(array.nbytes for arrays in kept for array in arrays) <= 0.9 * 2**20


def test_a_warm_lattice_oracle_call_works_in_one_block(square):
    # 146,821 closed points at radius 40: arrays the size of the point set
    # peaked at 8.96 MiB, blocks of 8192 points stay near 0.6 MiB
    om = GAMMA_OMEGAS["cone-over-square"]
    gamma_cone_lattice_oracle(square, Z_GENERIC, om, radius=40)
    tracemalloc.start()
    try:
        gamma_cone_lattice_oracle(square, Z_GENERIC, om, radius=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("block", [2, 3, 7])
def test_lattice_oracle_is_the_cube_scan_product_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(generalized, "_LATTICE_BLOCK", block)
    for name in FIXTURE_NAMES:
        cone = fixture_cone(name)
        for radius in range(1, 10):
            for z, om in [(Z_GENERIC, GAMMA_OMEGAS[name]), _jittered_points(name, radius)]:
                expected = cube_scan_gamma_oracle(cone, z, om, radius)
                assert gamma_cone_lattice_oracle(cone, z, om, radius=radius) == expected, (name, radius, z)
    # the lone interior point of the random-cone example, which numpy pairs by a BLAS dot
    cone, z, om = Cone(2, ((-1, -1), (4, 3))), 0.164 + 0.275j, (0.445 + 0.711j, -0.5 + 0.407j)
    assert gamma_cone_lattice_oracle(cone, z, om, radius=5) == cube_scan_gamma_oracle(cone, z, om, 5)


@pytest.mark.parametrize("block", [2, 3, 7])
def test_lattice_oracle_never_pairs_a_last_block_of_one_row_alone(monkeypatch, block):
    # wedge53 holds 43 closed points at radius 5, one past a multiple of each
    # block size, so the last block takes the last row; paired alone, by the
    # one-row dot, its last point (3, 5) changes the product at these points
    cone = fixture_cone("wedge53")
    assert len(lattice_points(cone, 5)) % block == 1
    monkeypatch.setattr(generalized, "_LATTICE_BLOCK", block)
    for z, om in [(Z_GENERIC, GAMMA_OMEGAS["wedge53"])] + [_jittered_points("wedge53", seed) for seed in range(5)]:
        assert gamma_cone_lattice_oracle(cone, z, om, radius=5) == cube_scan_gamma_oracle(cone, z, om, 5), (z, om)


def test_threads_share_the_kept_point_sets(point_builds):
    # ten (cone, radius) pairs, more than the 8 kept, twice over from more
    # threads than cores: every value is the cube-scan product however
    # entries are evicted, and every pair's closed points were built
    jobs = [(name, radius) for name in FIXTURE_NAMES for radius in (2, 3)]
    expected = [cube_scan_gamma_oracle(fixture_cone(n), Z_GENERIC, GAMMA_OMEGAS[n], r) for n, r in jobs]
    results = [None] * 4

    def work(k):
        order = [(i + k) % len(jobs) for i in range(2 * len(jobs))]
        results[k] = [(i, gamma_cone_lattice_oracle(fixture_cone(jobs[i][0]), Z_GENERIC, GAMMA_OMEGAS[jobs[i][0]],
                                                    radius=jobs[i][1])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(value == expected[i] for values in results for i, value in values)
    assert sum(len(values) for values in results) == 4 * 2 * len(jobs)
    assert len(point_builds) >= len(jobs)


def test_lattice_oracle_is_unchanged_by_writes_into_built_points(std3, point_builds):
    om = GAMMA_OMEGAS["standard-3"]
    before = gamma_cone_lattice_oracle(std3, Z_GENERIC, om, radius=6)
    for _, built in point_builds:
        assert built.dtype == np.int64 and built.flags.writeable
        built += 1
    fresh = lattice_points(std3, 6)
    fresh[:] = 0
    assert gamma_cone_lattice_oracle(std3, Z_GENERIC, om, radius=6) == before
    assert before == cube_scan_gamma_oracle(std3, Z_GENERIC, om, 6)


@pytest.mark.parametrize("z", [0.3 - 40j, 0.3 + 40j])
def test_lattice_oracle_refuses_a_product_that_is_not_finite(std2, z):
    # e^{2 pi i z} overflows at |Im z| = 40: refused, never nan, and no
    # numpy RuntimeWarning escapes (pytest turns one into an error)
    with pytest.raises(DomainError, match="lattice product is not finite"):
        gamma_cone_lattice_oracle(std2, z, GAMMA_OMEGAS["standard-2"])


# ---------------------------------------------------------------------------
# face factors: one per codimension-1 face, local to the face


def test_face_factor_counts(square, w21, std3):
    om3, om2 = SINE_OMEGAS["cone-over-square"], SINE_OMEGAS["wedge21"]
    assert len(face_factors(square, Z_GENERIC, om3)) == 4
    assert len(face_factors(std3, Z_GENERIC, SINE_OMEGAS["standard-3"])) == 3
    assert len(face_factors(w21, Z_GENERIC, om2)) == 2
    gsq = GAMMA_OMEGAS["cone-over-square"]
    assert len(face_factors(square, Z_GENERIC, gsq, "primary")) == 4


def test_face_factors_are_local_to_each_face(square):
    # relisting the facet normals in a rotated order must reproduce the same
    # factor for each edge, matched by id
    om = SINE_OMEGAS["cone-over-square"]
    rotated = Cone(3, square.normals[1:] + square.normals[:1])
    base = dict(face_factors(square, Z_GENERIC, om))
    moved = dict(face_factors(rotated, Z_GENERIC, om))
    assert set(base) == set(moved)
    for fid, val in base.items():
        assert moved[fid] == val


def test_face_factor_ids_name_the_edge_rays(w21):
    ids = {face_id for face_id, _ in face_factors(w21, Z_GENERIC, SINE_OMEGAS["wedge21"])}
    assert ids == {"edge(-1,0)", "edge(1,2)"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_face_factors_are_the_factorized_routes_factors(name):
    # each factorized route's value is its recorded Bernoulli exponential times its recorded
    # factors, one per face, multiplied in order; face_factors lists those factors by face id
    cone = fixture_cone(name)
    z, ids = Z_GENERIC, [ft.face_id for ft in cone.face_transforms]
    for variant, om in ((None, SINE_OMEGAS[name]), ("primary", GAMMA_OMEGAS[name]), ("alternative", GAMMA_OMEGAS[name])):
        with recorded_products() as products:
            if variant is None:
                value = sine_cone_factorized(cone, z, om)
            else:
                value = gamma_cone_factorized(cone, z, om, variant=variant)
        [(exponent, factors)] = products
        assert len(factors) == len(ids)
        assert math.prod([qseries._prefactor(*exponent), *factors]) == value
        assert face_factors(cone, z, om, variant) == list(zip(ids, factors))


@pytest.mark.parametrize("omegas", [(0, 1 + 0.3j), (0, -0.04 + 0.65j)], ids=["sine", "gamma-alternative"])
def test_vanishing_face_scale_is_rejected(w21, omegas):
    # the edge ray (-1, 0) pairs to 0 with a first period of 0: the face walk that both
    # factorized routes read refuses it (the routes refuse such periods before their walk)
    with pytest.raises(DomainError, match=r"^face edge\(-1,0\): transformed scale vanishes$"):
        list(w21.faces(0.3, omegas))


# ---------------------------------------------------------------------------
# subdivision independence of the 2d chains


def _refined_chain(cone: Cone) -> list[tuple[int, int]]:
    lines = list(cone_chain_2d(cone).lines)
    k = len(lines) // 2
    extra = tuple(a + b for a, b in zip(lines[k - 1], lines[k]))
    return lines[:k] + [extra] + lines[k:]


def _chain_product(fn, lines, z, omegas) -> complex:
    total = 1.0 + 0j
    for arg, periods in chain_wedges(lines, z, omegas):
        total *= fn(arg, periods)
    return total


ROUTE_FUNCTIONS = {
    ("s2c", "decomposed"): sine_cone_decomposed,
    ("s2c", "factorized"): sine_cone_factorized,
    ("s3c", "decomposed"): sine_cone_decomposed,
    ("s3c", "factorized"): sine_cone_factorized,
    ("g1c", "direct"): gamma_cone_direct,
    ("g1c", "factorized"): gamma_cone_factorized,
    ("g2c", "direct"): gamma_cone_direct,
    ("g2c", "factorized"): gamma_cone_factorized,
}


@pytest.mark.parametrize("target, name, route, z, omegas", OVERFLOWING_PRODUCTS)
def test_overflowing_cone_product_is_domain_error(target, name, route, z, omegas):
    # every factor is finite, their product is not: refused, never nan or inf
    product = "face" if route == "factorized" else "wedge"
    with pytest.raises(DomainError, match=f"the {product} product is not finite"):
        ROUTE_FUNCTIONS[target, route](fixture_cone(name), z, omegas)


def test_face_product_that_underflows_midway_is_domain_error():
    # the primary face factors here are about 1e-306, 1e-38, 1e43 and 1e298:
    # multiplied left to right the partial product underflowed to 0, and the
    # factorized route returned 0 where the direct route and the alternative
    # variant give 1.058+0.029i (a cone over a lattice polygon, in a random basis)
    cone = Cone(3, ((2, -1, 2), (-2, -3, 5), (-2, -1, 2), (-1, 3, -4)))
    z = 0.5736447583555362 + 0.4345069284338878j
    omegas = (0.25580420415722394 - 1.429235636630282j, 0.11836899667533163 - 1.5384129061807608j,
              -0.24949365863755946 + 3.206272793622946j)
    with pytest.raises(DomainError, match="the face product underflows"):
        gamma_cone_factorized(cone, z, omegas)
    alternative = gamma_cone_factorized(cone, z, omegas, variant="alternative")
    assert rel(alternative, gamma_cone_direct(cone, z, omegas)) < 1e-7


@pytest.mark.parametrize("route", [sine_cone_decomposed, sine_cone_factorized])
def test_sine_prefactor_that_underflows_is_domain_error(route):
    # far below the real axis form 1's faces overflow, so the factorized route
    # takes form 2, whose e^{-(-1)^r pi i B^C_{3,3} / 3!} underflows to exactly
    # 0: it returned -0+0j where the decomposed route refused
    with pytest.raises(DomainError, match=r"prefactor .* underflows at B_rr"):
        route(fixture_cone("standard-3"), 0.3 - 200j, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j))


def _face_modularity_lhs(cone, z, omegas):
    return THEOREMS["face-modularity"].lhs(cone, z, omegas, DEFAULT_CONFIG)


@pytest.mark.parametrize("route, name, z, omegas", [
    # e^{2 pi i B^lift / 3!} underflowed to exactly 0 and the face product
    # passed the zero factor: `eval g1c --route factorized` printed 0.0+0.0i
    # where `--route direct` refused ("the wedge product underflows")
    (gamma_cone_factorized, "wedge21", 0.1 - 5j, (0.09 - 0.6j, -0.04 + 0.65j)),
    # the face-modularity lhs e^{-pi i B^C_{3,3} / 3} returned 2.75e-310 and -0-0j
    (_face_modularity_lhs, "cone-over-square", 0.31 - 4j, (0.06 + 0.95j, -0.04 - 0.28j, 0.05 - 0.33j)),
    (_face_modularity_lhs, "cone-over-square", 0.31 - 5j, (0.06 + 0.95j, -0.04 - 0.28j, 0.05 - 0.33j)),
], ids=["g1c-factorized", "face-modularity-subnormal", "face-modularity-zero"])
def test_bernoulli_prefactor_that_underflows_is_domain_error(route, name, z, omegas):
    # every Bernoulli exponential is built by one guarded function, which
    # refuses a value below the normal double range as the sine prefactor does
    with pytest.raises(DomainError, match=r"prefactor .* underflows at B_rr"):
        route(fixture_cone(name), z, omegas)


def test_gamma_prefactor_refusal_comes_before_any_face_factor():
    # the route's product evaluates its Bernoulli exponential before any factor: where both
    # refuse, the exponential's refusal is the one raised
    def refused(*args):
        raise DomainError("a face factor refuses")

    with mock.patch.object(generalized, "elliptic_gamma", refused):
        with pytest.raises(DomainError, match=r"prefactor .* underflows at B_rr"):
            gamma_cone_factorized(fixture_cone("wedge21"), 0.1 - 5j, (0.09 - 0.6j, -0.04 + 0.65j))
        # a route whose exponential is finite reaches its factors
        with pytest.raises(DomainError, match="a face factor refuses"):
            gamma_cone_factorized(fixture_cone("wedge21"), Z_GENERIC, GAMMA_OMEGAS["wedge21"])


def test_sine_form_is_chosen_in_qseries_for_both_sine_factorizations():
    # one boundary factorization in qseries chooses the form for the multiple
    # sine and the factorized cone sine: a form choice copied elsewhere would
    # not call qseries._cheaper_form
    with mock.patch.object(qseries, "_cheaper_form", wraps=qseries._cheaper_form) as spy:
        multiple_sine(Z_GENERIC, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j))
        assert spy.call_count == 1
        sine_cone_factorized(fixture_cone("wedge21"), Z_GENERIC, SINE_OMEGAS["wedge21"])
        assert spy.call_count == 2
        sine_cone_factorized(fixture_cone("cone-over-square"), Z_GENERIC, SINE_OMEGAS["cone-over-square"])
        assert spy.call_count == 3
        # the face factors are those of the form the route tries first
        face_factors(fixture_cone("cone-over-square"), Z_GENERIC, SINE_OMEGAS["cone-over-square"])
        assert spy.call_count == 4
    assert "_cheaper_form" not in vars(generalized)


def test_reduced_face_product_that_underflows_midway_is_refused_and_redrawn():
    # the fourth sample of this face-modularity check had its reduced face
    # product underflow to -0j, a FAIL with residual 1 (a fresh-cones cone);
    # refused, the sample is drawn again and the identity holds
    cone = Cone(3, ((1, 2, 0), (0, 1, -1), (0, 0, -1), (1, 1, 0)))
    z = 0.5557464031699264 + 0.37149272346573764j
    omegas = (0.1696048665060219 + 0.575481873359113j, 0.4221363923909809 + 1.4618183956354032j,
              -0.21524191508476997 - 0.862429474899906j)
    with pytest.raises(DomainError, match="the face product underflows"):
        THEOREMS["face-modularity"].rhs(cone, z, omegas, DEFAULT_CONFIG)
    assert verify_theorem("face-modularity", cone, samples=5, seed=100065).status == "PASS"


@pytest.mark.parametrize("name", ["wedge21", "wedge53"])
def test_sine_2d_chain_refinement_invariance(name):
    cone = fixture_cone(name)
    om = SINE_OMEGAS[name]
    # the helper walks the default chain exactly as the cone plan does
    assert chain_wedges(cone_chain_2d(cone).lines, Z_GENERIC, om) == cone.wedges(Z_GENERIC, om)[1]
    a = sine_cone_decomposed(cone, Z_GENERIC, om)
    b = _chain_product(multiple_sine, _refined_chain(cone), Z_GENERIC, om)
    assert rel(a, b) < 1e-10


@pytest.mark.parametrize("name", ["wedge21", "wedge53"])
def test_gamma_2d_chain_refinement_invariance(name):
    cone = fixture_cone(name)
    om = GAMMA_OMEGAS[name]
    a = gamma_cone_direct(cone, Z_GENERIC, om)
    b = _chain_product(elliptic_gamma, _refined_chain(cone), Z_GENERIC, om)
    assert rel(a, b) < 1e-10


# ---------------------------------------------------------------------------
# rescaling covariance


def test_sine_2d_rescaling_invariance(w21):
    om = SINE_OMEGAS["wedge21"]
    c = 1.3 - 0.4j
    a = sine_cone_factorized(w21, c * Z_GENERIC, tuple(c * w for w in om))
    assert rel(a, sine_cone_factorized(w21, Z_GENERIC, om)) < 1e-9


def test_sine_3d_rescaling_invariance(square):
    om = SINE_OMEGAS["cone-over-square"]
    c = 0.8 + 0.3j
    a = sine_cone_factorized(square, c * Z_GENERIC, tuple(c * w for w in om))
    assert rel(a, sine_cone_factorized(square, Z_GENERIC, om)) < 1e-9


# ---------------------------------------------------------------------------
# zeros and poles sit on the lattice pairings
#
# ratio scaling: for f with a simple zero at z*, |f(z*+e)/f(z*+10e)| ~ 0.1;
# a simple pole gives ~10; a regular nonvanishing point gives ~1.

_EPS = 1e-6 * cmath.exp(0.37j)


def _scaling_ratio(f, zstar):
    return abs(f(zstar + _EPS) / f(zstar + 10 * _EPS))


def test_classical_double_sine_zero_and_pole_lattice():
    om = (1.0 + 0.21j, 0.83 - 0.17j)
    f = lambda z: multiple_sine(z, om)
    assert _scaling_ratio(f, 0.0) < 0.5  # zero at the origin
    assert _scaling_ratio(f, -om[0]) < 0.5  # zero along -N.omega
    assert _scaling_ratio(f, om[0] + om[1]) > 2  # pole at interior pairings
    assert 0.5 < _scaling_ratio(f, om[0]) < 2  # boundary point of the pole family


def test_sine_cone_2d_zero_and_pole_lattice(w21):
    om = (-0.8 + 0.05j, 1.1 - 0.07j)  # real parts inside the dual wedge
    f = lambda z: sine_cone_factorized(w21, z, om)
    # zeros at -m.omega for lattice m in the closed cone
    assert _scaling_ratio(f, 0.0) < 0.5
    assert _scaling_ratio(f, -om[1]) < 0.5  # m=(0,1)
    assert _scaling_ratio(f, -(om[0] + 2 * om[1])) < 0.5  # m=(1,2), on a face
    # poles at +n.omega for lattice n in the open cone
    assert _scaling_ratio(f, om[1]) > 2  # n=(0,1)
    assert _scaling_ratio(f, -om[0] + om[1]) > 2  # n=(-1,1)
    # m=(1,0) lies outside the cone: regular point
    assert 0.5 < _scaling_ratio(f, -om[0]) < 2


def test_sine_cone_3d_zero_lattice_both_families(square):
    # odd period count: both lattice families give zeros
    om = SINE_OMEGAS["cone-over-square"]
    f = lambda z: sine_cone_factorized(square, z, om)
    assert _scaling_ratio(f, 0.0) < 0.5
    assert _scaling_ratio(f, -(om[0] + om[1])) < 0.5  # m=(1,1,0) on a face
    assert _scaling_ratio(f, om[0]) < 0.5  # n=(1,0,0) interior
    assert _scaling_ratio(f, 2 * om[0] + om[1]) < 0.5  # n=(2,1,0) interior


# ---------------------------------------------------------------------------
# telescoping wedge chains


WEDGE_OMEGAS = (0.8 + 0.31j, 0.9 - 0.22j)


def test_open_wedge_chain_telescopes():
    assert wedge_product_check([(0, 1), (-1, 1), (-1, 0)], Z_GENERIC, WEDGE_OMEGAS) < 1e-10


def test_closed_wedge_chain_gives_binomial():
    res = wedge_product_check([(0, 1), (-1, 0), (1, -1)], Z_GENERIC, WEDGE_OMEGAS, closed=True)
    assert res < 1e-10


def test_closed_wedge_chain_refined_hexagon():
    chain = [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)]
    assert wedge_product_check(chain, Z_GENERIC, WEDGE_OMEGAS, closed=True) < 1e-10


def test_wedge_chain_requires_unit_determinants():
    with pytest.raises(DomainError):
        wedge_product_check([(0, 1), (-2, 1)], Z_GENERIC, WEDGE_OMEGAS)


# ---------------------------------------------------------------------------
# face and parameter modularity of the 3d gamma


def _face_modularity_residual(cone, z, omegas):
    thm = THEOREMS["face-modularity"]
    return rel(thm.lhs(cone, z, omegas, DEFAULT_CONFIG), thm.rhs(cone, z, omegas, DEFAULT_CONFIG))


def test_face_modularity_passes_on_fixtures(std3, square):
    for cone in (std3, square):
        name = "standard-3" if cone is std3 else "cone-over-square"
        assert _face_modularity_residual(cone, Z_GENERIC, GAMMA_OMEGAS[name]) < 1e-7


def test_face_modularity_unit_shift_invariance(square):
    # both members of a z, z+1 pair satisfy the identity
    om = GAMMA_OMEGAS["cone-over-square"]
    z1 = -0.69 + 0.12j
    for z in (z1, z1 + 1):
        assert _face_modularity_residual(square, z, om) < 1e-7


SQUARE_OVERFLOWS = [case[3:] for case in OVERFLOWING_PRODUCTS if case[1] == "cone-over-square"]


@pytest.mark.parametrize(
    "z, omegas, size, gap",
    [(*SQUARE_OVERFLOWS[0], "4.02608e+06", "0.222583"), (*SQUARE_OVERFLOWS[1], "1.06998e+06", "0.0704495")],
    ids=["g2c-point", "s3c-point"],
)
def test_face_modularity_overflow_names_size_and_gap(square, z, omegas, size, gap):
    # a face q-factorial overflows at a large |x| while every |q| stays well
    # off the unit circle: the message gives both figures and claims no cause
    with pytest.raises(DomainError) as err:
        THEOREMS["face-modularity"].rhs(square, z, omegas, DEFAULT_CONFIG)
    message = str(err.value)
    assert f"is not finite at |x| = {size} with min |1 - |q|| = {gap}: the product overflows" in message
    assert "unit circle" not in message


# ---------------------------------------------------------------------------
# verification driver


def test_theorem_catalog_is_sorted_and_complete():
    assert THEOREM_IDS == (
        "face-modularity",
        "g1c-factorization",
        "g2c-alternative",
        "g2c-factorization",
        "s2c-factorization",
        "s3c-factorization",
    )
    assert list(THEOREM_IDS) == sorted(THEOREM_IDS)


@pytest.mark.parametrize(
    "tid,conename",
    [
        ("s2c-factorization", "wedge21"),
        ("g1c-factorization", "wedge53"),
        ("s3c-factorization", "cone-over-square"),
        ("g2c-factorization", "cone-over-square"),
        ("g2c-alternative", "cone-over-square"),
        ("face-modularity", "cone-over-square"),
    ],
)
def test_verify_theorem_passes_on_matching_cone(tid, conename):
    rep = verify_theorem(tid, fixture_cone(conename), samples=3, seed=7)
    assert rep.status == "PASS"
    assert rep.passed and not rep.skipped
    assert len(rep.points) == 3
    assert rep.max_residual == max(rep.residuals)
    assert rep.max_residual < rep.tolerance


def test_verify_theorem_skips_on_wrong_dimension(w21, square):
    assert verify_theorem("s3c-factorization", w21, samples=2, seed=1).status == "SKIP"
    assert verify_theorem("s2c-factorization", square, samples=2, seed=1).status == "SKIP"


def test_verify_theorem_skips_without_distinguished_lattice_vector():
    # a good 3d cone with no dual vector pairing to 1 on every edge generator
    cone = Cone(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 2)))
    rep = verify_theorem("g2c-factorization", cone, samples=2, seed=1)
    assert rep.status == "SKIP"
    assert rep.skipped and not rep.passed


def test_verify_theorem_skips_on_cone_that_is_not_good():
    # a Gorenstein vector (1, 1, 1) exists, but the edge lattices of the
    # first pair are not saturated: the good-cone hypothesis gates the frame
    cone = Cone(3, ((2, 0, -1), (0, 2, -1), (0, 0, 1)))
    ids_3d = [tid for tid in THEOREM_IDS if THEOREMS[tid].dim == 3]
    assert len(ids_3d) == 4
    for tid in ids_3d:
        rep = verify_theorem(tid, cone, samples=2, seed=1)
        assert rep.status == "SKIP"
        assert rep.skipped == "cone is not good: some edge lattice is not saturated"


def test_verify_theorem_rejects_unknown_id(w21):
    with pytest.raises(DomainError):
        verify_theorem("definitely-not-a-theorem", w21)


def test_verify_theorem_rejects_empty_sample_request(w21):
    with pytest.raises(DomainError):
        verify_theorem("s2c-factorization", w21, samples=0)


@pytest.mark.parametrize("samples", [2.0, 2.5, True])
def test_verify_theorem_refuses_a_sample_count_that_is_not_an_integer(std2, samples):
    # True ran one sample
    with pytest.raises(DomainError, match="sample count must be an integer"):
        verify_theorem("s2c-factorization", std2, samples=samples)


@pytest.mark.parametrize("seed", [None, True, False, 1.5, 2.0, "3", [1]])
def test_verify_theorem_refuses_a_seed_that_is_not_an_integer(w21, seed):
    # None drew from OS entropy yet recorded null, [1] escaped as a TypeError and True ran seed 1
    with pytest.raises(DomainError, match="the seed must be an integer"):
        verify_theorem("s2c-factorization", w21, samples=1, seed=seed)


@pytest.mark.parametrize("seed", [-3, 2**100])
def test_verify_theorem_takes_negative_and_large_seeds(fresh_store, w21, seed):
    a = verify_theorem("s2c-factorization", w21, samples=2, seed=seed)
    generalized._shared.set((None, None))
    b = verify_theorem("s2c-factorization", w21, samples=2, seed=seed)
    assert a.seed == seed and a.to_json_dict() == b.to_json_dict()


def test_verify_theorem_records_an_integral_seed_as_an_int(w21):
    import numpy as np

    report = verify_theorem("s2c-factorization", w21, samples=1, seed=np.int64(3))
    assert type(report.seed) is int
    assert report.to_json_dict() == verify_theorem("s2c-factorization", w21, samples=1, seed=3).to_json_dict()


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0, True, "1e-8"])
def test_verify_theorem_refuses_a_tolerance_that_is_not_a_finite_positive_real(w21, tolerance):
    # nan failed every identity and inf passed every one; True was recorded as 1.0
    with pytest.raises(DomainError, match="the tolerance must be a finite positive number"):
        verify_theorem("s2c-factorization", w21, samples=1, tolerance=tolerance)


# cones whose integers a double does not hold exactly: 10**400 overflowed in
# int-to-float conversion, and an entry of 2**53 or more rounds
HUGE_CONES = {
    "2d-past-double-range": Cone(2, ((10**400, 1), (0, 1))),
    "2d-at-2-to-the-53": Cone(2, ((2**53, 1), (0, 1))),
    "3d-unimodular": Cone(3, ((1, 10**400, 0), (0, 1, 0), (0, 0, 1))),
    "3d-edge-ray": Cone(3, ((1, 0, 0), (0, 2**27, 1), (2**27, 1, 1))),
}

CONE_FUNCTIONS = {
    "sine_cone_decomposed": sine_cone_decomposed,
    "sine_cone_factorized": sine_cone_factorized,
    "gamma_cone_direct": gamma_cone_direct,
    "gamma_cone_factorized": gamma_cone_factorized,
    "bernoulli_cone": lambda cone, z, omegas: bernoulli.bernoulli_cone(cone, z, omegas, cone.dim),
    "bernoulli_cone_lifted": lambda cone, z, omegas: bernoulli_cone_lifted(cone, z, omegas, 1.0),
    "bernoulli_cone_oracle": lambda cone, z, omegas: bernoulli.bernoulli_cone_oracle(cone, z, omegas, cone.dim),
    "gamma_cone_lattice_oracle": gamma_cone_lattice_oracle,
}


@pytest.mark.parametrize("fn", CONE_FUNCTIONS.values(), ids=CONE_FUNCTIONS)
@pytest.mark.parametrize("cone", HUGE_CONES.values(), ids=HUGE_CONES)
def test_cone_functions_refuse_integers_a_double_does_not_hold(cone, fn):
    # 10**400 raised OverflowError: int too large to convert to float
    omegas = (1 + 0.1j, 0.5 + 0.3j, 0.2 + 0.4j)[: cone.dim]
    with pytest.raises(DomainError, match=r"entry of magnitude 2\*\*53 or more"):
        fn(cone, 0.3 + 0.1j, omegas)


@pytest.mark.parametrize("name", ["2d-past-double-range", "2d-at-2-to-the-53", "3d-unimodular"])
def test_verify_theorem_refuses_integers_a_double_does_not_hold(name):
    # the sampler pairs the normals with doubles: 10**400 raised OverflowError
    cone = HUGE_CONES[name]
    for tid in THEOREM_IDS:
        if THEOREMS[tid].dim == cone.dim:
            with pytest.raises(DomainError, match=r"entry of magnitude 2\*\*53 or more"):
                verify_theorem(tid, cone, samples=1)


def test_sine_fallback_keeps_the_first_refusal_over_a_budget_error():
    # the first form refuses near the unit circle; the other overran max_terms,
    # and its BudgetError replaced the refusal, which verify_theorem redraws on
    z = 0.11595957121577838 - 8.366145405965092j
    omegas = (-1.5868093054252816 - 0.0003481147530394282j, 1.8202391293764213 + 0.0003977921039356357j)
    cone = fixture_cone("wedge53")
    with pytest.raises(DomainError, match=r"^\|q\| = 1\.0000008109415959 is within 1e-06 of the unit circle"):
        sine_cone_factorized(cone, z, omegas)
    other = 3 - qseries._cheaper_form([(u, scaled[1:]) for _, u, scaled in cone.faces(z, omegas)])
    with forced_form(other), pytest.raises(BudgetError):
        sine_cone_factorized(cone, z, omegas)


def test_verify_theorem_fails_at_impossible_tolerance(w21):
    rep = verify_theorem("s2c-factorization", w21, samples=2, seed=3, tolerance=1e-300)
    assert rep.status == "FAIL"
    assert not rep.passed and not rep.skipped


def test_cone_geometry_is_built_once_per_cone(monkeypatch):
    builds = Counter()
    for name in ("gorenstein_frame", "face_matrices", "cone_chain_2d"):
        original = getattr(lattice_cones, name)

        def counted(cone, *args, _name=name, _original=original, **kwargs):
            builds[_name, id(cone)] += 1
            return _original(cone, *args, **kwargs)

        # rebind every import site, so that no caller escapes the count
        for modname, module in list(sys.modules.items()):
            if modname.startswith("conesine") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # fresh instances: fixture_cone keeps one cone per name, with its geometry built
    cones = [Cone(c.dim, c.normals) for c in map(fixture_cone, FIXTURE_NAMES)]
    for cone in cones:
        for tid in THEOREM_IDS:
            verify_theorem(tid, cone, samples=5, seed=0)
    assert builds and max(builds.values()) == 1

    scans = []
    original_scan = bernoulli._exists_damping_phase
    monkeypatch.setattr(
        bernoulli, "_exists_damping_phase", lambda *args: scans.append(args) or original_scan(*args)
    )
    for name in ("wedge21", "cone-over-square"):
        scans.clear()
        bernoulli_cone_lifted(fixture_cone(name), Z_GENERIC, GAMMA_OMEGAS[name], -1.0)
        assert len(scans) == 1


def test_verify_theorem_is_deterministic(fresh_store, square):
    a = verify_theorem("g2c-factorization", square, samples=3, seed=42)
    # a new store, so that the second call evaluates every side again
    generalized._shared.set((None, None))
    b = verify_theorem("g2c-factorization", square, samples=3, seed=42)
    assert a.to_json_dict() == b.to_json_dict()
    c = verify_theorem("g2c-factorization", square, samples=3, seed=43)
    assert c.points != a.points


def _reports(cone, theorem_ids, samples, seed, fresh_store):
    """Each identity's JSON report (or refusal), with a new side-value store
    before each identity when ``fresh_store``."""
    out = {}
    for tid in theorem_ids:
        if fresh_store:
            generalized._shared.set((None, None))
        try:
            out[tid] = verify_theorem(tid, cone, samples=samples, seed=seed).to_json_dict()
        except DomainError as exc:
            out[tid] = str(exc)
    return out


def _check_shared_side_values_change_no_report(cone, samples, seed):
    alone = _reports(cone, THEOREM_IDS, samples, seed, fresh_store=True)
    for order in (THEOREM_IDS, THEOREM_IDS[::-1]):
        generalized._shared.set((None, None))
        assert _reports(cone, order, samples, seed, fresh_store=False) == alone


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shared_side_values_change_no_report(fresh_store, name):
    _check_shared_side_values_change_no_report(fixture_cone(name), samples=4, seed=11)


@settings(max_examples=10, deadline=None)
@given(cone=polygon_cones(), seed=st.integers(0, 2**32 - 1))
def test_shared_side_values_change_no_report_on_polygon_cones(cone, seed):
    _check_shared_side_values_change_no_report(cone, samples=2, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    cone=st.one_of(planar_cones, polygon_cones(), st.sampled_from(FIXTURE_NAMES).map(fixture_cone)),
    sampler=st.sampled_from([_sample_sine_params, _sample_gamma_params]),
    seed=st.integers(0, 2**32 - 1),
)
def test_samplers_draw_no_negative_zero(cone, sampler, seed):
    # the store keys points with ==, which does not tell 0.0 from -0.0
    rng = Random(seed)
    for _ in range(3):
        z, omegas = sampler(cone, rng)
        parts = [part for w in (z, *omegas) for part in (w.real, w.imag)]
        assert not any(part == 0 and math.copysign(1.0, part) < 0 for part in parts)


def test_side_values_are_dropped_for_the_next_cone(square, std3):
    first = verify_theorem("g2c-factorization", square, samples=5, seed=0)
    verify_theorem("g2c-factorization", std3, samples=5, seed=0)
    context, draws = generalized._shared.get()
    assert context[0] == std3
    stored_points = {(z, omegas) for side, z, omegas in draws if side in generalized.CONE_ROUTES}
    assert stored_points and not stored_points & set(first.points)


def test_threads_keep_their_own_side_values(square):
    # the two g2c identities share the primary factorized gamma; run at once
    # on the same cone and seed under configs whose values differ, each
    # thread must get the report it gets alone
    loose = EvalConfig(tail_tol=1e-6)
    jobs = [("g2c-factorization", DEFAULT_CONFIG), ("g2c-alternative", loose)] * 2
    alone = [verify_theorem(tid, square, samples=8, seed=5, cfg=cfg).to_json_dict() for tid, cfg in jobs]
    assert alone[0]["rhs"] != alone[1]["lhs"]
    results = [None] * len(jobs)

    def work(k):
        results[k] = verify_theorem(jobs[k][0], square, samples=8, seed=5, cfg=jobs[k][1]).to_json_dict()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == alone


def test_asyncio_tasks_keep_their_own_side_values(monkeypatch, fresh_store, square):
    # two tasks on one thread, each verifying both g2c identities under its own config: a store
    # held per thread was dropped by the other task between the calls, so each task evaluated the
    # primary factorized gamma twice per point
    calls = Counter()

    def counted(cone, z, omegas, cfg, **kwargs):
        calls[cfg, z, omegas] += 1
        return gamma_cone_factorized(cone, z, omegas, cfg, **kwargs)

    monkeypatch.setitem(THEOREMS, "g2c-factorization", replace(THEOREMS["g2c-factorization"], rhs=counted))
    monkeypatch.setitem(THEOREMS, "g2c-alternative", replace(THEOREMS["g2c-alternative"], lhs=counted))
    configs = (DEFAULT_CONFIG, EvalConfig(tail_tol=1e-6))
    tids = ("g2c-factorization", "g2c-alternative")
    alone = [[verify_theorem(tid, square, samples=4, seed=5, cfg=cfg).to_json_dict() for tid in tids] for cfg in configs]
    assert alone[0] != alone[1]

    async def task(cfg):
        reports = []
        for tid in tids:
            reports.append(verify_theorem(tid, square, samples=4, seed=5, cfg=cfg).to_json_dict())
            await asyncio.sleep(0)
        return reports

    async def both():
        return await asyncio.gather(*map(task, configs))

    generalized._shared.set((None, None))
    calls.clear()
    assert asyncio.run(both()) == alone
    assert {cfg for cfg, *_ in calls} == set(configs) and set(calls.values()) == {1}


def test_primary_factorized_gamma_is_evaluated_once_per_point(monkeypatch, fresh_store, square):
    calls = Counter()

    def counted(cone, z, omegas, cfg, **kwargs):
        calls[z, omegas] += 1
        return gamma_cone_factorized(cone, z, omegas, cfg, **kwargs)

    monkeypatch.setitem(THEOREMS, "g2c-factorization", replace(THEOREMS["g2c-factorization"], rhs=counted))
    monkeypatch.setitem(THEOREMS, "g2c-alternative", replace(THEOREMS["g2c-alternative"], lhs=counted))
    factorization = verify_theorem("g2c-factorization", square, samples=100, seed=2)
    first_calls = sum(calls.values())
    alternative = verify_theorem("g2c-alternative", square, samples=100, seed=2)
    assert factorization.points == alternative.points
    assert factorization.rhs == alternative.lhs
    # every primary value, or refusal, of the first identity is reused by the
    # second, which draws the same points
    assert first_calls >= 100 and sum(calls.values()) == first_calls
    assert set(calls.values()) == {1}


def test_a_wrapped_side_keeps_sharing_its_values(monkeypatch, fresh_store, square):
    # a benchmark tracer replaces every side through dataclasses.replace, each lhs under a
    # closure of its own: keyed by the function object, the g2c-alternative lhs missed the
    # values of the g2c-factorization rhs, and the primary factorized gamma, one lift with
    # eta = -1 per evaluation, ran 10 times, not 5
    calls = Counter()
    lifted = generalized.bernoulli_cone_lifted

    def counted(cone, z, omegas, eta):
        calls[eta] += 1
        return lifted(cone, z, omegas, eta)

    monkeypatch.setattr(generalized, "bernoulli_cone_lifted", counted)
    tids = ("g2c-factorization", "g2c-alternative")
    untraced = [verify_theorem(tid, square, samples=5, seed=0) for tid in tids]
    assert calls[-1.0] == 5
    for tid in tids:
        thm = THEOREMS[tid]

        def tried(*args, _inner=thm.lhs, **kwargs):
            return _inner(*args, **kwargs)

        def wrapped(*args, _inner=thm.rhs, **kwargs):
            return _inner(*args, **kwargs)

        monkeypatch.setitem(THEOREMS, tid, replace(thm, lhs=tried, rhs=wrapped))
    generalized._shared.set((None, None))
    calls.clear()
    traced = [verify_theorem(tid, square, samples=5, seed=0) for tid in tids]
    assert calls[-1.0] == 5
    assert traced == untraced


def test_a_substituted_side_under_a_fresh_store_is_called_at_every_draw(monkeypatch, fresh_store, w21):
    # a substitute keeps the side's name: under the store of the same cone, seed and config
    # it reads the values stored for the name, and under a fresh store it is called
    original = verify_theorem("s2c-factorization", w21, samples=4, seed=0)
    thm = THEOREMS["s2c-factorization"]
    calls = []

    def rhs(cone, z, omegas, cfg):
        calls.append((z, omegas))
        return thm.rhs(cone, z, omegas, cfg)

    monkeypatch.setitem(THEOREMS, "s2c-factorization", replace(thm, rhs=rhs))
    assert verify_theorem("s2c-factorization", w21, samples=4, seed=0) == original and calls == []
    generalized._shared.set((None, None))
    report = verify_theorem("s2c-factorization", w21, samples=4, seed=0)
    assert report == original
    assert len(calls) == len(set(calls)) >= 4 and set(report.points) <= set(calls)


def _count_draw_work(monkeypatch):
    """Counters of the face walks and wedge walks by (z, omegas), and of the ``_barnes_series``
    runs by (z, periods, n)."""
    faces, wedges, tables = Counter(), Counter(), Counter()
    walk_faces, walk_wedges, barnes = Cone._walk_faces, Cone._walk_wedges, bernoulli._barnes_series

    def counted_faces(self, z, omegas):
        faces[z, omegas] += 1
        return walk_faces(self, z, omegas)

    def counted_wedges(self, z, omegas):
        wedges[z, omegas] += 1
        return walk_wedges(self, z, omegas)

    def counted_barnes(z, big, others, n, *args):
        tables[z, (big, *others), n] += 1
        return barnes(z, big, others, n, *args)

    monkeypatch.setattr(Cone, "_walk_faces", counted_faces)
    monkeypatch.setattr(Cone, "_walk_wedges", counted_wedges)
    monkeypatch.setattr(bernoulli, "_barnes_series", counted_barnes)
    return faces, wedges, tables


@pytest.mark.parametrize("name", ["cone-over-square", "wedge21"])
def test_each_draw_walks_its_faces_and_wedges_once(monkeypatch, fresh_store, name):
    # the identities of one dimension draw the same points: on a 3d gamma draw the faces were
    # walked 3 times and the wedges 4 times, and each wedge's Bernoulli table built 2 or 3 times
    faces, wedges, tables = _count_draw_work(monkeypatch)
    cone = fixture_cone(name)
    reports = [verify_theorem(tid, cone, samples=5, seed=0) for tid in THEOREM_IDS]
    accepted = {point for report in reports for point in report.points}
    assert len(accepted) >= 10
    assert accepted <= set(wedges) and set(faces) <= set(wedges)
    assert set(faces.values()) == set(wedges.values()) == set(tables.values()) == {1}
    if cone.dim == 3:
        assert accepted <= set(faces)


def test_face_walk_and_its_refusal_are_kept_per_draw(monkeypatch, w21):
    # the second face's edge ray (1, 2) pairs to 0 with these periods: the refusing walk was not
    # kept, and each call walked the faces twice, once eagerly and once lazily
    walks = []
    walk_faces = Cone._walk_faces
    monkeypatch.setattr(Cone, "_walk_faces", lambda self, z, omegas: walks.append(z) or walk_faces(self, z, omegas))
    z, omegas = 0.3, (2 - 0.6j, -1 + 0.3j)
    seen = []
    token = lattice_cones._draw_store.set({})
    try:
        for _ in range(2):
            faces = []
            with pytest.raises(DomainError) as refusal:
                faces.extend(w21.faces(z, omegas))
            seen.append((faces, str(refusal.value)))
    finally:
        lattice_cones._draw_store.reset(token)
    faces, refusal = seen[0]
    assert walks == [z] and seen[1] == seen[0]
    assert [face[0] for face in faces] == ["edge(-1,0)"] and refusal == "face edge(1,2): transformed scale vanishes"


def test_routes_called_directly_keep_nothing(monkeypatch, square):
    faces, wedges, tables = _count_draw_work(monkeypatch)
    z, omegas = Z_GENERIC, GAMMA_OMEGAS["cone-over-square"]
    assert gamma_cone_factorized(square, z, omegas) == gamma_cone_factorized(square, z, omegas)
    assert faces[z, omegas] == wedges[z, omegas] == 2
    assert set(tables.values()) == {2}


def _refusing(exc):
    def side(cone, z, omegas, cfg):
        raise exc

    return side


@pytest.mark.parametrize("side, message", [
    (_refusing(DomainError("refused")), "could not draw a generic sample"),
    (_refusing(BudgetError("over budget")), "over budget"),
    (lambda cone, z, omegas, cfg: 1.0, None),
], ids=["no-generic-sample", "budget-error", "returns"])
def test_draw_store_is_unset_after_verify_theorem(monkeypatch, fresh_store, w21, side, message):
    seen = []

    def lhs(cone, z, omegas, cfg):
        seen.append(lattice_cones._draw_store.get())
        return side(cone, z, omegas, cfg)

    monkeypatch.setitem(THEOREMS, "s2c-factorization", replace(THEOREMS["s2c-factorization"], lhs=lhs))
    if message is None:
        verify_theorem("s2c-factorization", w21, samples=2)
    else:
        with pytest.raises((DomainError, BudgetError), match=message):
            verify_theorem("s2c-factorization", w21, samples=2)
    assert seen and all(store is generalized._shared.get()[1] for store in seen)
    assert lattice_cones._draw_store.get() is None


@pytest.mark.parametrize("variant", ["primary", "alternative"])
def test_face_walk_refusal_keeps_its_place_inside_verify_theorem(monkeypatch, fresh_store, w21, variant):
    # |p_0| = 1e-13 on the first face: outside verify_theorem the walk is lazy, and the
    # Bernoulli prefactor refuses before the walk reaches that face; a face list built
    # eagerly for the draw store would raise the face's refusal first
    z, omegas = 0.1 + 0.05j, (-1e-13j, 0.1 + 0.5j)
    with pytest.raises(DomainError) as outside:
        gamma_cone_factorized(w21, z, omegas, variant=variant)
    assert str(outside.value).startswith("prefactor")
    inside = []

    def lhs(cone, z, omegas, cfg):
        try:
            return gamma_cone_factorized(cone, z, omegas, cfg, variant=variant)
        except DomainError as exc:
            inside.append(str(exc))
            raise

    theorem = replace(THEOREMS["g1c-factorization"], sampler=lambda cone, rng: (z, omegas), lhs=lhs)
    monkeypatch.setitem(THEOREMS, "g1c-factorization", theorem)
    with pytest.raises(DomainError, match="could not draw a generic sample"):
        verify_theorem("g1c-factorization", w21, samples=1)
    assert set(inside) == {str(outside.value)}
    assert not any(key[0] == "faces" for key in generalized._shared.get()[1])


def test_report_json_shape(w21):
    doc = verify_theorem("s2c-factorization", w21, samples=2, seed=5).to_json_dict()
    assert doc["schema"] == 1
    assert doc["theorem"] == "s2c-factorization"
    assert doc["status"] == "PASS"
    assert set(doc) == {
        "schema",
        "theorem",
        "cone",
        "seed",
        "tolerance",
        "config",
        "status",
        "skipped",
        "points",
        "lhs",
        "rhs",
        "residuals",
        "max_residual",
    }
    assert len(doc["points"]) == len(doc["residuals"]) == 2
    for pt in doc["points"]:
        assert isinstance(pt["z"], list) and len(pt["z"]) == 2
        assert all(len(w) == 2 for w in pt["omegas"])


def test_custom_config_threads_through(w21):
    cfg = EvalConfig(tail_tol=1e-13, max_terms=40000)
    rep = verify_theorem("s2c-factorization", w21, samples=2, seed=9, cfg=cfg, tolerance=1e-6)
    assert rep.status == "PASS"
    assert rep.tolerance == 1e-6
