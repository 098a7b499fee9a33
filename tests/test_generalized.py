"""Cone-generalized sine and gamma functions: route agreement, degeneration
to the classical functions, face locality, and the verification reports."""
from __future__ import annotations

import cmath
import sys
from collections import Counter
from random import Random

import pytest

from conesine import (
    DEFAULT_CONFIG,
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
    gamma_face_factors,
    multiple_sine,
    sine_cone_decomposed,
    sine_cone_factorized,
    sine_face_factors,
    verify_theorem,
    wedge_product_check,
)
from conesine import bernoulli, lattice_cones
from conesine.generalized import THEOREMS, _sample_gamma_params
from conesine.lattice_cones import Cone, cone_chain_2d, cone_plan

from params import GAMMA_OMEGAS, OVERFLOWING_PRODUCTS, SINE_OMEGAS, Z_GENERIC, chain_wedges, rel


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
    with pytest.raises(DomainError):
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


def test_lattice_oracle_needs_damped_periods(w21):
    with pytest.raises(DomainError):
        gamma_cone_lattice_oracle(w21, Z_GENERIC, SINE_OMEGAS["wedge21"], radius=10)


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
    assert len(sine_face_factors(square, Z_GENERIC, om3)) == 4
    assert len(sine_face_factors(std3, Z_GENERIC, SINE_OMEGAS["standard-3"])) == 3
    assert len(sine_face_factors(w21, Z_GENERIC, om2)) == 2
    gsq = GAMMA_OMEGAS["cone-over-square"]
    assert len(gamma_face_factors(square, Z_GENERIC, gsq)) == 4


def test_face_factors_are_local_to_each_face(square):
    # relisting the facet normals in a rotated order must reproduce the same
    # factor for each edge, matched by id
    om = SINE_OMEGAS["cone-over-square"]
    rotated = Cone(3, square.normals[1:] + square.normals[:1])
    base = {f.face_id: f.value for f in sine_face_factors(square, Z_GENERIC, om)}
    moved = {f.face_id: f.value for f in sine_face_factors(rotated, Z_GENERIC, om)}
    assert set(base) == set(moved)
    for fid, val in base.items():
        assert moved[fid] == val


def test_face_factor_ids_name_the_edge_rays(w21):
    ids = {f.face_id for f in sine_face_factors(w21, Z_GENERIC, SINE_OMEGAS["wedge21"])}
    assert ids == {"edge(-1,0)", "edge(1,2)"}


@pytest.mark.parametrize("factors", [
    sine_face_factors,
    lambda cone, z, om: gamma_face_factors(cone, z, om, variant="alternative"),
], ids=["sine", "gamma-alternative"])
def test_vanishing_face_scale_is_rejected(w21, factors):
    # the edge ray (-1, 0) pairs to 0 with a first period of 0
    with pytest.raises(DomainError, match=r"^face edge\(-1,0\): transformed scale vanishes$"):
        factors(w21, 0.3, (0, 1 + 0.3j))


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
    assert chain_wedges(cone_chain_2d(cone).lines, Z_GENERIC, om) == cone_plan(cone).wedges(Z_GENERIC, om)[1]
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


@pytest.mark.parametrize("samples", [2.0, 2.5])
def test_verify_theorem_refuses_a_sample_count_that_is_not_an_integer(std2, samples):
    with pytest.raises(DomainError, match="sample count must be an integer"):
        verify_theorem("s2c-factorization", std2, samples=samples)


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
    cones = [fixture_cone(name) for name in FIXTURE_NAMES]  # fresh instances
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


def test_verify_theorem_is_deterministic(square):
    a = verify_theorem("g2c-factorization", square, samples=3, seed=42)
    b = verify_theorem("g2c-factorization", square, samples=3, seed=42)
    assert a.to_json_dict() == b.to_json_dict()
    c = verify_theorem("g2c-factorization", square, samples=3, seed=43)
    assert c.points != a.points


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
    cfg = EvalConfig(tail_tol=1e-13, comparison_tol=1e-9, max_terms=40000)
    rep = verify_theorem("s2c-factorization", w21, samples=2, seed=9, cfg=cfg, tolerance=1e-6)
    assert rep.status == "PASS"
    assert rep.tolerance == 1e-6
