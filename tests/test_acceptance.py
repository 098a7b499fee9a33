"""Acceptance gate: the shipped verification criteria, one test each.

Each test states its tolerance and point budget inline; the random draws are
seeded so every run checks the same points.  Runtime-limited criteria assert
their own wall-clock budget.
"""
from __future__ import annotations

import json
import time
from random import Random

from conesine import (
    bernoulli_cone,
    bernoulli_cone_oracle,
    bernoulli_multiple,
    elliptic_gamma,
    fixture_cone,
    gamma_cone_direct,
    gamma_cone_factorized,
    gamma_cone_lattice_oracle,
    multiple_sine,
    qfactorial,
    sine_cone_decomposed,
    sine_cone_factorized,
    verify_theorem,
)
from conesine.cli import main
from conesine.lattice_cones import det2, subdivide_wedge, vec_gcd

from identities import (
    elliptic_gamma_modularity_check,
    q_theta_modularity_check,
    qfactorial_gluing_check,
    wedge_product_check,
)
from params import BERNOULLI_OMEGAS, GAMMA_OMEGAS, SINE_OMEGAS, Z_GENERIC, face_factors, forced_form, rel


def _z(rng: Random) -> complex:
    return complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.45, 0.45))


def _omega(rng: Random, lo: float, hi: float) -> complex:
    sign = 1 if lo >= 0 else -1
    return complex(rng.uniform(-0.5, 0.5), sign * rng.uniform(abs(lo), abs(hi)))


# criterion 1 -- q-factorial identity suite: shift and inversion identities
# plus the gluing identity in all three modulus sign cases, 50 points each,
# residual < 1e-10, under 10 seconds


def test_c01_qfactorial_identity_suite():
    start = time.monotonic()
    rng = Random(101)
    for _ in range(50):
        z = _z(rng)
        w0 = _omega(rng, 0.25, 0.7)
        w1 = _omega(rng, 0.25, 0.7) * rng.choice((1, -1))
        lhs = qfactorial(z + w0, (w0, w1))
        rhs = qfactorial(z, (w0, w1)) / qfactorial(z, (w1,))
        assert rel(lhs, rhs) < 1e-10
        product = qfactorial(z, (w0, w1)) * qfactorial(z - w0, (-w0, w1))
        assert abs(product - 1.0) < 1e-10
    cases = (
        ((0.25, 0.7), (0.25, 0.7)),  # both moduli inside the unit disc
        ((0.45, 0.75), (-0.3, -0.1)),  # one outside, combined inside
        ((0.15, 0.3), (-0.75, -0.45)),  # combined outside
    )
    for lo_hi0, lo_hi1 in cases:
        for _ in range(50):
            z = _z(rng)
            w0 = _omega(rng, *lo_hi0)
            w1 = _omega(rng, *lo_hi1)
            assert qfactorial_gluing_check(z, w0, w1) < 1e-10
    assert time.monotonic() - start < 10.0


# criterion 2 -- gamma-hierarchy functional equations (periodicity, period
# shift, inversion, sign-flip pair) for levels 0, 1, 2 at 20 points,
# residual < 1e-10


def test_c02_gamma_functional_equations():
    rng = Random(102)
    for level in (0, 1, 2):
        for _ in range(20):
            z = _z(rng)
            om = tuple(
                _omega(rng, 0.25, 0.7) * rng.choice((1, 1, -1))
                for _ in range(level + 1)
            )
            j = rng.randrange(level + 1)
            reduced = om[:j] + om[j + 1 :]
            assert rel(elliptic_gamma(z + 1, om), elliptic_gamma(z, om)) < 1e-10
            lhs = elliptic_gamma(z + om[j], om)
            rhs = elliptic_gamma(z, reduced) * elliptic_gamma(z, om)
            assert rel(lhs, rhs) < 1e-10
            inv = elliptic_gamma(-z, tuple(-w for w in om)) * elliptic_gamma(z, om)
            assert abs(inv - 1.0) < 1e-10
            flipped = om[:j] + (-om[j],) + om[j + 1 :]
            pair = elliptic_gamma(z, om) * elliptic_gamma(z, flipped)
            assert rel(pair, 1.0 / elliptic_gamma(z, reduced)) < 1e-10


# criterion 3 -- theta modularity and the first-level gamma modularity,
# 10 points, residual < 1e-8


def test_c03_modularity():
    rng = Random(103)
    for _ in range(10):
        z = _z(rng)
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.4, 1.2))
        assert q_theta_modularity_check(z, tau) < 1e-8
        om = (
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.7)),
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.7)),
        )
        assert elliptic_gamma_modularity_check(z, om, variant=1) < 1e-8
        assert elliptic_gamma_modularity_check(z, om, variant=2) < 1e-8


# criterion 4 -- multiple sine suite for two and three periods: the two
# boundary-factorization forms agree; reflection and rescaling hold;
# 20 points, residual < 1e-9


def test_c04_multiple_sine_suite():
    rng = Random(104)
    for count in (2, 3):
        for _ in range(20):
            z = _z(rng)
            om = tuple(
                complex(rng.uniform(0.6, 1.5), rng.uniform(-0.35, 0.35))
                for _ in range(count)
            )
            with forced_form(1):
                a = multiple_sine(z, om)
            with forced_form(2):
                b = multiple_sine(z, om)
            assert rel(a, b) < 1e-9
            refl = multiple_sine(sum(om) - z, om)
            expect = a if count % 2 == 1 else 1.0 / a
            assert rel(refl, expect) < 1e-9
            c = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.8, 0.8))
            scaled = multiple_sine(c * z, tuple(c * w for w in om))
            assert rel(scaled, a) < 1e-9


# criterion 5 -- subdivision oracle: 100 random wedges with entries up to 20;
# adjacent determinants exactly 1; the half-open sub-wedges partition the
# lattice ball of radius 30 with zero mismatches; under 30 seconds


def test_c05_subdivision_partitions_lattice():
    start = time.monotonic()
    rng = Random(105)
    radius = 30
    points = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if (x, y) != (0, 0)
    ]
    checked = 0
    while checked < 100:
        v1 = (rng.randint(-20, 20), rng.randint(-20, 20))
        v2 = (rng.randint(-20, 20), rng.randint(-20, 20))
        if v1 == (0, 0) or v2 == (0, 0):
            continue
        if vec_gcd(v1) != 1 or vec_gcd(v2) != 1:
            continue
        if det2(v1, v2) <= 0:
            continue
        chain = subdivide_wedge(v1, v2).lines
        assert all(det2(a, b) == 1 for a, b in zip(chain, chain[1:]))
        # membership counted half-open: u_j . x side >= 0, u_{j+1} side < 0
        sides = [[u[0] * y - u[1] * x for (x, y) in points] for u in chain]
        first, last = sides[0], sides[-1]
        for idx in range(len(points)):
            in_wedge = first[idx] >= 0 > last[idx]
            hits = sum(
                1
                for j in range(len(chain) - 1)
                if sides[j][idx] >= 0 > sides[j + 1][idx]
            )
            assert hits == (1 if in_wedge else 0)
        checked += 1
    assert time.monotonic() - start < 30.0


# criterion 6 -- two-period cone sine: decomposed and factorized routes agree
# on the three 2d cones at 5 sampled points each, residual < 1e-8


def test_c06_sine_cone_2d_factorization():
    for name in ("standard-2", "wedge21", "wedge53"):
        rep = verify_theorem("s2c-factorization", fixture_cone(name), samples=5, seed=106)
        assert rep.status == "PASS"
        assert rep.max_residual < 1e-8


# criterion 7 -- three-period cone sine on the cone over the square at
# 5 points, residual < 1e-7, with exactly 4 face factors


def test_c07_sine_cone_3d_factorization():
    square = fixture_cone("cone-over-square")
    rep = verify_theorem("s3c-factorization", square, samples=5, seed=107)
    assert rep.status == "PASS"
    assert rep.max_residual < 1e-7
    factors = face_factors(square, Z_GENERIC, SINE_OMEGAS["cone-over-square"])
    assert len(factors) == 4


# criterion 8 -- two-period cone gamma: direct and factorized routes agree on
# the three 2d cones at 5 points each (< 1e-8), and the direct route matches
# the truncated lattice product at radius 60 with strongly damped periods
# (< 1e-6)


def test_c08_gamma_cone_2d_factorization_and_oracle():
    for name in ("standard-2", "wedge21", "wedge53"):
        rep = verify_theorem("g1c-factorization", fixture_cone(name), samples=5, seed=108)
        assert rep.status == "PASS"
        assert rep.max_residual < 1e-8
    w21 = fixture_cone("wedge21")
    om = GAMMA_OMEGAS["wedge21"]
    oracle = gamma_cone_lattice_oracle(w21, Z_GENERIC, om, radius=60)
    assert rel(gamma_cone_direct(w21, Z_GENERIC, om), oracle) < 1e-6


# criterion 9 -- three-period cone gamma on the cone over the square:
# the primary factorization matches the direct route and the alternative
# factorization, residual < 1e-7


def test_c09_gamma_cone_3d_both_factorizations():
    square = fixture_cone("cone-over-square")
    for tid in ("g2c-factorization", "g2c-alternative"):
        rep = verify_theorem(tid, square, samples=5, seed=109)
        assert rep.status == "PASS"
        assert rep.max_residual < 1e-7
    om = GAMMA_OMEGAS["cone-over-square"]
    primary = gamma_cone_factorized(square, Z_GENERIC, om, variant="primary")
    alt = gamma_cone_factorized(square, Z_GENERIC, om, variant="alternative")
    assert rel(primary, alt) < 1e-7


# criterion 10 -- the cubic-Bernoulli exponential equals the face product of
# first-level gammas on the cone over the square, residual < 1e-7


def test_c10_face_modularity():
    square = fixture_cone("cone-over-square")
    rep = verify_theorem("face-modularity", square, samples=5, seed=110)
    assert rep.status == "PASS"
    assert rep.max_residual < 1e-7


# criterion 11 -- closed wedge chains: the cyclic telescoping product equals
# 1 - e^{2 pi i z} to 1e-10, including a refined six-line chain


def test_c11_closed_chain_cancellation():
    rng = Random(111)
    hexagon = [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)]
    for _ in range(10):
        z = _z(rng)
        om = (
            complex(rng.uniform(0.6, 1.2), rng.uniform(0.15, 0.4)),
            complex(rng.uniform(0.6, 1.2), rng.uniform(-0.4, -0.15)),
        )
        assert wedge_product_check([(0, 1), (-1, 0), (1, -1)], z, om, closed=True) < 1e-10
        assert wedge_product_check(hexagon, z, om, closed=True) < 1e-10


# criterion 12 -- Bernoulli suite: parity, homogeneity and permutation
# symmetry to 1e-10; the quadratic and cubic cone polynomials match the
# sampled generating-function oracle to 1e-6


def test_c12_bernoulli_suite():
    rng = Random(112)
    for _ in range(10):
        z = _z(rng)
        for r in (2, 3):
            om = tuple(
                complex(rng.uniform(0.5, 1.4), rng.uniform(-0.3, 0.3)) for _ in range(r)
            )
            eta = complex(rng.uniform(0.5, 1.4), rng.uniform(-0.3, 0.3))
            collapse = (
                bernoulli_multiple(z, om + (eta,), r + 1)
                + bernoulli_multiple(z, om + (-eta,), r + 1)
                + (r + 1) * bernoulli_multiple(z, om, r)
            )
            assert abs(collapse) < 1e-10
            c = complex(rng.uniform(0.6, 1.5), rng.uniform(-0.6, 0.6))
            scaled = bernoulli_multiple(c * z, tuple(c * w for w in om), r)
            assert rel(scaled, bernoulli_multiple(z, om, r)) < 1e-10
            perm = tuple(reversed(om))
            assert rel(
                bernoulli_multiple(z, perm, r), bernoulli_multiple(z, om, r)
            ) < 1e-10
    w21 = fixture_cone("wedge21")
    om2 = BERNOULLI_OMEGAS["wedge21"]
    z2 = 0.27 - 0.11j
    assert abs(
        bernoulli_cone(w21, z2, om2, 2) - bernoulli_cone_oracle(w21, z2, om2, 2)
    ) < 1e-6
    square = fixture_cone("cone-over-square")
    om3 = BERNOULLI_OMEGAS["cone-over-square"]
    z3 = 0.19 + 0.07j
    assert abs(
        bernoulli_cone(square, z3, om3, 3) - bernoulli_cone_oracle(square, z3, om3, 3)
    ) < 1e-6


# criterion 13 -- degeneration: every cone-generalized function on a standard
# cone equals its classical counterpart to 1e-10


def test_c13_standard_cone_degeneration():
    std2, std3 = fixture_cone("standard-2"), fixture_cone("standard-3")
    z = Z_GENERIC
    s2, s3 = SINE_OMEGAS["standard-2"], SINE_OMEGAS["standard-3"]
    g2, g3 = GAMMA_OMEGAS["standard-2"], GAMMA_OMEGAS["standard-3"]
    assert rel(sine_cone_decomposed(std2, z, s2), multiple_sine(z, s2)) < 1e-10
    assert rel(sine_cone_factorized(std2, z, s2), multiple_sine(z, s2)) < 1e-10
    assert rel(sine_cone_decomposed(std3, z, s3), multiple_sine(z, s3)) < 1e-10
    assert rel(sine_cone_factorized(std3, z, s3), multiple_sine(z, s3)) < 1e-10
    assert rel(gamma_cone_direct(std2, z, g2), elliptic_gamma(z, g2)) < 1e-10
    assert rel(gamma_cone_factorized(std2, z, g2), elliptic_gamma(z, g2)) < 1e-10
    assert rel(gamma_cone_direct(std3, z, g3), elliptic_gamma(z, g3)) < 1e-10
    for variant in ("primary", "alternative"):
        assert rel(
            gamma_cone_factorized(std3, z, g3, variant=variant),
            elliptic_gamma(z, g3),
        ) < 1e-10


# criterion 14 -- end-to-end command line: verification over every shipped
# cone completes with overall PASS, byte-identical across repeat runs at the
# same seed, in under five minutes


def test_c14_cli_end_to_end(capsys):
    start = time.monotonic()
    args = ["report", "--samples", "3", "--seed", "114"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "PASS"
    assert doc["counts"]["FAIL"] == 0
    assert doc["counts"]["PASS"] >= 6  # every identity passes somewhere
    assert {c["name"] for c in doc["cones"]} == {
        "standard-2",
        "standard-3",
        "wedge21",
        "wedge53",
        "cone-over-square",
    }
    assert time.monotonic() - start < 300.0
