"""Multi-period Bernoulli polynomials and their cone-restricted forms."""
from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from conesine import (
    FIXTURE_NAMES,
    Cone,
    DomainError,
    bernoulli_cone,
    bernoulli_cone_lifted,
    bernoulli_cone_oracle,
    bernoulli_multiple,
    cone_chain_2d,
    edge_rays,
    fixture_cone,
    is_good,
)
from conesine.bernoulli import (
    _BERNOULLI_OVER_FACTORIAL,
    MAX_ORDER,
    _cone_sum,
    _exists_damping_phase,
    _fiber_exponents,
    _fiber_runs,
    _fiber_sum,
)
from conesine.generalized import _sample_gamma_params
from conesine.lattice_cones import cone_plan, det3

from params import (
    BERNOULLI_OMEGAS,
    GAMMA_OMEGAS,
    LIFT_RAY,
    Z_BERNOULLI_2D,
    Z_BERNOULLI_3D,
    Z_LIFTED,
    chain_wedges,
    rel,
)


def _rand_z(rng: Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _rand_omega(rng: Random) -> complex:
    w = complex(rng.uniform(0.4, 1.6), rng.uniform(-0.9, 0.9))
    return w if abs(w) > 0.3 else w + 0.5


# ---------------------------------------------------------------------------
# closed forms and polynomial structure


def test_single_period_linear_polynomial():
    rng = Random(1)
    for _ in range(5):
        z, w = _rand_z(rng), _rand_omega(rng)
        assert abs(bernoulli_multiple(z, (w,), 1) - (z / w - 0.5)) < 1e-13


def test_two_period_quadratic_closed_form():
    rng = Random(2)
    for _ in range(5):
        z, a, b = _rand_z(rng), _rand_omega(rng), _rand_omega(rng)
        closed = z * z / (a * b) - z * (a + b) / (a * b) + (a * a + 3 * a * b + b * b) / (6 * a * b)
        assert abs(bernoulli_multiple(z, (a, b), 2) - closed) < 1e-12


def test_degree_matches_index():
    # the n-th coefficient is a degree-n polynomial in z: the (n+1)-st finite
    # difference annihilates it
    om = (1.1 + 0.4j, 0.7 - 0.3j, 0.9 + 0.1j)
    h = 0.61
    vals = [bernoulli_multiple(0.2 + k * h, om, 3) for k in range(5)]
    d4 = vals[4] - 4 * vals[3] + 6 * vals[2] - 4 * vals[1] + vals[0]
    assert abs(d4) < 1e-10


def test_reflection_flips_sign_with_index():
    rng = Random(3)
    for n, sign in ((2, 1), (3, -1)):
        for _ in range(5):
            z = _rand_z(rng)
            om = tuple(_rand_omega(rng) for _ in range(n))
            total = sum(om)
            lhs = bernoulli_multiple(total - z, om, n)
            rhs = sign * bernoulli_multiple(z, om, n)
            assert abs(lhs - rhs) < 1e-11


def test_symmetry_center_value():
    om = (1.2 + 0.3j, 0.8 - 0.5j)
    center = (om[0] + om[1]) / 2
    lhs = bernoulli_multiple(sum(om) - center, om, 2)
    assert abs(lhs - bernoulli_multiple(center, om, 2)) < 1e-13


def test_permutation_symmetry():
    rng = Random(4)
    for _ in range(10):
        z = _rand_z(rng)
        om = tuple(_rand_omega(rng) for _ in range(3))
        base = bernoulli_multiple(z, om, 3)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert abs(bernoulli_multiple(z, tuple(om[i] for i in perm), 3) - base) < 1e-12


def test_homogeneity_under_joint_rescaling():
    rng = Random(5)
    for n in (2, 3):
        for _ in range(5):
            z = _rand_z(rng)
            om = tuple(_rand_omega(rng) for _ in range(n))
            c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            scaled = bernoulli_multiple(c * z, tuple(c * w for w in om), n)
            assert abs(scaled - bernoulli_multiple(z, om, n)) < 1e-10


def test_parity_collapses_one_period():
    rng = Random(6)
    for r in (2, 3, 4):
        for _ in range(10):
            z = _rand_z(rng)
            om = tuple(_rand_omega(rng) for _ in range(r - 1))
            eta = _rand_omega(rng)
            total = bernoulli_multiple(z, om + (eta,), r) + bernoulli_multiple(
                z, om + (-eta,), r
            )
            collapsed = -r * bernoulli_multiple(z, om, r - 1)
            assert abs(total - collapsed) < 1e-10


def test_zero_period_is_rejected():
    with pytest.raises(DomainError):
        bernoulli_multiple(0.3, (1.0, 0.0), 2)


def test_order_cap_is_enforced():
    with pytest.raises(DomainError):
        bernoulli_multiple(0.3, (1.0 + 0.2j,), 9)


@pytest.mark.parametrize("n", [2.0, 2.5, "2", None])
def test_order_must_be_an_integer(n):
    with pytest.raises(DomainError, match="order must be an integer"):
        bernoulli_multiple(0.3, (1.0,), n)


@pytest.mark.parametrize("z, omegas, n", [
    (complex("nan"), (1.0,), 2),
    (0.3, (1.0, float("inf")), 0),
    (complex(0.3, float("-inf")), (1.0,), 1),
    (0.3, (1e200 + 1e199j,), 4),  # omega^3 overflows
    (0.3, (1e-200, 1e-200), 2),  # 1 / (omega_1 omega_2) overflows
    (1e300, (1.0,), 2),  # z^2 overflows
])
def test_non_finite_input_or_value_is_domain_error(z, omegas, n):
    with pytest.raises(DomainError, match=f"order-{n} Bernoulli polynomial is not finite at z = ") as info:
        bernoulli_multiple(z, omegas, n)
    assert f"largest |omega| = {max(abs(w) for w in omegas):.3g}" in str(info.value)


# ---------------------------------------------------------------------------
# exact and independent references


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0..B_{count-1} from sum_{j<k+1} C(k+1, j) B_j = 0, with B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, count):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def _exact_bernoulli(z: Fraction, omegas: tuple, n: int) -> tuple[Fraction, Fraction]:
    """B_{r,n}(z | omegas) in rationals, n! [t^n] of
    e^{zt} prod_i sum_k B_k omega_i^{k-1} t^k / k!, and the same with every
    series coefficient replaced by its absolute value: the size of the
    terms that cancel, which scales the rounding error of any evaluation."""
    bk = _bernoulli_numbers(n + 1)
    acc = [z ** k / math.factorial(k) for k in range(n + 1)]
    mag = [abs(c) for c in acc]
    for w in omegas:
        fac = [bk[k] * w ** (k - 1) / math.factorial(k) for k in range(n + 1)]
        acc = [sum(fac[k] * acc[j - k] for k in range(j + 1)) for j in range(n + 1)]
        mag = [sum(abs(fac[k]) * mag[j - k] for k in range(j + 1)) for j in range(n + 1)]
    return acc[n] * math.factorial(n), mag[n] * math.factorial(n)


def test_bernoulli_number_table_is_exact():
    b = _bernoulli_numbers(MAX_ORDER + 1)
    assert b[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
    assert _BERNOULLI_OVER_FACTORIAL == tuple(
        float(bk / math.factorial(k)) for k, bk in enumerate(b)
    )


def test_plain_polynomial_matches_exact_rationals():
    rng = Random(7)
    for r in range(1, 5):
        for n in range(MAX_ORDER + 1):
            for _ in range(3):
                z = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                om = tuple(
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
                    for _ in range(r)
                )
                exact, size = _exact_bernoulli(z, om, n)
                value = bernoulli_multiple(float(z), tuple(map(float, om)), n)
                # relative to the cancelling terms, not to the value, which
                # vanishes at the polynomial's zeros
                assert abs(value - float(exact)) <= 1e-13 * float(size), (z, om, n)


def _mp_bernoulli(mp, z: complex, omegas: tuple, n: int):
    """n! [t^n] of e^{zt} / prod_i ((e^{omega_i t} - 1) / t) in mpmath, the
    reciprocal series by its term recurrence."""
    den = [mp.mpf(1)] + [mp.mpf(0)] * n
    for w in omegas:
        w = mp.mpc(w)
        fac = [w ** (k + 1) / mp.factorial(k + 1) for k in range(n + 1)]
        den = [mp.fsum(den[i] * fac[j - i] for i in range(j + 1)) for j in range(n + 1)]
    inv = [1 / den[0]]
    for j in range(1, n + 1):
        inv.append(-mp.fsum(den[i] * inv[j - i] for i in range(1, j + 1)) / den[0])
    z = mp.mpc(z)
    return mp.factorial(n) * mp.fsum(inv[j] * z ** (n - j) / mp.factorial(n - j) for j in range(n + 1))


def test_plain_polynomial_matches_60_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    rng = Random(5)
    worst = 0.0
    with mpmath.workdps(60):
        for _ in range(1000):
            r, n = rng.randint(1, 4), rng.randint(0, MAX_ORDER)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            om = tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(r))
            ref = _mp_bernoulli(mpmath, z, om, n)
            err = abs(mpmath.mpc(bernoulli_multiple(z, om, n)) - ref) / max(abs(ref), 1)
            worst = max(worst, float(err))
    assert worst <= 5e-13


# ---------------------------------------------------------------------------
# cone-restricted quadratic


def test_cone_quadratic_on_standard_cone_is_plain(std2):
    z, om = 0.37 - 0.21j, (1.1 + 0.2j, 0.8 - 0.3j)
    assert abs(bernoulli_cone(std2, z, om, 2) - bernoulli_multiple(z, om, 2)) < 1e-12


@pytest.mark.parametrize("name", ["wedge21", "wedge53"])
def test_cone_quadratic_matches_lattice_oracle(name, request):
    cone = request.getfixturevalue({"wedge21": "w21", "wedge53": "w53"}[name])
    om = BERNOULLI_OMEGAS[name]
    val = bernoulli_cone(cone, Z_BERNOULLI_2D, om, 2)
    oracle = bernoulli_cone_oracle(cone, Z_BERNOULLI_2D, om, 2)
    assert abs(val - oracle) < 1e-8


def test_cone_polynomials_match_oracle_all_orders(w21):
    om = BERNOULLI_OMEGAS["wedge21"]
    for n in range(5):
        val = bernoulli_cone(w21, Z_BERNOULLI_2D, om, n)
        oracle = bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, om, n)
        assert abs(val - oracle) < 1e-6


def test_oracle_agrees_with_plain_polynomial_on_standard_cone(std2):
    # independent cross-check of the oracle itself
    z, om = 0.27 - 0.11j, (0.35 + 0.013j, 0.25 + 0.021j)
    oracle = bernoulli_cone_oracle(std2, z, om, 2)
    assert abs(oracle - bernoulli_multiple(z, om, 2)) < 1e-8


def test_cone_quadratic_subdivision_independence(w21):
    om = BERNOULLI_OMEGAS["wedge21"]
    default = bernoulli_cone(w21, Z_BERNOULLI_2D, om, 2)
    base = cone_chain_2d(w21).lines
    refined = []
    for a, b in zip(base, base[1:]):
        refined.append(a)
        refined.append(tuple(x + y for x, y in zip(a, b)))
    refined.append(base[-1])
    value = sum(bernoulli_multiple(arg, periods, 2) for arg, periods in chain_wedges(refined, Z_BERNOULLI_2D, om))
    assert abs(value - default) < 1e-10


# ---------------------------------------------------------------------------
# cone-restricted cubic


def test_cone_cubic_on_standard_cone_is_plain(std3):
    z, om = 0.29 + 0.13j, (1.05 + 0.21j, 0.85 - 0.17j, 1.3 + 0.08j)
    assert abs(bernoulli_cone(std3, z, om, 3) - bernoulli_multiple(z, om, 3)) < 1e-10


def test_cone_cubic_matches_lattice_oracle(square):
    om = BERNOULLI_OMEGAS["cone-over-square"]
    val = bernoulli_cone(square, Z_BERNOULLI_3D, om, 3)
    oracle = bernoulli_cone_oracle(square, Z_BERNOULLI_3D, om, 3)
    assert abs(val - oracle) < 1e-6


def _leading_cubic_coefficient(cone: Cone, om: tuple) -> complex:
    h, z0 = 0.7, 0.23
    vals = [bernoulli_cone(cone, z0 + k * h, om, 3) for k in range(4)]
    return (vals[3] - 3 * vals[2] + 3 * vals[1] - vals[0]) / h**3 / 6


def _section_area(rays, om, split) -> float:
    total = 0.0
    for i, j, k in split:
        weight = abs(det3(rays[i], rays[j], rays[k]))
        for idx in (i, j, k):
            weight /= sum(o * r for o, r in zip(om, rays[idx])).real
        total += weight
    return total


def test_cubic_leading_coefficient_is_section_area(square):
    # the z^3 coefficient equals the determinant-weighted area of the cone
    # section cut by the period covector (computed from a simplicial split
    # of the edge-ray fan)
    triangle = Cone(3, ((1, 0, 0), (1, -1, 0), (1, 0, -1)))
    om = (1.9 + 0j, -0.4 + 0j, -0.3 + 0j)
    lead_sq = _leading_cubic_coefficient(square, om)
    lead_tri = _leading_cubic_coefficient(triangle, om)
    area_sq = _section_area(edge_rays(square), om, [(0, 1, 2), (0, 2, 3)])
    area_tri = _section_area(edge_rays(triangle), om, [(0, 1, 2)])
    assert abs(lead_sq - area_sq) < 1e-9 * abs(area_sq)
    assert abs(lead_tri - area_tri) < 1e-9 * abs(area_tri)
    # and therefore the two cones' leading terms stand in the area ratio
    ratio = lead_tri / lead_sq
    assert abs(ratio - area_tri / area_sq) < 1e-9


def test_cone_cubic_needs_gorenstein_cone():
    no_xi = Cone(3, ((1, 0, 0), (0, 1, 0), (-1, -1, 2)))
    with pytest.raises(DomainError):
        bernoulli_cone(no_xi, 0.3, (0.2 + 0.9j, 0.1 + 0.8j, 0.05 + 0.7j), 3)


# ---------------------------------------------------------------------------
# lifted (extra-period) polynomials


def test_lifted_standard_cone_appends_period(std2):
    # imaginary-dominant periods leave room for a damping phase on either
    # side of the extra period +-1
    z, om = 0.21 - 0.13j, (0.1 + 0.9j, -0.05 + 0.8j)
    for eta in (1.0, -1.0):
        lifted = bernoulli_cone_lifted(std2, z, om, eta)
        plain = bernoulli_multiple(z, om + (eta,), 3)
        assert abs(lifted - plain) < 1e-12


def test_lifted_parity_collapses_to_cone_polynomial(w21, square):
    for cone, om in (
        (w21, GAMMA_OMEGAS["wedge21"]),
        (square, GAMMA_OMEGAS["cone-over-square"]),
    ):
        m = cone.dim + 1
        z = Z_LIFTED
        total = bernoulli_cone_lifted(cone, z, om, -1.0) + bernoulli_cone_lifted(
            cone, z, om, 1.0
        )
        collapsed = -m * bernoulli_cone(cone, z, om, cone.dim)
        assert abs(total - collapsed) < 1e-10


def test_lifted_matches_lattice_oracle(w21):
    om = GAMMA_OMEGAS["wedge21"]
    for eta in (-1.0, 1.0):
        val = bernoulli_cone_lifted(w21, Z_LIFTED, om, eta)
        oracle = bernoulli_cone_oracle(w21, Z_LIFTED, om, 3, ray=LIFT_RAY[eta], eta=eta)
        assert abs(val - oracle) < 1e-6


def _cross2(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> list:
    """Vertices of the convex hull of lattice points, counterclockwise."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _random_good_cones(seed: int, count: int) -> list:
    """Seeded good cones, alternately 2d (primitive normals, |det| <= 30) and
    3d Gorenstein (over a convex lattice polygon with primitive edges, with
    normals (1, -x, -y) at its vertices)."""
    rng = Random(seed)
    cones = []
    while len(cones) < count:
        if len(cones) % 2 == 0:
            a, b = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(2)]
            if math.gcd(*a) != 1 or math.gcd(*b) != 1 or not 1 <= abs(_cross2((0, 0), a, b)) <= 30:
                continue
            normals, dim = (a, b), 2
        else:
            hull = _hull([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 6))])
            edges = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(hull, hull[1:] + hull[:1])]
            if len(hull) < 3 or any(math.gcd(*e) != 1 for e in edges):
                continue
            normals, dim = tuple((1, -x, -y) for x, y in hull), 3
        try:
            cone = Cone(dim, normals)
            if dim == 3 and not is_good(cone):
                continue
        except DomainError:
            continue
        cones.append(cone)
    return cones


def _lifted_by_degree(cone, z, om, eta) -> complex:
    m = cone.dim + 1
    return sum(
        math.comb(m, k) * bernoulli_cone(cone, z, om, k) * bernoulli_multiple(0, (eta,), m - k)
        for k in range(m + 1)
    )


def _lifted_cases():
    """(cone, z, periods) on the fixtures and on seeded random good cones,
    with periods for which the lift by either eta = +-1 has a damping phase."""
    fixtures = ("standard-2", "wedge21", "wedge53", "standard-3", "cone-over-square")
    cases = [(fixture_cone(name), Z_LIFTED, GAMMA_OMEGAS[name]) for name in fixtures]
    rng = Random(11)
    for cone in _random_good_cones(12, 16):
        rays = [tuple(r) + (0,) for r in edge_rays(cone)] + [(0,) * cone.dim + (1,)]
        while True:
            z, om = _sample_gamma_params(cone, rng)
            if all(_exists_damping_phase(rays, om + (eta,)) for eta in (-1.0, 1.0)):
                break
        cases.append((cone, z, om))
    return cases


def test_lifted_is_binomial_convolution_of_degrees():
    # the one-walk lift against the per-degree formula it replaces
    for cone, z, om in _lifted_cases():
        for eta in (-1.0, 1.0):
            lifted = bernoulli_cone_lifted(cone, z, om, eta)
            assert rel(lifted, _lifted_by_degree(cone, z, om, eta)) < 1e-12, (cone, eta)


def test_cone_sum_lists_every_degree():
    # one walk gives every degree; each matches its own polynomial and the
    # sum of the public plain polynomials over the same wedges
    for cone, z, om in _lifted_cases():
        axis, wedges = cone_plan(cone).wedges(z, om)
        n = cone.dim + 1
        every = _cone_sum(cone, z, om, n)
        assert len(every) == n + 1
        for k in range(n + 1):
            by_wedge = sum(bernoulli_multiple(arg, periods, k) for arg, periods in wedges)
            if axis is not None and k >= 2:
                by_wedge += k * (k - 1) * bernoulli_multiple(z, (axis,), k - 2)
            assert every[k] == bernoulli_cone(cone, z, om, k)
            assert rel(every[k], by_wedge) < 1e-12, (cone, k)


def test_exponential_parity_chain(square):
    # exp(i pi/12 * (lifted(-1) + lifted(+1))) == exp(-i pi/3 * cubic)
    om = GAMMA_OMEGAS["cone-over-square"]
    z = 0.31 + 0.12j
    lifted_sum = bernoulli_cone_lifted(square, z, om, -1.0) + bernoulli_cone_lifted(
        square, z, om, 1.0
    )
    lhs = cmath.exp(1j * math.pi / 12 * lifted_sum)
    rhs = cmath.exp(-1j * math.pi / 3 * bernoulli_cone(square, z, om, 3))
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


# ---------------------------------------------------------------------------
# damping phase


def test_damping_phase_accepts_narrow_arc():
    # the pairings 1 and e^{i 179.5 deg} leave an admissible arc of 0.5 deg,
    # which a scan over whole degrees misses
    rays = [(1, 0), (0, 1)]
    assert _exists_damping_phase(rays, (1.0 + 0j, cmath.exp(1j * math.radians(179.5))))


@pytest.mark.parametrize("p", [1.0 + 0j, 1.0 + 2.0j, -0.3 + 0.7j, 2.9 - 1.3j])
def test_damping_phase_rejects_opposite_pairings(p):
    # a gap of exactly pi leaves no open half-plane; the rounded arguments of
    # p and -p can differ by slightly more than pi, the test must not
    assert not _exists_damping_phase([(1, 0), (0, 1)], (p, -p))


def test_damping_phase_rejects_zero_pairing():
    assert not _exists_damping_phase([(1, 0), (1, 1)], (1.0 + 0j, -1.0 + 0j))


def test_damping_phase_accepts_parallel_pairings():
    assert _exists_damping_phase([(1, 0), (2, 0)], (0.3 - 0.4j, 0.7j))


# ---------------------------------------------------------------------------
# lattice oracle


def _reference_fibers(cone: Cone, radius: int):
    """(base, lo, hi) for every nonempty fiber of the open cone along the last
    axis whose leading coordinates lie within sup-norm ``radius``, one fiber
    at a time in exact rationals; ``lo`` or ``hi`` is None where the fiber is
    unbounded."""
    for base in itertools.product(range(-radius, radius + 1), repeat=cone.dim - 1):
        lows, highs = [], []  # bounds on the last coordinate s
        feasible = True
        for normal in cone.normals:
            # normal . (base, s) >= 1
            need = 1 - sum(x * y for x, y in zip(normal, base))
            a = normal[-1]
            if a > 0:
                lows.append(math.ceil(Fraction(need, a)))
            elif a < 0:
                highs.append(math.floor(Fraction(need, a)))
            elif need > 0:
                feasible = False
        lo = max(lows) if lows else None
        hi = min(highs) if highs else None
        if feasible and not (lows and highs and lo > hi):
            yield base, lo, hi


def _reference_lattice_sum(cone: Cone, omegas: tuple, t: complex, radius: int, exp=cmath.exp):
    """sum of e^{-(omega . m) t} over the interior lattice points m of the
    cone whose leading coordinates lie within sup-norm ``radius``, one fiber
    along the last axis at a time, each summed as a closed geometric series
    (in mpmath when ``exp`` is ``mpmath.exp`` and the numbers are mpmath's)."""
    w = omegas[-1]
    total = 0
    for base, lo, hi in _reference_fibers(cone, radius):
        pairing = sum(x * o for x, o in zip(base, omegas))
        if hi is None:
            total += exp(-(pairing + lo * w) * t) / (1 - exp(-w * t))
        elif lo is None:
            total += exp(-(pairing + hi * w) * t) / (1 - exp(w * t))
        else:
            count = hi - lo + 1
            total += exp(-(pairing + lo * w) * t) * (1 - exp(-count * w * t)) / (1 - exp(-w * t))
    return total


TWO_SIDED_2D = Cone(2, ((0, 1), (1, -1)))
TWO_SIDED_3D = Cone(3, ((1, 0, 1), (0, 1, 1), (1, 1, -1)))
TWO_SIDED_OMEGAS_2D = (0.3 + 0.02j, 0.15 - 0.01j)
# last coordinates 2, 3, -2, -3: the fiber ends move with stride lcm = 6
STRIDE_6_3D = Cone(3, ((4, 1, 2), (4, -1, 3), (4, -1, -2), (4, 1, -3)))
# two prime last coordinates: a stride of about 1e12, far longer than a row
HUGE_STRIDE_2D = Cone(2, ((1, 1000003), (-1, 999983)))


def _expand_runs(runs, dim: int) -> list:
    """The lattice points of ``_fiber_runs`` runs, sorted."""
    points = []
    for line in runs.tolist():
        head, step, count = line[:dim], line[dim:-1], line[-1]
        points += [tuple(h + i * s for h, s in zip(head, step)) for i in range(count)]
    return sorted(points)


@pytest.mark.parametrize(
    "cone", [*FIXTURE_NAMES, TWO_SIDED_2D, TWO_SIDED_3D, STRIDE_6_3D, HUGE_STRIDE_2D],
    ids=[*FIXTURE_NAMES, "two-sided-2d", "two-sided-3d", "stride-6", "huge-stride"],
)
@pytest.mark.parametrize("radius", [2, 5, 40])
def test_oracle_runs_expand_to_the_fiber_ends(cone, radius):
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    bounded, starts, stops = _fiber_runs(cone, radius)
    kinds, want_starts, want_stops = set(), [], []
    for base, lo, hi in _reference_fibers(cone, radius):
        kinds.add("upper" if lo is None else "lower" if hi is None else "both")
        want_starts.append(base + (hi if lo is None else lo,))
        if kinds == {"both"}:
            want_stops.append(base + (hi + 1,))
    assert kinds == {bounded}
    assert _expand_runs(starts, cone.dim) == sorted(want_starts)
    assert (stops is None) == (bounded != "both")
    if stops is not None:
        assert _expand_runs(stops, cone.dim) == sorted(want_stops)
    # the runs do merge points: a fiber end per run would pass the checks above
    assert len(starts) < len(want_starts) or radius == 2


def test_oracle_runs_follow_the_stride():
    # along one residue class mod 6 every normal's bound on the fiber end
    # moves by a constant integer; taken in plain y order the ends break into
    # about 11 times as many runs here
    radius = 200
    bounded, starts, stops = _fiber_runs(STRIDE_6_3D, radius)
    assert bounded == "both"
    for runs in (starts, stops):
        assert len(runs) <= (2 * radius + 1) * 6 * len(STRIDE_6_3D.normals)
        assert runs[:, -1].sum() > 20 * len(runs)  # points per run


# sample points: positive real, slightly complex, turned so that runs along
# y grow on standard-3, and the two complex rays of the lifted oracle
ORACLE_TS = (0.3, 0.9 - 0.05j, 0.3 * cmath.exp(-1.5j), 0.5 * LIFT_RAY[1.0], 0.5 * LIFT_RAY[-1.0])


@pytest.mark.parametrize(
    "cone, omegas, bounded",
    [
        ("wedge21", BERNOULLI_OMEGAS["wedge21"], "lower"),
        ("standard-3", (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j), "lower"),
        ("cone-over-square", BERNOULLI_OMEGAS["cone-over-square"], "upper"),
        (TWO_SIDED_2D, TWO_SIDED_OMEGAS_2D, "both"),
        (TWO_SIDED_3D, (0.5 + 0.01j, 0.4 - 0.02j, 0.1 + 0.015j), "both"),
        ("wedge21", GAMMA_OMEGAS["wedge21"], "lower"),  # as the lifted oracle sums it
        (STRIDE_6_3D, (0.5 + 0.01j, 0.4 - 0.02j, 0.1 + 0.015j), "both"),
    ],
)
@pytest.mark.parametrize("radius", [2, 5, 12])
def test_oracle_lattice_sum_matches_reference(cone, omegas, bounded, radius):
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    fibers = _fiber_exponents(cone, omegas, radius)
    assert fibers[1] == bounded
    orientations = set()
    for t in ORACLE_TS:
        damping = (omegas[-1] * t).real
        if (bounded == "lower" and damping <= 0) or (bounded == "upper" and damping >= 0):
            with pytest.raises(DomainError, match="fiber sums diverge"):
                _fiber_sum(fibers, t)
            continue
        for runs in fibers[2:]:
            if runs is not None:
                orientations.update((runs[2][runs[3] > 1] * t).real < 0)
        ref = _reference_lattice_sum(cone, omegas, t, radius)
        assert ref != 0
        assert abs(_fiber_sum(fibers, t) - ref) < 1e-12 * abs(ref)
    # some summed run was started at its head and some at its tail (at
    # radius 2 some cones have no run of two points)
    assert orientations == {False, True} or radius == 2


def test_oracle_run_sum_starts_at_the_larger_end():
    # for y < 0 the run's terms grow from e^{-1801} at its head to e^{-1.8}
    # at its tail: summed from the head, e^{-1801} underflows to 0 and the
    # ratio's power to e^{1800} overflows
    omegas = BERNOULLI_OMEGAS["wedge21"]
    fibers = _fiber_exponents(fixture_cone("wedge21"), omegas, 2400)
    ref = _reference_lattice_sum(fixture_cone("wedge21"), omegas, 3.0, 2400)
    assert abs(_fiber_sum(fibers, 3.0) - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "cone, omegas",
    [("wedge21", BERNOULLI_OMEGAS["wedge21"]), ("cone-over-square", BERNOULLI_OMEGAS["cone-over-square"])],
)
@pytest.mark.parametrize("t", [1e-4, 1e-4 - 2e-5j])
def test_oracle_fiber_sum_keeps_its_digits_at_small_t(cone, omegas, t):
    # 1 - e^{-wt} loses log10(1 / |wt|) digits, about 4.5 here; expm1 keeps
    # them, and the oracle's degree-14 fit amplifies what is lost
    mp = pytest.importorskip("mpmath")
    cone = fixture_cone(cone)
    with mp.workdps(40):
        ref = _reference_lattice_sum(cone, tuple(map(mp.mpc, omegas)), mp.mpc(t), 5, exp=mp.exp)
        err = abs(mp.mpc(_fiber_sum(_fiber_exponents(cone, omegas, 5), t)) - ref) / abs(ref)
    assert err < 1e-14


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated on top of what was live.

    numpy reports its array buffers to tracemalloc, so the figure counts the
    same bytes on every machine.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()


ONE_AND_TWO_SIDED_3D = [
    ("cone-over-square", BERNOULLI_OMEGAS["cone-over-square"]),
    (TWO_SIDED_3D, (0.5 + 0.01j, 0.4 - 0.02j, 0.1 + 0.015j)),
]


@pytest.mark.parametrize("cone, omegas", ONE_AND_TWO_SIDED_3D, ids=["one-sided", "two-sided"])
def test_oracle_fiber_memory_stays_near_its_output(cone, omegas):
    # building the 3d grid whole held 10-20x the fiber ends' bytes, one
    # sample held two temporaries per fiber end, and a run per fiber end would
    # break the count below
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    radius = 200
    fibers, build_peak = _traced_peak(lambda: _fiber_exponents(cone, omegas, radius))
    kept = [runs for runs in fibers[2:] if runs is not None]
    # a few runs per row: the stride times the normals bounds them
    stride = math.lcm(*(abs(normal[-1]) for normal in cone.normals if normal[-1]))
    rows = (2 * radius + 1) ** (cone.dim - 2)
    for runs in kept:
        assert 0 < len(runs[0]) <= rows * stride * len(cone.normals)
    # one row's int64 products of its points with the normals; the whole
    # grid is 2 * radius + 1 = 401 such rows
    row_bytes = (2 * radius + 1) * len(cone.normals) * 8
    assert build_peak < 40 * row_bytes
    # one sample: a few complex numbers per run
    _, sum_peak = _traced_peak(lambda: _fiber_sum(fibers, 0.3))
    assert sum_peak < 6 * 16 * max(len(runs[0]) for runs in kept)


@pytest.mark.parametrize("cone, omegas", ONE_AND_TWO_SIDED_3D, ids=["one-sided", "two-sided"])
def test_oracle_fiber_sum_leaves_exponents_intact(cone, omegas):
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    fibers = _fiber_exponents(cone, omegas, 12)
    kept = [None if runs is None else [arr.copy() for arr in runs] for runs in fibers[2:]]
    first = _fiber_sum(fibers, 0.3)
    _fiber_sum(fibers, 0.9 - 0.05j)
    _fiber_sum(fibers, 0.5 * LIFT_RAY[1.0])  # reverses some runs
    assert _fiber_sum(fibers, 0.3) == first
    for runs, copies in zip(fibers[2:], kept):
        assert (runs is None and copies is None) or all(map(np.array_equal, runs, copies))


def test_oracle_matches_cone_polynomial_on_two_sided_cone():
    z = 0.27 - 0.11j
    val = bernoulli_cone(TWO_SIDED_2D, z, TWO_SIDED_OMEGAS_2D, 2)
    oracle = bernoulli_cone_oracle(TWO_SIDED_2D, z, TWO_SIDED_OMEGAS_2D, 2)
    assert abs(val - oracle) < 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 5},  # fewer samples than the degree needs
        {"degree": 14, "samples": 14},
        {"radius": -3},
        {"radius": 0},
        {"t_window": (0.0, 1.0)},
        {"t_window": (-0.5, 1.0)},
        {"t_window": (0.4, 0.4)},
        {"n": 2, "degree": 1},
        {"n": -1},
        {"n": 2.0, "radius": 50},  # non-integer counts, refused before any lattice work
        {"degree": 14.0, "radius": 50},
        {"samples": 56.0, "radius": 50},
        {"radius": 50.0},
        {"radius": "50"},
    ],
)
def test_oracle_rejects_bad_arguments(w21, kwargs):
    kwargs = {"n": 2, **kwargs}
    n = kwargs.pop("n")
    with pytest.raises(DomainError):
        bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, BERNOULLI_OMEGAS["wedge21"], n, **kwargs)


def test_oracle_reads_a_bool_order_as_an_integer(w21):
    # operator.index(True) == 1, as in bernoulli_multiple
    om = BERNOULLI_OMEGAS["wedge21"]
    assert bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, om, True, radius=50) == bernoulli_cone_oracle(
        w21, Z_BERNOULLI_2D, om, 1, radius=50
    )


def test_oracle_accepts_reversed_window(w21):
    om = BERNOULLI_OMEGAS["wedge21"]
    reverse = bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, om, 2, t_window=(1.0, 0.1))
    assert abs(reverse - bernoulli_cone(w21, Z_BERNOULLI_2D, om, 2)) < 1e-8
