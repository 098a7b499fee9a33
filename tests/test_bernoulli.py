"""Multi-period Bernoulli polynomials and their cone-restricted forms."""
from __future__ import annotations

import cmath
import functools
import inspect
import math
import sys
import warnings
from fractions import Fraction
from operator import mul
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    _barnes_series,
    _cone_sum,
    _exists_damping_phase,
    _piece_sum,
)
from conesine.generalized import _sample_gamma_params
from conesine.lattice_cones import det3

from cone_strategies import planar_cones, polygon_cones
from params import (
    BERNOULLI_OMEGAS,
    GAMMA_OMEGAS,
    LIFT_RAY,
    STRESS_CONES,
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


@pytest.mark.parametrize("n", [2.0, 2.5, "2", None, True])
def test_order_must_be_an_integer(w21, n):
    # True was read as 1
    with pytest.raises(DomainError, match="order must be an integer"):
        bernoulli_multiple(0.3, (1.0,), n)
    with pytest.raises(DomainError, match="order must be an integer"):
        bernoulli_cone(w21, Z_BERNOULLI_2D, BERNOULLI_OMEGAS["wedge21"], n)


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


def test_nan_periods_are_domain_error_after_an_underflow_left_errno_set():
    # math.exp(-1000) leaves errno at ERANGE; abs() of a complex with a nan part
    # then raised OverflowError ("absolute value too large") from the refusal's
    # message on CPython 3.11, so the outcome hung on an earlier, unrelated call
    n = complex("nan+nanj")
    math.exp(-1000)
    with pytest.raises(DomainError, match="order-3 Bernoulli polynomial is not finite at z = nan"):
        bernoulli_multiple(n, (n, n, n), 3)


# ---------------------------------------------------------------------------
# exact and independent references


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0..B_{count-1} from sum_{j<k+1} C(k+1, j) B_j = 0, with B_1 = -1/2."""
    b = [Fraction(1)]
    for k in range(1, count):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


@functools.cache
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


def test_log_series_table_is_exact():
    # c_k of log(t / (e^t - 1)) by the series logarithm of sum_k B_k t^k / k!
    # (l' = b' / b): the recursion's k G_k reads c_1 = B_1 and
    # k c_k = -B_k / k! off the table of B_k / k!
    b = [bk / math.factorial(k) for k, bk in enumerate(_bernoulli_numbers(MAX_ORDER + 1))]
    c = [Fraction(0)]
    for k in range(1, MAX_ORDER + 1):
        c.append((k * b[k] - sum(j * c[j] * b[k - j] for j in range(1, k))) / k)
    assert c == [0, Fraction(-1, 2), Fraction(-1, 24), 0, Fraction(1, 2880), 0, Fraction(-1, 181440), 0,
                 Fraction(1, 9676800)]
    assert c[1] == b[1] and all(k * c[k] == -b[k] for k in range(2, MAX_ORDER + 1))


def test_log_series_recursion_is_exact_on_rationals():
    # in Fractions, with the exact table, the recursion with any period as
    # ``big`` is the product of Bernoulli-number series term for term
    rng = Random(3)
    table = [bk / math.factorial(k) for k, bk in enumerate(_bernoulli_numbers(MAX_ORDER + 1))]
    for r in range(1, 5):
        for _ in range(4):
            z = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            om = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9)) for _ in range(r))
            exact = [_exact_bernoulli(z, om, n)[0] for n in range(MAX_ORDER + 1)]
            for i in range(r):
                values = _barnes_series(z, om[i], om[:i] + om[i + 1:], MAX_ORDER, table)
                assert values == exact, (z, om, i)


@pytest.mark.parametrize(
    "z, omegas, n",
    [
        (0.3, (1e60, 1.0, 1.0), 3),
        (0.3, (1.0, 1e60, 1.0), 5),
        (0.3, (1e30, 1.0, 2.0), 7),
        (0.3, (1e100, -3e99, 1.0), 3),
        (0.3, (1e155,), 2),
        (0.3, (1e155, 1e155), 2),
        (0.0, (1.0,), 3),
        (0.0, (-1.0,), 5),
    ],
)
def test_far_larger_period_keeps_its_digits(z, omegas, n):
    # the largest period's odd Barnes terms stay exact zeros, and power sums
    # that overflow are summed again at a power-of-two scale: no digits lost
    # to terms of size max |omega|^n, and no refusal of a finite value
    exact = float(_exact_bernoulli(Fraction(z), tuple(map(Fraction, omegas)), n)[0])
    value = bernoulli_multiple(z, omegas, n)
    assert abs(value - exact) <= 1e-12 * abs(exact), (value, exact)


@pytest.mark.parametrize(
    "z, omegas, n",
    [
        (0.3, (1e50, 1.1e50, 0.9e50), 8),  # the power sums overflow
        (0.3 * 2**600, (2**600, 1.1 * 2**600, 0.9 * 2**600, 0.7 * 2**600), 4),  # so does 1 / prod(omegas)
        # far below one, z^n and omega^n underflow while B_{1,0} = 1 / omega stays normal:
        # these read -2.30e-180 and -2.03e-268 without the retry
        (31 / 3 * 2**-600, (14 / 3 * 2**-600,), 2),
        (31 / 3 * 2**-300, (14 / 3 * 2**-300,), 4),
    ],
)
def test_periods_far_above_one_keep_their_digits(z, omegas, n):
    exact = float(_exact_bernoulli(Fraction(z), tuple(map(Fraction, omegas)), n)[0])
    value = bernoulli_multiple(z, omegas, n)
    assert abs(value - exact) <= 1e-12 * abs(exact), (value, exact)


def _rational_draws():
    """(z, omegas, n) in small rationals: 3 draws for each r in 1..4 and n in 0..MAX_ORDER."""
    rng = Random(7)
    for r in range(1, 5):
        for n in range(MAX_ORDER + 1):
            for _ in range(3):
                z = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                om = tuple(
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
                    for _ in range(r)
                )
                yield z, om, n


def test_plain_polynomial_matches_exact_rationals():
    for z, om, n in _rational_draws():
        exact, size = _exact_bernoulli(z, om, n)
        value = bernoulli_multiple(float(z), tuple(map(float, om)), n)
        # relative to the cancelling terms, not to the value, which
        # vanishes at the polynomial's zeros
        assert abs(value - float(exact)) <= 1e-13 * float(size), (z, om, n)


@pytest.mark.parametrize("k", range(-600, 601, 20))
def test_plain_polynomial_matches_exact_rationals_at_every_scale(k):
    # the draws above with z and omegas times 2^k, where B_{r,j} is 2^{k(j-r)} times its
    # unscaled value: a value may be refused only where an entry of degree j <= n leaves
    # double range
    tiny, huge, scale = Fraction(sys.float_info.min), Fraction(sys.float_info.max), Fraction(2) ** k
    for z, om, n in _rational_draws():
        r = len(om)
        try:
            value = bernoulli_multiple(float(z * scale), tuple(float(w * scale) for w in om), n)
        except DomainError:
            entries = [_exact_bernoulli(z, om, j)[0] * scale ** (j - r) for j in range(n + 1)]
            assert any(e and not tiny <= abs(e) <= huge for e in entries), (z, om, n)
            continue
        exact, size = (x * scale ** (n - r) for x in _exact_bernoulli(z, om, n))
        # an exact value below the normal range may round to a subnormal or to 0
        slack = Fraction(2.0**-1074) if abs(exact) < tiny else 0
        error = abs(Fraction(value.real) - exact) + abs(Fraction(value.imag))
        assert error <= Fraction(1e-13) * size + slack, (z, om, n, value)


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
        axis, wedges = cone.wedges(z, om)
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


def _arc_scan_damping_phase(rays, omegas):
    """The damping check as it was written before its plain-loop form: a closure per pairing."""
    pairings = [sum(r[k] * omegas[k] for k in range(len(omegas))) for r in rays]
    if any(p == 0 for p in pairings):
        return False

    def starts_arc(p):
        for q in pairings:
            cross = p.real * q.imag - p.imag * q.real
            if cross < 0 or (cross == 0 and p.real * q.real + p.imag * q.imag < 0):
                return False
        return True

    return any(starts_arc(p) for p in pairings)


# small integer parts, so that zero, parallel and exactly opposite pairings are common
_small_complex = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=5),
    st.tuples(*[_small_complex] * d),
)))
def test_damping_phase_answers_as_the_arc_scan(case):
    rays, omegas = case
    assert _exists_damping_phase(rays, omegas) is _arc_scan_damping_phase(rays, omegas)


# ---------------------------------------------------------------------------
# lattice oracle

# The oracle sums the parallelepiped pieces of ``Cone.pieces`` in closed form.
# That the pieces partition the open cone is checked in integers in
# ``test_lattice_cones``; here their sum is checked against the wedge chain in
# exact rationals, and the oracle against the closed forms.

# B_k / k! in rationals: with it the plain polynomials are exact on Fractions
EXACT_TABLE = [bk / math.factorial(k) for k, bk in enumerate(_bernoulli_numbers(MAX_ORDER + 1))]


def _exact_upto(z, periods, n):
    return _barnes_series(z, periods[0], periods[1:], n, EXACT_TABLE)


def _damped_point(cone: Cone, rng: Random) -> tuple:
    """z and periods whose real parts pair positively with every edge ray: a
    positive combination of the normals, so that ray = 1 damps the lattice sum."""
    c = [rng.uniform(0.2, 1.0) for _ in cone.normals]
    re = [sum(ci * v[k] for ci, v in zip(c, cone.normals)) for k in range(cone.dim)]
    om = tuple(complex(x, rng.uniform(-0.3, 0.3)) for x in re)
    return _rand_z(rng), om


@pytest.mark.parametrize("cones", [planar_cones, polygon_cones()], ids=["2d", "3d"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pieces_sum_to_the_wedge_chain_exactly(cones, data):
    # two partitions of the open cone, summed in rationals: the pieces share
    # no wedge chain and no Gorenstein frame with the closed form
    cone, rng = data.draw(cones), data.draw(st.randoms(use_true_random=False))
    z = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    om = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 90), rng.randint(1, 12)) for _ in range(cone.dim))
    axis, wedges = cone.wedges(z, om)
    assume(axis != 0 and all(p != 0 for _, periods in wedges for p in periods))
    assume(all(sum(map(mul, v, om)) != 0 for piece in cone.pieces for v in piece.rays))
    # every degree of a wedge's polynomial from one recursion
    chain = [sum(col) for col in zip(*(_exact_upto(arg, periods, 4) for arg, periods in wedges))]
    if axis is not None:
        for n, b in enumerate(_exact_upto(z, (axis,), 2), start=2):
            chain[n] += n * (n - 1) * b
    for n in range(5):
        assert _piece_sum(cone.pieces, z, om, (), n, _exact_upto) == chain[n], (cone, z, om, n)


@pytest.mark.parametrize("cones", [planar_cones, polygon_cones()], ids=["2d", "3d"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_oracle_agrees_with_the_closed_forms_on_random_cones(cones, data):
    cone, rng = data.draw(cones), data.draw(st.randoms(use_true_random=False))
    z, om = _damped_point(cone, rng)
    eta = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3))
    pairs = [(bernoulli_cone_oracle(cone, z, om, n), bernoulli_cone(cone, z, om, n)) for n in range(5)]
    pairs.append((bernoulli_cone_oracle(cone, z, om, cone.dim + 1, eta=eta), bernoulli_cone_lifted(cone, z, om, eta)))
    for n, (oracle, closed) in enumerate(pairs):
        assert abs(oracle - closed) <= 1e-12 * max(1.0, abs(closed)), (cone, z, om, n)


def test_oracle_refuses_a_cone_with_too_many_parallelepiped_points():
    # two primes above 2^32: about 8.6e9 points, where the sampled oracle summed fiber runs
    giant = Cone(2, ((1, 4294967311), (-1, 4294967357)))
    with pytest.raises(DomainError, match="parallelepiped points, more than"):
        bernoulli_cone_oracle(giant, *_damped_point(giant, Random(1)), 2)


# positive weights of the normals: real periods that damp every edge ray
DYADIC_WEIGHTS = (Fraction(3, 4), Fraction(5, 8), Fraction(1, 2), Fraction(7, 8))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, "lifted"])
@pytest.mark.parametrize(
    "cone",
    [*FIXTURE_NAMES, *(STRESS_CONES[name] for name in ("two-sided-2d", "two-sided-3d", "stride-6", "stride-105",
                                                        "lone-bend"))],
    ids=[*FIXTURE_NAMES, "two-sided-2d", "two-sided-3d", "stride-6", "stride-105", "lone-bend"],
)
def test_oracle_keeps_its_digits_against_the_exact_piece_sum(cone, order):
    # at dyadic z and periods the floats are exact, so the oracle differs from
    # the same pieces summed in rationals by its rounding alone, over up to
    # 680 points; most of these cones have no closed form to compare with
    cone = fixture_cone(cone) if isinstance(cone, str) else cone
    assert len(cone.normals) <= len(DYADIC_WEIGHTS)
    om = tuple(sum(w * v[k] for w, v in zip(DYADIC_WEIGHTS, cone.normals)) for k in range(cone.dim))
    z, eta = Fraction(-3, 8), Fraction(9, 8)
    n, lift = (cone.dim + 1, (eta,)) if order == "lifted" else (order, ())
    exact = _piece_sum(cone.pieces, z, om, lift, n, _exact_upto)
    oracle = bernoulli_cone_oracle(cone, float(z), tuple(map(float, om)), n, eta=float(eta) if lift else None)
    assert oracle.imag == 0
    assert abs(Fraction(oracle.real) - exact) <= Fraction(1e-12) * max(1, abs(exact)), (oracle, float(exact))


TWO_SIDED_2D = Cone(2, ((0, 1), (1, -1)))
TWO_SIDED_OMEGAS_2D = (0.3 + 0.02j, 0.15 - 0.01j)


def test_oracle_matches_cone_polynomial_on_two_sided_cone():
    z = 0.27 - 0.11j
    val = bernoulli_cone(TWO_SIDED_2D, z, TWO_SIDED_OMEGAS_2D, 2)
    oracle = bernoulli_cone_oracle(TWO_SIDED_2D, z, TWO_SIDED_OMEGAS_2D, 2)
    assert abs(val - oracle) < 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 0},  # radius and samples no longer change the value, but must be positive
        {"n": 9},  # above MAX_ORDER
        {"radius": -3},
        {"radius": 0},
        {"samples": -1},
        {"samples": "56", "radius": 50},
        {"n": None, "radius": 50},
        {"n": 15},
        {"n": -1},
        {"n": 2.0, "radius": 50},  # non-integer counts
        {"n": "2", "radius": 50},
        {"samples": 56.0, "radius": 50},
        {"radius": 50.0},
        {"radius": "50"},
        # bools, refused as counts although each would be valid as 0 or 1
        {"n": True, "radius": 50},
        {"n": False, "radius": 50},
        {"samples": True, "radius": 50},
        {"radius": True},
    ],
)
def test_oracle_rejects_bad_arguments(w21, kwargs):
    kwargs = {"n": 2, **kwargs}
    n = kwargs.pop("n")
    with pytest.raises(DomainError):
        bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, BERNOULLI_OMEGAS["wedge21"], n, **kwargs)


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0.1, math.inf)])
def test_oracle_refuses_a_z_that_is_not_finite(w21, z):
    # it returned (nan+nanj)
    with pytest.raises(DomainError, match="must be finite"):
        bernoulli_cone_oracle(w21, z, BERNOULLI_OMEGAS["wedge21"], 2, radius=50)


def test_oracle_refuses_the_wrong_number_of_periods(w21):
    # numpy's matmul raised a raw ValueError on the shape mismatch
    with pytest.raises(DomainError, match="a 2d cone takes 2 periods, got 3"):
        bernoulli_cone_oracle(w21, Z_BERNOULLI_2D, (*BERNOULLI_OMEGAS["wedge21"], 0.5), 2, radius=50)


def test_oracle_agrees_at_a_z_far_from_the_damping_scale(w21):
    # z = 3000 made e^{zt} overflow in the sampled oracle's window, which refused
    om = BERNOULLI_OMEGAS["wedge21"]
    value = bernoulli_cone_oracle(w21, 3000, om, 2, radius=50)
    assert rel(value, bernoulli_cone(w21, 3000, om, 2)) < 1e-12
    assert rel(value, 1.585248e8 - 3.213453e6j) < 1e-6


@pytest.mark.parametrize("omegas, n, closed", [
    # finite samples near 1e306 overflowed the sampled oracle's fit: 98 RuntimeWarnings, then (nan+nanj)
    ((0.7 + 1e307j, 1.5), 3, -0.12 - 1.5e306j),
    # the sampled oracle raised a raw OverflowError; the polynomial itself overflows
    ((0.7 + 1e300j, 1.5), 8, None),
], ids=["fit", "power"])
def test_oracle_agrees_with_the_closed_form_at_a_huge_period(std2, omegas, n, closed):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if closed is None:
            for route in (bernoulli_cone, bernoulli_cone_oracle):
                with pytest.raises(DomainError, match="not finite"):
                    route(std2, 0.3, omegas, n)
        else:
            value = bernoulli_cone_oracle(std2, 0.3, omegas, n)
            assert rel(value, bernoulli_cone(std2, 0.3, omegas, n)) < 1e-12
            assert rel(value, closed) < 1e-12


def test_oracle_meets_its_2d_tolerance_when_a_period_is_far_larger_than_its_real_part(std2):
    # the sampled oracle gave 5.3e6+5.2e7i against the closed form 0.378+111.1i: its damping
    # rescale left a truncation tail near e^-0.4
    z, omegas = 0.3, (0.7 + 1000j, 1.5)
    assert abs(bernoulli_cone_oracle(std2, z, omegas, 2) - bernoulli_cone(std2, z, omegas, 2)) < 1e-8


def test_oracle_keywords_are_the_ones_the_benchmark_binds():
    # perfbench's traced run binds radius and samples by name, with None for
    # the dimension's default radius
    params = inspect.signature(bernoulli_cone_oracle).parameters
    assert [k for k, p in params.items() if p.kind is p.KEYWORD_ONLY] == ["radius", "ray", "samples", "eta"]
    assert params["radius"].default is None
