"""Infinite products: q-shifted factorials, theta, elliptic gamma levels,
multiple sine, and their functional equations."""
from __future__ import annotations

import cmath
import math
import sys
import time
from contextlib import nullcontext
from random import Random
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conesine import (
    BudgetError,
    DomainError,
    EvalConfig,
    e2,
    elliptic_gamma,
    multiple_sine,
    qfactorial,
    qfactorial_xq,
)
from conesine import qseries
from conesine.errors import ConesineError
from conesine.qseries import DEFAULT_CONFIG, _Budget, _QPlan, _cheaper_form, _log_shift_target, _qfac_planned, _row_steps

import qseries_reference
from identities import (
    elliptic_gamma_gluing_check,
    elliptic_gamma_modularity_check,
    elliptic_gamma_three_term_check,
    q_theta_modularity_check,
    qfactorial_gluing_check,
)
from params import forced_form, rel


def _draw_z(rng: Random) -> complex:
    return complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.45, 0.45))


def _draw_omega(rng: Random, sign: int) -> complex:
    return complex(rng.uniform(-0.5, 0.5), sign * rng.uniform(0.25, 0.7))


SIGN_CASES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# configuration and guards


def test_config_orders_tolerances():
    with pytest.raises(DomainError):
        EvalConfig(tail_tol=1.0)
    with pytest.raises(DomainError):
        EvalConfig(tail_tol=0.0)
    with pytest.raises(DomainError):
        EvalConfig(max_terms=10)


@pytest.mark.parametrize("setting, value, message", [
    ("max_terms", "5000000", "max_terms must be an integer"),
    ("max_terms", math.inf, "max_terms must be an integer"),
    ("max_terms", 5000.5, "max_terms must be an integer"),
    ("max_terms", True, "max_terms must be an integer"),
    pytest.param("max_terms", None, "max_terms must be an integer", id="max_terms-None"),
    ("max_terms", math.nan, "max_terms must be an integer"),
    ("tail_tol", "1e-14", "tail_tol must be a real number"),
    pytest.param("tail_tol", None, "tail_tol must be a real number", id="tail_tol-None"),
    ("tail_tol", False, "tail_tol must be a real number"),
    ("tail_tol", math.nan, "tolerances must satisfy"),
])
def test_config_refuses_settings_of_the_wrong_type(setting, value, message):
    with pytest.raises(DomainError, match=message):
        EvalConfig(**{setting: value})


def test_config_takes_an_integral_float_as_an_int():
    cfg = EvalConfig(max_terms=5e6)
    assert cfg == DEFAULT_CONFIG
    assert type(cfg.max_terms) is int


def test_config_holds_only_the_evaluation_settings():
    # reports and eval records show this dict as their config block
    assert EvalConfig().to_json_dict() == {"tail_tol": 1e-14, "max_terms": 5000000}


def test_resonance_guard_rejects_real_periods():
    with pytest.raises(DomainError):
        qfactorial(0.3 + 0.2j, (0.5, 0.25 + 0.4j))


def test_budget_cap_is_enforced():
    # |x| near 1 with |q| very near 1 forces thousands of argument-reduction
    # steps, exhausting a small term budget
    with pytest.raises(BudgetError):
        qfactorial(0.3 + 0.001j, (0.25 + 1e-5j,), EvalConfig(max_terms=1000))


@pytest.mark.parametrize("z, omegas", [
    (0.31 - 0.17j, (0.2 + 0.001j, 0.3 + 0.0013j)),  # the log series overflows to nan
    (0.5, (0.001j, 0.0013j)),  # cmath.exp of the log series raises OverflowError
])
def test_non_finite_qfactorial_raises_domain_error(z, omegas):
    with pytest.raises(DomainError, match=r"\|x\| = .* min \|1 - \|q\|\| = 0\.0062"):
        qfactorial(z, omegas)


@pytest.mark.parametrize("fn, args", [
    # every factor 1 - 0.5 * 0.999999^k is positive; the log series reaches about -5.8e5
    (qfactorial_xq, (0.5, (0.999999,))),
    # the two q-factorials' log series reach -5007 and -10223; nothing vanishes
    (multiple_sine, (0.3 + 0.01j, (1, 0.3 + 2e-7j))),
    # the row (x q^k | 0.999) of the shift loop on q = 0.5 underflows
    (qfactorial_xq, (0.7, (0.5, 0.999))),
], ids=["qfac", "s2", "row"])
def test_q_factorial_that_underflows_is_domain_error(fn, args):
    # qfactorial_xq returned 0j, and s2 was refused as a pole of the inverted product
    with pytest.raises(DomainError, match="the q-factorial underflows"):
        fn(*args)


@pytest.mark.parametrize("qs", [(0.5,), (0.3, 0.5), (0.5, 0.3 + 0.1j, 0.2)])
def test_vanishing_factor_gives_exact_zero(qs):
    # the factor 1 - x is exactly 0, in the shift loop or in a row of it
    assert qfactorial_xq(1.0, qs) == 0
    # inverted, the zero is a pole
    with pytest.raises(DomainError, match="pole of the inverted product"):
        qfactorial_xq(2.0, (2.0, *qs[1:]))


def test_vanishing_x_gives_empty_product():
    assert qfactorial_xq(0.0, (0.3 + 0.1j, 0.2 - 0.05j)) == 1.0


def test_period_whose_reciprocal_underflows_is_dropped():
    # 1 / (1e308 + 1e308j) underflows to zero, the limit q = 0 of the inverted period
    assert qfactorial_xq(5.0, (1e308 + 1e308j, 0.5j)) == 1.0


def test_no_periods_gives_single_factor():
    x = 0.37 - 0.22j
    assert qfactorial_xq(x, ()) == 1.0 - x


def test_empty_period_gamma_is_exponential():
    z = 0.41 + 0.19j
    assert elliptic_gamma(z, ()) == -e2(-z)


# ---------------------------------------------------------------------------
# q-factorial functional equations, all modulus sign patterns


def test_shift_identity_every_sign_pattern():
    rng = Random(11)
    for s0, s1 in SIGN_CASES:
        for _ in range(12):
            z = _draw_z(rng)
            w0, w1 = _draw_omega(rng, s0), _draw_omega(rng, s1)
            lhs = qfactorial(z + w0, (w0, w1))
            rhs = qfactorial(z, (w0, w1)) / qfactorial(z, (w1,))
            assert rel(lhs, rhs) < 1e-10


def test_inversion_identity_every_sign_pattern():
    rng = Random(12)
    for s0, s1 in SIGN_CASES:
        for _ in range(12):
            z = _draw_z(rng)
            w0, w1 = _draw_omega(rng, s0), _draw_omega(rng, s1)
            product = qfactorial(z, (w0, w1)) * qfactorial(z - w0, (-w0, w1))
            assert abs(product - 1.0) < 1e-10


def test_gluing_identity_three_modulus_cases():
    z = 0.23 - 0.11j
    cases = (
        (0.31 + 0.52j, -0.17 + 0.43j),  # both moduli below 1
        (0.31 + 0.52j, 0.11 - 0.28j),  # second above 1, combined below
        (0.31 + 0.22j, 0.11 - 0.61j),  # combined above 1
    )
    for w0, w1 in cases:
        assert qfactorial_gluing_check(z, w0, w1) < 1e-10


def test_gluing_identity_with_spectator_period():
    res = qfactorial_gluing_check(0.23 - 0.11j, 0.31 + 0.52j, 0.11 - 0.28j, rest=(0.07 + 0.66j,))
    assert res < 1e-10


def test_gluing_identity_random_points():
    rng = Random(13)
    for _ in range(20):
        z = _draw_z(rng)
        w0 = _draw_omega(rng, 1)
        w1 = _draw_omega(rng, rng.choice((1, -1)))
        if abs((w0 + w1).imag) < 0.05:
            w0 += 0.2j
        assert qfactorial_gluing_check(z, w0, w1) < 1e-10


def test_truncation_policy_is_self_consistent():
    z, om = 0.23 - 0.11j, (0.31 + 0.52j, -0.17 + 0.43j)
    loose = qfactorial(z, om, EvalConfig(tail_tol=1e-8))
    tight = qfactorial(z, om, EvalConfig(tail_tol=5e-9))
    assert abs(loose - tight) < 1e-8
    g_loose = elliptic_gamma(z, om, EvalConfig(tail_tol=1e-8))
    g_tight = elliptic_gamma(z, om, EvalConfig(tail_tol=5e-9))
    assert abs(g_loose - g_tight) < 1e-8


# ---------------------------------------------------------------------------
# the scalar q-factorial core


def _qfac_small(x: complex, qs: tuple[complex, ...], cfg: EvalConfig, budget: _Budget) -> complex:
    """(x | qs) with every |q| < 1 and x finite, charged to a budget the caller holds
    (``_qfac_planned`` on a plan of ``qs``)."""
    return _qfac_planned(x, _QPlan(qs), cfg, budget) if qs else 1.0 - x


# the second period of each set has |q| > 1 and is inverted
@pytest.mark.parametrize("qs", [
    (0.3 + 0.4j, 2.0 - 1.0j),  # the reciprocal of the inverted period is the shift period
    (0.6j, -1.5 + 0.5j, 0.2 - 0.1j),  # the shift period sits between the two row periods
])
def test_row_plan_holds_the_parent_periods_less_the_shift_period(qs):
    plan = _QPlan(qs)
    assert plan.inverted == [qs[1]] and 1 / qs[1] in plan.qs
    rows, j = plan.rows(), plan.jmin
    assert plan.absq[j] == min(plan.absq)
    assert rows.qs == plan.qs[:j] + plan.qs[j + 1 :]
    assert rows.absq == plan.absq[:j] + plan.absq[j + 1 :]
    assert plan.rows() is rows


def _qfac_reference(x: complex, qs: tuple[complex, ...], cfg: EvalConfig, budget: _Budget) -> complex:
    """The q-factorial core without specialisation: one recursive call per shift
    step down to the shift target, one budget charge per term, and the tail bound
    over |q_j|^{n+1}."""
    if not qs:
        return 1.0 - x
    prefactor = 1.0 + 0j
    absq = [abs(q) for q in qs]
    jmin = absq.index(min(absq))
    target = math.exp(_log_shift_target(math.log(absq[jmin]), len(qs)))
    while abs(x) >= target:
        budget.spend()
        prefactor *= _qfac_reference(x, qs[:jmin] + qs[jmin + 1 :], cfg, budget)
        x = x * qs[jmin]
    ax = abs(x)
    if ax == 0:
        return prefactor
    acc = 0j
    xn, axn, qn, aqn, n = x, ax, list(qs), list(absq), 1
    while True:
        budget.spend()
        denom = 1.0 + 0j
        for q in qn:
            denom *= 1.0 - q
        acc += xn / (n * denom)
        bound = axn * ax / ((n + 1) * (1.0 - ax))
        for a, a1 in zip(aqn, absq):
            bound /= 1.0 - a * a1
        if bound < cfg.tail_tol:
            break
        xn *= x
        axn *= ax
        for j in range(len(qn)):
            qn[j] *= qs[j]
            aqn[j] *= absq[j]
        n += 1
    return prefactor * cmath.exp(-acc)


def _draw_modulus(rng: Random) -> float:
    return 1.0 - 10.0 ** -rng.uniform(0.3, 3.0)  # 0.5 up to 0.999


@pytest.mark.parametrize("r, x_max", [(1, 1.6), (2, 1.3), (3, 1.1)])
def test_qfac_core_matches_reference_loop(r, x_max):
    rng = Random(17 + r)
    for trial in range(40):
        mods = [_draw_modulus(rng) for _ in range(r)]
        if r == 3:
            mods[rng.randrange(3)] = rng.uniform(0.05, 0.6)  # one fast period keeps the loop short
        qs = tuple(cmath.rect(m, rng.uniform(-math.pi, math.pi)) for m in mods)
        # |x| alternately below and above this call's shift target
        target = math.exp(_log_shift_target(math.log(min(mods)), r))
        ax = rng.uniform(0.05 * target, target) if trial % 2 else rng.uniform(target, max(x_max, target))
        x = cmath.rect(ax, rng.uniform(-math.pi, math.pi))
        fast, slow = _Budget(DEFAULT_CONFIG.max_terms), _Budget(DEFAULT_CONFIG.max_terms)
        got = _qfac_small(x, qs, DEFAULT_CONFIG, fast)
        want = _qfac_reference(x, qs, DEFAULT_CONFIG, slow)
        assert rel(got, want) <= 1e-13, (x, qs)
        assert abs(fast.left - slow.left) <= 1, (x, qs)
        # the up-front checks refuse no call that fits: the terms it spends are enough
        exact = _Budget(DEFAULT_CONFIG.max_terms - fast.left)
        assert _qfac_small(x, qs, DEFAULT_CONFIG, exact) == got and exact.left == 0, (x, qs)


def test_tail_bound_uses_the_next_power_of_q():
    # |x| = 0.986 sits above the shift threshold, |q| = 0.9975 and 0.981; a tail
    # bound over |q|^{n(n+1)} in place of |q|^{n+1} stopped the series early (1.1e-13)
    mpmath = pytest.importorskip("mpmath")
    x = 0.44552165212294337 + 0.8793663015557731j
    qs = (0.20154052799057817 + 0.9769418748019446j, 0.26635148089514654 + 0.9437500624711211j)
    with mpmath.workdps(40):
        mx, mq = mpmath.mpc(x), [mpmath.mpc(q) for q in qs]
        ax, aq = abs(mx), [abs(q) for q in mq]
        acc, n, xn, qn, an = mpmath.mpc(0), 1, mx, list(mq), [a * a for a in aq]
        while True:
            acc += xn / (n * (1 - qn[0]) * (1 - qn[1]))
            tail = abs(xn) * ax / ((n + 1) * (1 - ax) * (1 - an[0]) * (1 - an[1]))
            if tail < mpmath.mpf("1e-32"):
                break
            xn, n = xn * mx, n + 1
            qn, an = [u * q for u, q in zip(qn, mq)], [u * a for u, a in zip(an, aq)]
        want = mpmath.exp(-acc)
        err = abs(mpmath.mpc(qfactorial_xq(x, qs)) - want) / abs(want)
    assert err < 2e-14


def test_budget_checked_before_the_shift_loop():
    # |x| = e^10 with |q| = e^{-2e-6} needs 5.1M shift steps, more than max_terms
    x = cmath.rect(math.exp(10.0), 0.3)
    q = cmath.rect(math.exp(-2e-6), 1.1)
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        qfactorial_xq(x, (q,))
    assert time.perf_counter() - start < 1.0
    budget = _Budget(DEFAULT_CONFIG.max_terms)
    with pytest.raises(BudgetError):
        _qfac_small(x, (q,), DEFAULT_CONFIG, budget)
    assert budget.left == DEFAULT_CONFIG.max_terms


def test_row_steps_bound_the_shift_steps_of_the_rows():
    # the closed form against the rows (x q^k | reduced) of one shift loop, each row's
    # shift steps counted as _qfac_small counts them; off by at most two per row
    rng = Random(23)
    for _ in range(200):
        r = rng.choice((2, 3))
        qs = tuple(cmath.rect(_draw_modulus(rng), rng.uniform(-math.pi, math.pi)) for _ in range(r))
        x = cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi))
        absq = tuple(abs(q) for q in qs)
        jmin = absq.index(min(absq))
        log_a = math.log(absq[jmin])
        steps = max(0, math.ceil(math.log(math.exp(_log_shift_target(log_a, r)) / abs(x)) / log_a))
        reduced = absq[:jmin] + absq[jmin + 1 :]
        log_a1 = math.log(min(reduced))
        row_target = math.exp(_log_shift_target(log_a1, r - 1))
        counted, row = 0, x
        for _ in range(steps):
            if abs(row) >= row_target:
                counted += math.ceil(math.log(row_target / abs(row)) / log_a1)
            row *= qs[jmin]
        bound = _row_steps(abs(x), log_a, steps, log_a1, _log_shift_target(log_a1, r - 1))
        assert bound <= counted <= bound + 2 * steps + 1, (x, qs)


def test_nested_budget_checked_before_the_outer_shift_loop():
    # |x| = e^4 shifted on |q0| = 1/2 gives 7 rows, each a one-period shift loop on
    # |q1| = e^{-2e-6} of up to 2M steps: 6.8M in all, more than max_terms
    x = cmath.rect(math.exp(4.0), 0.3)
    qs = (cmath.rect(0.5, 0.7), cmath.rect(math.exp(-2e-6), 1.1))
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        qfactorial_xq(x, qs)
    assert time.perf_counter() - start < 0.1
    budget = _Budget(DEFAULT_CONFIG.max_terms)
    with pytest.raises(BudgetError):
        _qfac_small(x, qs, DEFAULT_CONFIG, budget)
    assert budget.left == DEFAULT_CONFIG.max_terms


@pytest.mark.parametrize("x, qs", [
    (complex("nan"), (0.3 + 0.1j,)),
    (complex("inf"), (0.3 + 0.1j,)),
    (0.5, (complex("nan"), 0.2j)),
])
def test_non_finite_input_raises_domain_error(x, qs):
    with pytest.raises(DomainError, match="finite argument and finite periods"):
        qfactorial_xq(x, qs)


# ---------------------------------------------------------------------------
# the prepared q-factorial against the reference core: == values, the same
# refusals and the same terms charged to each budget

# |q| far inside the unit circle, inside and outside it down to 3e-4 away, and far outside
_REF_MODULI = st.one_of(
    st.floats(0.05, 0.6),
    st.floats(0.3, 3.5).map(lambda u: 1.0 - 10.0 ** -u),
    st.floats(0.3, 3.5).map(lambda u: 1.0 / (1.0 - 10.0 ** -u)),
    st.floats(1.7, 20.0),
)
_PHASES = st.floats(-math.pi, math.pi)
# a small budget keeps the near-circle calls short: they are refused, as the reference refuses them
_REF_CONFIG = EvalConfig(max_terms=20_000)


@st.composite
def _qfac_calls(draw, inside: bool = False):
    """(x, qs) with 1-4 periods, moduli from ``_REF_MODULI`` (below 1 only, if ``inside``),
    and |x| from e^-2.5 to e^2.5 times the shift target of the periods after inversion."""
    r = draw(st.integers(1, 4))
    moduli = st.one_of(st.floats(0.05, 0.6), st.floats(0.3, 3.5).map(lambda u: 1.0 - 10.0 ** -u))
    mods = draw(st.lists(moduli if inside else _REF_MODULI, min_size=r, max_size=r))
    qs = tuple(cmath.rect(m, draw(_PHASES)) for m in mods)
    log_target = _log_shift_target(-max(abs(math.log(m)) for m in mods), r)
    offset = draw(st.floats(-2.5, 2.5))
    event("above the shift target" if offset >= 0 else "below the shift target")
    # x is divided by each q with |q| > 1 before the shift loop
    log_ax = log_target + offset + sum(math.log(m) for m in mods if m > 1)
    return cmath.rect(math.exp(log_ax), draw(_PHASES)), qs


@st.composite
def _gamma_calls(draw):
    """(z, omegas) with 1-4 periods whose nomes have moduli from ``_REF_MODULI``, and
    |e^{2 pi i z}| from e^-3.8 to e^3.8."""
    mods = draw(st.lists(_REF_MODULI, min_size=1, max_size=4))
    omegas = tuple(complex(draw(st.floats(-0.5, 0.5)), -math.log(m) / (2 * math.pi)) for m in mods)
    return complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.6, 0.6))), omegas


def _outcome(fn, *args):
    """The repr of ``fn(*args)`` (exact to the bit, nan and the sign of a zero included),
    or the type and message of the ConesineError it raises, and the terms left in each
    ``_Budget`` made during the call, in order."""
    budgets = []

    class Recorded(_Budget):
        def __init__(self, max_terms):
            super().__init__(max_terms)
            budgets.append(self)

    with mock.patch.object(qseries, "_Budget", Recorded), mock.patch.object(qseries_reference, "_Budget", Recorded):
        try:
            value = repr(fn(*args))
        except ConesineError as exc:
            value = (type(exc), str(exc))
    return value, [budget.left for budget in budgets]


_UNDERFLOW = (DomainError, qseries._UNDERFLOW)


def _reference_underflows(run) -> bool:
    """True where ``run()``, a call of the reference core, forms a q-factorial, or a row
    of one, of 0 or below the normal double range: there the library refuses the call as
    an underflow, where the reference returns what is left, or reports a pole."""
    values = []
    core = qseries_reference._qfac_small

    def recorded(*args, **kwargs):
        values.append(core(*args, **kwargs))
        return values[-1]

    with mock.patch.object(qseries_reference, "_qfac_small", recorded):
        try:
            run()
        except (ConesineError, OverflowError):
            pass
    # not abs(): on a complex with a nan part it can raise OverflowError
    return any(math.hypot(v.real, v.imag) < sys.float_info.min for v in values)


@settings(max_examples=300, deadline=None)
@given(_qfac_calls())
# the log series reaches -940: the reference returns 0j
@example(call=(complex(0.7288357610721542), (complex(0.999),)))
def test_qfactorial_xq_matches_the_reference_core(call):
    x, qs = call
    got = _outcome(qfactorial_xq, x, qs, _REF_CONFIG)
    event("refused" if isinstance(got[0], tuple) else "value")
    if got[0] == _UNDERFLOW:
        assert _reference_underflows(lambda: qseries_reference.qfactorial_xq(x, qs, _REF_CONFIG))
    else:
        assert got == _outcome(qseries_reference.qfactorial_xq, x, qs, _REF_CONFIG)


@settings(max_examples=200, deadline=None)
@given(_qfac_calls(inside=True))
@example(call=(complex(0.7288357610721542), (complex(0.999),)))
def test_qfac_small_matches_the_reference_core(call):
    x, qs = call
    outcomes = []
    for fn in (_qfac_small, qseries_reference._qfac_small):
        budget = _Budget(_REF_CONFIG.max_terms)
        try:
            value = repr(fn(x, qs, _REF_CONFIG, budget))
        except (BudgetError, DomainError, OverflowError) as exc:  # OverflowError: exp of the log series
            value = (type(exc), str(exc))
        outcomes.append((value, budget.left))
    if outcomes[0][0] == _UNDERFLOW:
        budget = _Budget(_REF_CONFIG.max_terms)
        assert _reference_underflows(lambda: qseries_reference._qfac_small(x, qs, _REF_CONFIG, budget))
    else:
        assert outcomes[0] == outcomes[1]


@settings(max_examples=200, deadline=None)
@given(_gamma_calls())
# both q-factorials are finite, their product is not: the reference returns 70.33-inf*j
@example(call=(complex(1.1125369292536007e-308, 0.0), (complex(0.0, -0.08906561888218836),)))
# the numerator's log series reaches -939 and the denominator vanishes: the reference returns 0j
@example(call=(0j, (0.00015923457365490972j,)))
def test_elliptic_gamma_matches_the_reference_core(call):
    z, omegas = call
    got = _outcome(elliptic_gamma, z, omegas, _REF_CONFIG)
    event("refused" if isinstance(got[0], tuple) else "value")
    want = _outcome(qseries_reference.elliptic_gamma, z, omegas, _REF_CONFIG)
    if got[0] == _UNDERFLOW:
        assert _reference_underflows(lambda: qseries_reference.elliptic_gamma(z, omegas, _REF_CONFIG))
    elif isinstance(want[0], str) and not cmath.isfinite(complex(want[0])):
        # the reference core does not check the combined value; elliptic_gamma refuses it
        assert got[0][0] is DomainError and "elliptic gamma is not finite" in got[0][1]
    else:
        assert got == want


@pytest.mark.parametrize("z, tau", [
    (1.1125369292536007e-308, -0.08906561888218836j),
    (-0.4977920813097638 + 0.001j, 0.00011648242185494838 + 0.00012032765163390222j),
], ids=["minus-inf-imag", "inf-nan"])
def test_elliptic_gamma_that_is_not_finite_is_domain_error(z, tau):
    # each q-factorial is finite but their product is not: g0 returned
    # 70.33-inf*i and inf+nan*i, and `eval g0` wrote Infinity and NaN into its record
    with pytest.raises(DomainError, match=r"elliptic gamma is not finite at z = "):
        elliptic_gamma(z, (tau,))


def test_shift_steps_past_the_underflow_of_target_over_x_are_domain_error():
    # |x| = e^697 against a shift target of about e^-56: target / |x| underflows
    # to 0 and math.log raised ValueError ("math domain error"); the step count
    # comes from the difference of the logs, and the product then overflows
    with pytest.raises(DomainError, match="q-factorial is not finite"):
        qfactorial(0.1 - 111j, (0.2 + 5j,))


@pytest.mark.parametrize("x, qs", [
    # three periods with rows on two and one: every loop of the shift recursion
    (cmath.rect(1.4, 0.3), (cmath.rect(0.9, 1.0), cmath.rect(0.97, -2.0), cmath.rect(0.6, 0.4))),
    # four periods, one inverted, and the general series loop
    (cmath.rect(2.0, -0.7), (cmath.rect(1.05, 1.0), cmath.rect(0.8, -2.0), cmath.rect(0.7, 0.4), cmath.rect(0.5, 2.9))),
])
def test_prepared_q_factorial_matches_the_reference_at_the_default_budget(x, qs):
    assert _outcome(qfactorial_xq, x, qs, DEFAULT_CONFIG) == _outcome(qseries_reference.qfactorial_xq, x, qs, DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# theta level


def test_theta_vanishes_at_integer_points():
    assert elliptic_gamma(0.0, (1j,)) == 0.0
    assert abs(elliptic_gamma(1.0, (1j,))) < 1e-14


def test_theta_modularity():
    for tau in (1j, 2j):
        assert q_theta_modularity_check(0.3 + 0.2j, tau) < 1e-10


def test_theta_modularity_small_imaginary_part():
    assert q_theta_modularity_check(0.3 + 0.2j, 0.05j) < 1e-8


def test_theta_modularity_requires_upper_half_plane():
    with pytest.raises(DomainError):
        q_theta_modularity_check(0.3, -0.5j)


# ---------------------------------------------------------------------------
# elliptic gamma hierarchy: functional equations for levels 0, 1, 2


def _draw_level_omegas(rng: Random, count: int) -> tuple:
    oms = []
    for _ in range(count):
        sign = rng.choice((1, 1, -1))
        oms.append(_draw_omega(rng, sign))
    return tuple(oms)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_gamma_periodicity(level):
    rng = Random(20 + level)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_level_omegas(rng, level + 1)
        assert rel(elliptic_gamma(z + 1, om), elliptic_gamma(z, om)) < 1e-10


@pytest.mark.parametrize("level", [0, 1, 2])
def test_gamma_period_shift_recursion(level):
    rng = Random(30 + level)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_level_omegas(rng, level + 1)
        j = rng.randrange(level + 1)
        reduced = om[:j] + om[j + 1 :]
        lhs = elliptic_gamma(z + om[j], om)
        rhs = elliptic_gamma(z, reduced) * elliptic_gamma(z, om)
        assert rel(lhs, rhs) < 1e-10


@pytest.mark.parametrize("level", [0, 1, 2])
def test_gamma_inversion(level):
    rng = Random(40 + level)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_level_omegas(rng, level + 1)
        product = elliptic_gamma(-z, tuple(-w for w in om)) * elliptic_gamma(z, om)
        assert abs(product - 1.0) < 1e-10


@pytest.mark.parametrize("level", [1, 2])
def test_gamma_sign_flip_pair(level):
    rng = Random(50 + level)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_level_omegas(rng, level + 1)
        j = rng.randrange(level + 1)
        flipped = om[:j] + (-om[j],) + om[j + 1 :]
        reduced = om[:j] + om[j + 1 :]
        lhs = elliptic_gamma(z, om) * elliptic_gamma(z, flipped)
        rhs = 1.0 / elliptic_gamma(z, reduced)
        assert rel(lhs, rhs) < 1e-10


def test_gamma_sign_flip_pair_zeroth_level():
    rng = Random(53)
    for _ in range(20):
        z = _draw_z(rng)
        (w,) = _draw_level_omegas(rng, 1)
        lhs = elliptic_gamma(z, (w,)) * elliptic_gamma(z, (-w,))
        rhs = 1.0 / elliptic_gamma(z, ())
        assert rel(lhs, rhs) < 1e-10


def test_gamma_gluing():
    z = 0.23 - 0.11j
    assert elliptic_gamma_gluing_check(z, (0.31 + 0.52j, -0.17 + 0.43j)) < 1e-10
    assert elliptic_gamma_gluing_check(z, (0.31 + 0.52j, -0.17 + 0.43j, 0.09 + 0.39j)) < 1e-10


def test_gamma_gluing_rejects_resonant_combination():
    with pytest.raises(DomainError):
        elliptic_gamma_gluing_check(0.23, (0.31 + 0.52j, 0.11 - 0.52j))


def test_gamma_first_level_modularity():
    rng = Random(60)
    for _ in range(5):
        z = _draw_z(rng)
        om = (
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.7)),
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.7)),
        )
        assert elliptic_gamma_modularity_check(z, om, variant=1) < 1e-8
        assert elliptic_gamma_modularity_check(z, om, variant=2) < 1e-8


def test_gamma_three_term_exponential():
    rng = Random(61)
    for _ in range(5):
        z = _draw_z(rng)
        om = tuple(
            complex(rng.uniform(-0.25, 0.25), rng.uniform(0.35, 0.65)) for _ in range(3)
        )
        assert elliptic_gamma_three_term_check(z, om) < 1e-8


# ---------------------------------------------------------------------------
# multiple sine


def test_sine_single_period_closed_form():
    rng = Random(70)
    for _ in range(10):
        z = _draw_z(rng)
        w = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.4, 0.4))
        expect = 2 * cmath.sin(math.pi * z / w)
        assert rel(multiple_sine(z, (w,)), expect) < 1e-12


def _draw_sine_omegas(rng: Random, count: int) -> tuple:
    # periods in a common half-plane with non-real pairwise ratios
    return tuple(
        complex(rng.uniform(0.6, 1.5), rng.uniform(-0.35, 0.35)) for _ in range(count)
    )


@pytest.mark.parametrize("count", [2, 3])
def test_sine_two_product_forms_agree(count):
    rng = Random(71 + count)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_sine_omegas(rng, count)
        with forced_form(1):
            a = multiple_sine(z, om)
        with forced_form(2):
            b = multiple_sine(z, om)
        assert a != b  # each form evaluated: neither refused and fell back to the other
        assert rel(a, b) < 1e-9


@pytest.mark.parametrize("count", [2, 3])
def test_sine_reflection(count):
    rng = Random(74 + count)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_sine_omegas(rng, count)
        val = multiple_sine(z, om)
        refl = multiple_sine(sum(om) - z, om)
        expect = val if count % 2 == 1 else 1.0 / val
        assert rel(refl, expect) < 1e-9


@pytest.mark.parametrize("count", [2, 3])
def test_sine_rescaling_invariance(count):
    rng = Random(77 + count)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_sine_omegas(rng, count)
        c = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.8, 0.8))
        scaled = multiple_sine(c * z, tuple(c * w for w in om))
        assert rel(scaled, multiple_sine(z, om)) < 1e-9


@pytest.mark.parametrize("count", [2, 3])
def test_sine_default_form_is_the_predicted_cheaper_form(count):
    # bit for bit the form _cheaper_form names from the additive ratios, not the other
    rng = Random(80 + count)
    for _ in range(20):
        z = _draw_z(rng)
        om = _draw_sine_omegas(rng, count)
        ratios = [(z / wk, tuple(w / wk for j, w in enumerate(om) if j != k)) for k, wk in enumerate(om)]
        form = _cheaper_form(ratios)
        with forced_form(form):
            cheaper = multiple_sine(z, om)
        with forced_form(3 - form):
            other = multiple_sine(z, om)
        assert multiple_sine(z, om) == cheaper != other


def test_cheaper_form_takes_form_1_on_a_tie():
    # log|x| = 0 and moduli e^{-+0.1}: after the inversion both forms shift
    # |x| = e^{-0.1} on a = e^{-0.1}, about 2.2 steps each
    assert _cheaper_form([(0.3 + 0j, (0.2 + 0.016j, 0.1 - 0.016j))]) == 1
    # |x| = e^{-+0.0063} tips the balance
    assert _cheaper_form([(0.3 + 0.001j, (0.2 + 0.016j, 0.1 - 0.016j))]) == 1
    assert _cheaper_form([(0.3 - 0.001j, (0.2 + 0.016j, 0.1 - 0.016j))]) == 2


@pytest.mark.parametrize("z, omegas, costly", [
    # wedge sines of a fresh-cones run: 57,096 terms in form 1 against 767 in
    # form 2, and 191 in form 1 against 43,824 in form 2
    (21.60629941679724 - 0.629656167168011j,
     (4.627272713225974 - 0.04999170892469498j, 21.911183411048874 - 0.2295834269910712j,
      31.844211011618633 - 0.34451272196153887j), 1),
    (7.897695600895085 + 0.6669090057558635j,
     (2.4606515139027176 + 0.05316098816215051j, 7.898035504284316 + 0.26279757333395404j,
      5.870745336740937 + 0.19519847062437992j), 2),
], ids=["form-2-cheaper", "form-1-cheaper"])
def test_sine_default_form_takes_fewer_terms(z, omegas, costly):
    # under a 20,000-term budget only the cheaper form evaluates
    # (BudgetError is no refusal of the domain: the other form is not tried)
    small = EvalConfig(max_terms=20_000)
    with pytest.raises(BudgetError), forced_form(costly):
        multiple_sine(z, omegas, small)
    with forced_form(3 - costly):
        cheaper = multiple_sine(z, omegas)
    assert multiple_sine(z, omegas, small) == cheaper


@pytest.mark.parametrize("factors", [
    [(complex(0.1, math.inf), (0.3 + 0.5j,))],
    [(complex(0.1, 1e308), (0.3 + 0.5j,))],  # -2 pi Im u overflows
    [(0.2 - 3j, (complex(0.3, math.nan),))],
    [(0.2 - 3j, (0.7 + 0j,))],  # a modulus on the unit circle
], ids=["inf-argument", "huge-argument", "nan-period", "real-period"])
def test_cheaper_form_is_form_1_on_input_it_cannot_rank(factors):
    # form 1 then raises its documented refusal
    assert _cheaper_form(factors) == 1


@pytest.mark.parametrize("z, omegas, form, match", [
    # e^{i pi B_33 / 3!} underflows to exactly 0 in form 2 (form 1's overflows),
    # and form 1's in the conjugate point: form 2 returned -0+0j
    (0.3 - 200j, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j), 2, r"prefactor .* underflows at B_rr"),
    (0.3 + 200j, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j), 1, r"prefactor .* underflows at B_rr"),
    (0.3 - 200j, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j), None, r"prefactor .* underflows at B_rr"),
    # form 1 tried first at the same point: its overflow names the refusal, not form 2's underflow
    (0.3 - 200j, (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j), 1, r"prefactor .* overflows at B_rr"),
    # finite nonzero factors whose partial product falls below the normal
    # range: form 1 returned 0j, form 2 a subnormal -2.6e-309+1.7e-308j
    (0.15130776221629616 + 0.3762591927254597j,
     (0.8704806815163761 + 0.023676198515367543j, -0.4028163113452101 + 0.0006359375459398824j,
      -0.6595763765154045 - 0.024166252140033772j), 1, r"multiple sine product underflows at z = 0\.151308"),
    # the same point by default: form 2, the cheaper, overflows in a q-factorial and its
    # refusal stands, although the value exists
    (0.15130776221629616 + 0.3762591927254597j,
     (0.8704806815163761 + 0.023676198515367543j, -0.4028163113452101 + 0.0006359375459398824j,
      -0.6595763765154045 - 0.024166252140033772j), None, r"q-factorial is not finite at \|x\| = 14\.6461"),
    (-0.7057518288273457 - 0.18767738118803878j,
     (-0.3081305191028475 - 0.00165308764940537j, -0.353613775309969 + 0.008830923434472721j,
      0.6261568114809601 - 0.0005467514210255945j), 2, r"multiple sine product underflows at z = -0\.705752"),
], ids=["prefactor-form-2", "prefactor-form-1", "prefactor-default", "prefactor-form-1-overflows", "product-form-1",
        "product-default", "product-form-2"])
def test_sine_underflow_raises_domain_error(z, omegas, form, match):
    # both forms refuse each point; the form tried first names the refusal
    with pytest.raises(DomainError, match=match), nullcontext() if form is None else forced_form(form):
        multiple_sine(z, omegas)


def test_sine_rejects_real_period_ratio():
    with pytest.raises(DomainError):
        multiple_sine(0.3 + 0.1j, (1.0 + 0.2j, 2.0 + 0.4j))


@pytest.mark.parametrize("z, omegas, match", [
    # the third wedge factor of `eval s3c --z 0.1787-0.7960i --omega -0.9429-0.000937i
    # --omega 0.9457-0.001022i --omega 0.3323-0.000873i --cone cone-over-square`:
    # e^{2 pi i z / omega_2} overflows
    (-0.1536 - 0.795127j, (-0.9429 - 0.000937j, -0.3323 + 0.000873j, 0.0028 - 0.001959j),
     r"\|x\| = exp\(1359\.79\) with period ratios omega_j / omega_2 = \(-225\.9"),
    # e^{i pi B_33 / 3!} overflows
    (-1.4525728589968356 + 2.250679391172347j,
     (0.04186824526320021 + 0.27451426589314987j, -0.5191850476022506 - 0.000471176563210366j,
      0.00424457189228411 - 0.0012234823485826425j),
     r"prefactor .* overflows at B_rr"),
    # every factor is finite but their product is nan
    (-1.3183025410484737 - 0.8324830209262348j,
     (-0.0551227672295207 + 0.001482701347745538j, 0.38110594175219337 + 0.035433311886875284j),
     r"not finite at z = -1\.3183"),
    (0.5 + 300j, (1.0,), r"single sine overflows at z / omega = 0\.5\+300j"),
    # z / omega overflows to infinity: cmath.sin raises ValueError, or returns nan
    (1e300, (1e-300,), r"single sine overflows at z / omega = inf\+0j"),
    (1e308 + 1e308j, (0.1,), r"single sine overflows at z / omega = inf\+infj"),
    # non-finite input, as `eval s1` reads --z nan, --z 1e309 or --omega 1e309
    (complex("nan"), (1.0,), r"single sine needs a finite argument and period, got z = \(nan\+0j\)"),
    (complex("1e309"), (1.0,), r"single sine needs a finite argument and period, got z = \(inf\+0j\)"),
    (0.3, (complex("1e309"),), r"single sine needs a finite argument and period, got z = 0\.3, omega = \(inf\+0j\)"),
], ids=["x-overflow", "prefactor-overflow", "nan-product", "single-sine", "single-sine-inf-ratio",
        "single-sine-nan-value", "single-sine-nan-z", "single-sine-inf-z", "single-sine-inf-period"])
def test_sine_overflow_raises_domain_error(z, omegas, match):
    # each multi-period case names a form-1 factor: form 1 tried first, both forms refuse
    with pytest.raises(DomainError, match=match), forced_form(1):
        multiple_sine(z, omegas)


@pytest.mark.parametrize("fn, omegas", [
    (qfactorial, (0.3 + 0.5j,)),
    (elliptic_gamma, (0.3 + 0.5j, 0.2 + 0.4j)),
], ids=["qfactorial", "gamma-1"])
def test_argument_modulus_beyond_double_range_raises_domain_error(fn, omegas):
    # e^{2 pi i z} at z = 0.125 - 112.99i has finite parts, 1.48e308 each, but a
    # modulus above double range: abs(x) raised a raw OverflowError
    with pytest.raises(DomainError, match=r"argument x = 1\.48338e\+308\+1\.48338e\+308j has a modulus above"):
        fn(0.125 - 112.99j, omegas)


# e^{2 pi i omega} at omega = 0.125 - 113i has finite parts, 1.58e308 each, but a modulus above double range
HUGE_PERIOD = 0.125 - 113j


@pytest.mark.parametrize("fn, omegas", [
    (qfactorial_xq, (e2(HUGE_PERIOD),)),
    (qfactorial, (HUGE_PERIOD,)),
    (elliptic_gamma, (HUGE_PERIOD, 0.1 + 113j)),
], ids=["qfactorial_xq", "qfactorial", "gamma-1"])
def test_period_modulus_beyond_double_range_raises_domain_error(fn, omegas):
    # abs(q) raised a raw OverflowError
    with pytest.raises(DomainError, match=r"period q = 1\.5\d*e\+308\+1\.5\d*e\+308j has a modulus above double precision"):
        fn(0.3, omegas)


@pytest.mark.parametrize("z, match", [
    (math.nan, r"needs a finite argument, got z = nan"),
    (math.inf, r"needs a finite argument, got z = inf"),
    # e^{-2 pi i z} would be a finite 0 here, but z itself is not finite
    (complex(0.0, -math.inf), r"needs a finite argument, got z = -infj"),
    # 2 pi i z overflows to an infinite exponent before cmath.exp sees it
    (0.3 + 1e308j, r"empty-period elliptic gamma -e\^\(-2 pi i z\) overflows at z = 0\.3\+1e\+308j"),
], ids=["nan", "inf", "minus-inf-imag", "inf-exponent"])
def test_empty_period_gamma_refuses_non_finite(z, match):
    with pytest.raises(DomainError, match=match):
        elliptic_gamma(z, ())


INF = math.inf


@pytest.mark.parametrize("fn, z, omegas, exponent", [
    # 2 pi i omega overflows to an infinite imaginary part: cmath.exp raised ValueError
    (qfactorial, 0.3, (1e308 + 0.5j,), r"\(-3\.14159\d*\+infj\)"),
    (qfactorial, 0.3, (complex(INF, 0.5),), r"\(nan\+infj\)"),
    # an infinite imaginary period or argument gives a nan imaginary part:
    # cmath.exp returned a finite 0, read as q = 0
    (elliptic_gamma, 0.1, (complex(0, INF),), r"\(-inf\+nanj\)"),
    (qfactorial, complex(0.3, INF), (0.5j,), r"\(-inf\+nanj\)"),
    (elliptic_gamma, 0.1, (complex(0.2, INF), 0.3 + 1j), r"\(-inf\+nanj\)"),
    (elliptic_gamma, complex(INF), (1j,), r"\(nan-infj\)"),
], ids=["qfac-huge-period", "qfac-inf-real-period", "theta-inf-imag-period", "qfac-inf-imag-z",
        "gamma-1-inf-imag-period", "theta-inf-z"])
def test_non_finite_exponent_raises_domain_error(fn, z, omegas, exponent):
    with pytest.raises(DomainError, match=r"^exp is undefined at exponent " + exponent):
        fn(z, omegas)


@pytest.mark.parametrize("fn, omegas", [
    (qfactorial, (0.2 + 0.5j,)),
    (elliptic_gamma, (1j,)),
    (elliptic_gamma, (0.2 + 0.5j, 0.1 + 0.7j)),
], ids=["qfactorial", "theta", "gamma-1"])
def test_exp_overflow_raises_domain_error(fn, omegas):
    # e^{2 pi i z} overflows double precision before any product is formed
    with pytest.raises(DomainError, match=r"exponent real part 1256\.64"):
        fn(0.3 - 200j, omegas)
