"""Multivariate q-shifted factorials, multiple sine and elliptic gamma
functions, and residual checks for their functional equations.

The central primitive is the infinite product

    (x | q_0, ..., q_r) = prod_{j_0, ..., j_r >= 0} (1 - x q_0^{j_0} ... q_r^{j_r})

defined for all |q_i| < 1 and extended to mixed moduli by inverting every
|q_i| > 1: each inversion multiplies the argument by that q's reciprocal and
flips the product to its reciprocal, so an odd number of inversions yields
1 over the all-small product.  |q_i| = 1 (including near-resonant values) is
outside the domain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

from .bernoulli import bernoulli_multiple
from .errors import BudgetError, DomainError

TWO_PI_I = 2j * math.pi
RESONANCE_FLOOR = 1e-6
X_REDUCTION_THRESHOLD = 0.75


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation budget and tolerances shared by all numeric routines.

    ``tail_tol`` bounds every truncated tail (so values carry roughly that
    relative accuracy), ``comparison_tol`` is the default pass threshold for
    identity residuals, ``max_terms`` caps series iterations, and
    ``oracle_radius`` is the default lattice truncation of the 2d
    ``gamma_cone_lattice_oracle`` only (the 3d one uses 40, and the
    Bernoulli oracle does not read the config).
    """

    tail_tol: float = 1e-14
    comparison_tol: float = 1e-8
    max_terms: int = 5_000_000
    oracle_radius: int = 60

    def __post_init__(self):
        if not (0 < self.tail_tol < self.comparison_tol < 1):
            raise DomainError(
                "tolerances must satisfy 0 < tail_tol < comparison_tol < 1, got "
                f"tail_tol={self.tail_tol}, comparison_tol={self.comparison_tol}"
            )
        if self.max_terms < 1000:
            raise DomainError("max_terms is too small to evaluate anything")
        if self.oracle_radius < 1:
            raise DomainError("oracle_radius must be positive")

    def to_json_dict(self) -> dict:
        """The four settings by name, as reports and CLI records show them."""
        return asdict(self)


DEFAULT_CONFIG = EvalConfig()


def _exp(w: complex) -> complex:
    """cmath.exp(w), raising DomainError where the value overflows double precision."""
    try:
        return cmath.exp(w)
    except OverflowError:
        raise DomainError(f"exp overflows double precision at exponent real part {w.real:.6g}") from None


def e2(w: complex) -> complex:
    """exp(2 pi i w); DomainError where that overflows double precision."""
    return _exp(TWO_PI_I * w)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, max_terms: int):
        self.left = max_terms

    def spend(self, k: int = 1):
        """Charge k terms; BudgetError, with nothing charged, if fewer are left."""
        if k > self.left:
            raise BudgetError("evaluation exceeded the configured max_terms budget")
        self.left -= k


def _qfac_small(x: complex, qs: tuple[complex, ...], cfg: EvalConfig, budget: _Budget, absq=None) -> complex:
    """(x | qs) with every |q| < 1 and x finite, via the shift identity and a log series.

    ``absq`` holds the moduli of ``qs``: the top-level call computes them and
    passes each recursive call its share.
    """
    if not qs:
        return 1.0 - x
    if absq is None:
        absq = tuple(abs(q) for q in qs)
    prefactor = 1.0 + 0j
    ax = abs(x)
    if ax >= X_REDUCTION_THRESHOLD:
        # shift identity (x | qs) = (x | qs without q) (x q | qs) on the smallest |q|; the
        # step count is closed-form, so the budget is checked before any step is taken
        jmin = absq.index(min(absq))
        q = qs[jmin]
        steps = math.ceil(math.log(X_REDUCTION_THRESHOLD / ax) / math.log(absq[jmin]))
        budget.spend(steps)
        reduced, reduced_abs = qs[:jmin] + qs[jmin + 1 :], absq[:jmin] + absq[jmin + 1 :]
        for _ in range(steps):
            prefactor *= _qfac_small(x, reduced, cfg, budget, reduced_abs) if reduced else 1.0 - x
            x *= q
        ax = abs(x)
    if ax == 0:
        return prefactor
    # log form: -sum_{n>=1} x^n / (n prod_j (1 - q_j^n)).  After term n the tail is at most
    # |x|^{n+1} / ((n+1)(1-|x|) prod_j (1 - |q_j|^{n+1})); the loop stops once that is below
    # tail_tol.  The running products hold q_j^n and |q_j|^{n+1}.
    c, tol = ax / (1.0 - ax), cfg.tail_tol
    acc, xn, axn, n = 0j, x, ax, 1
    if len(qs) == 1:
        (q,), (a,) = qs, absq
        qn, an = q, a * a
        while True:
            acc += xn / (n * (1.0 - qn))
            if axn * c < tol * (n + 1) * (1.0 - an):
                break
            xn, axn, n = xn * x, axn * ax, n + 1
            qn, an = qn * q, an * a
    elif len(qs) == 2:
        (q0, q1), (a0, a1) = qs, absq
        q0n, q1n, a0n, a1n = q0, q1, a0 * a0, a1 * a1
        while True:
            acc += xn / (n * ((1.0 - q0n) * (1.0 - q1n)))
            if axn * c < tol * (n + 1) * ((1.0 - a0n) * (1.0 - a1n)):
                break
            xn, axn, n = xn * x, axn * ax, n + 1
            q0n, q1n = q0n * q0, q1n * q1
            a0n, a1n = a0n * a0, a1n * a1
    else:
        qn, an = list(qs), [a * a for a in absq]
        while True:
            denom = 1.0 + 0j
            for u in qn:
                denom *= 1.0 - u
            acc += xn / (n * denom)
            rhs = tol * (n + 1)
            for u in an:
                rhs *= 1.0 - u
            if axn * c < rhs:
                break
            xn, axn, n = xn * x, axn * ax, n + 1
            for j in range(len(qn)):
                qn[j] *= qs[j]
                an[j] *= absq[j]
    budget.spend(n)
    return prefactor * cmath.exp(-acc)


def qfactorial_xq(x: complex, qs: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The q-shifted factorial on raw multiplicative arguments.

    ``qs`` may mix moduli above and below 1 but none may sit on (or within
    the resonance floor of) the unit circle.  Factors whose q underflowed to
    exactly zero contribute their exact limit and are dropped.  A value that
    overflows or is not finite raises DomainError.
    """
    x = complex(x)
    if not (cmath.isfinite(x) and all(cmath.isfinite(q) for q in qs)):
        raise DomainError("the q-factorial needs a finite argument and finite periods")
    ax = abs(x)
    clean: list[complex] = []
    invert: list[complex] = []
    for q in qs:
        q = complex(q)
        if q == 0:
            continue
        m = abs(q)
        if abs(math.log(m)) < RESONANCE_FLOOR:
            raise DomainError(
                f"|q| = {m} is within {RESONANCE_FLOOR} of the unit circle: "
                "the product does not converge (resonant or near-resonant periods)"
            )
        if m > 1:
            invert.append(q)
        else:
            clean.append(q)
    for q in invert:
        x = x / q
    budget = _Budget(cfg.max_terms)
    try:
        val = _qfac_small(x, tuple(clean) + tuple(1.0 / q for q in invert), cfg, budget)
    except OverflowError:  # cmath.exp of the log series
        val = complex(math.nan)
    if len(invert) % 2 == 1:
        if val == 0:
            raise DomainError("evaluation point is a pole of the inverted product")
        val = 1.0 / val
    if not cmath.isfinite(val):
        gap = min((abs(1.0 - abs(q)) for q in clean + invert), default=math.inf)
        raise DomainError(
            f"q-factorial is not finite at |x| = {ax:.6g} with min |1 - |q|| = {gap:.6g}: "
            "the product overflows double precision"
        )
    return val


def qfactorial(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The q-shifted factorial in additive parameters.

    Evaluates (e^{2 pi i z} | e^{2 pi i omega_0}, ..., e^{2 pi i omega_r}).
    Any omega with integer real part shift changes nothing; omegas with
    vanishing imaginary part are rejected by the resonance guard.
    """
    return qfactorial_xq(e2(z), tuple(e2(w) for w in omegas), cfg)


# ---------------------------------------------------------------------------
# multiple elliptic gamma hierarchy


def elliptic_gamma(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The r-th elliptic gamma function, r = len(omegas) - 1 >= -1.

    g_0 is the theta-like product; each level is
    (e^{2 pi i (-z + sum omegas)} | q) times (e^{2 pi i z} | q)^{(-1)^r}.
    Depends on z and each omega only modulo 1.  The empty-period level
    (the base case of the period-shift recursion) is -e^{-2 pi i z}.
    """
    omegas = tuple(complex(w) for w in omegas)
    r = len(omegas) - 1
    if r == -1:
        return -e2(-z)
    qs = tuple(e2(w) for w in omegas)
    num = qfactorial_xq(e2(-z + sum(omegas)), qs, cfg)
    den = qfactorial_xq(e2(z), qs, cfg)
    if r % 2 == 0:
        return num * den
    if den == 0:
        raise DomainError("evaluation point is a pole (the denominator product vanishes)")
    return num / den


def q_theta(z: complex, tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The Jacobi-type theta product (x q | q)(x^{-1} q ... ); level 0 of the elliptic gamma family."""
    return elliptic_gamma(z, (tau,), cfg)


# ---------------------------------------------------------------------------
# multiple sine hierarchy


def multiple_sine(
    z: complex,
    omegas: tuple[complex, ...],
    cfg: EvalConfig = DEFAULT_CONFIG,
    form: int = 1,
) -> complex:
    """The r-th multiple sine, r = len(omegas) >= 1, via its factorization.

    ``form`` selects between the two equivalent boundary factorizations
    (form 1 uses ratios e^{2 pi i z / omega_k}, form 2 their reciprocals);
    both need every pairwise ratio omega_j / omega_k off the real axis for
    r >= 2.  r = 1 is 2 sin(pi z / omega).
    """
    omegas = tuple(complex(w) for w in omegas)
    r = len(omegas)
    if r < 1:
        raise DomainError("the multiple sine needs at least one period")
    if any(w == 0 for w in omegas):
        raise DomainError("periods must be nonzero")
    if form not in (1, 2):
        raise DomainError("form must be 1 or 2")
    if r == 1:
        try:
            return 2.0 * cmath.sin(math.pi * z / omegas[0])
        except OverflowError:
            raise DomainError(f"single sine overflows at z / omega = {z / omegas[0]:.6g}") from None
    sign = 1 if (r % 2 == 0) == (form == 1) else -1
    b = bernoulli_multiple(z, omegas, r)
    try:
        val = cmath.exp(sign * 1j * math.pi / math.factorial(r) * b)
    except OverflowError:
        raise DomainError(
            f"multiple sine prefactor e^(i pi B_rr / r!) overflows at B_rr = {b:.6g}"
        ) from None
    flip = 1 if form == 1 else -1
    for k in range(r):
        wk = omegas[k]
        try:
            x = e2(flip * z / wk)
            qs = tuple(e2(flip * omegas[j] / wk) for j in range(r) if j != k)
        except DomainError:
            log_ax = -2 * math.pi * (flip * z / wk).imag
            ratios = ", ".join(f"{omegas[j] / wk:.6g}" for j in range(r) if j != k)
            raise DomainError(
                f"multiple sine overflows at |x| = exp({log_ax:.6g}) with period ratios "
                f"omega_j / omega_{k} = ({ratios}): e^(2 pi i z / omega_{k}) exceeds double precision"
            ) from None
        val *= qfactorial_xq(x, qs, cfg)
    if not cmath.isfinite(val):
        raise DomainError(f"multiple sine is not finite at z = {z:.6g}: its factors overflow double precision")
    return val


# ---------------------------------------------------------------------------
# residual checks for the functional equations


def _rel_residual(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


def _gluing_residual(fn, z, w0, w1, rest: tuple, cfg: EvalConfig, zero_message: str) -> float:
    """|fn(.|w0,w1,R) fn(.|-w1,w0+w1,R) / fn(.|w0,w0+w1,R) - 1|."""
    a = fn(z, (w0, w1) + rest, cfg)
    b = fn(z, (w0, w0 + w1) + rest, cfg)
    c = fn(z, (-w1, w0 + w1) + rest, cfg)
    if b == 0:
        raise DomainError(zero_message)
    return abs(a * c / b - 1.0)


def qfactorial_gluing_check(
    z: complex,
    omega0: complex,
    omega1: complex,
    rest: tuple[complex, ...] = (),
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> float:
    """Residual of the three-factor splitting of the q-shifted factorial.

    Checks (x|q0,q1,R) * (x|q1^{-1}, q0 q1, R) / (x|q0, q0 q1, R) = 1 in
    additive parameters; returns |product - 1|.
    """
    rest = tuple(complex(w) for w in rest)
    return _gluing_residual(qfactorial, z, omega0, omega1, rest, cfg,
                            "gluing check hit a zero of the reference product")


def q_theta_modularity_check(z: complex, tau: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Residual of the level-0 modularity: theta at (z/tau, -1/tau) against
    e^{-i pi B_{2,2}(z | (tau, -1))} times theta at (z, tau).  Needs Im tau > 0."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise DomainError("theta modularity requires Im tau > 0")
    lhs = q_theta(z / tau, -1.0 / tau, cfg)
    pref = cmath.exp(-1j * math.pi * bernoulli_multiple(z, (tau, -1.0), 2))
    rhs = pref * q_theta(z, tau, cfg)
    return _rel_residual(lhs, rhs)


def elliptic_gamma_gluing_check(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Residual of the period-splitting identity for the elliptic gamma in the first two
    periods: g(.|w0,w1,R) * g(.|-w1, w0+w1, R) / g(.|w0, w0+w1, R) = 1."""
    omegas = tuple(complex(w) for w in omegas)
    if len(omegas) < 2:
        raise DomainError("the splitting identity needs at least two periods")
    return _gluing_residual(elliptic_gamma, z, omegas[0], omegas[1], omegas[2:], cfg,
                            "splitting check hit a zero of the reference value")


def elliptic_gamma_modularity_check(
    z: complex,
    omegas: tuple[complex, ...],
    cfg: EvalConfig = DEFAULT_CONFIG,
    variant: int = 1,
) -> float:
    """Residual of the SL(r+2) modularity of the elliptic gamma against its product form.

    Variant 1 compares elliptic_gamma(z|w) with
    e^{2 pi i B_{r+2,r+2}(z|(w,-1)) / (r+2)!} prod_k elliptic_gamma(z/w_k | (w_j/w_k)_{j != k}, -1/w_k);
    variant 2 uses the reflected product with the +1 lift and the opposite
    exponent sign.
    """
    omegas = tuple(complex(w) for w in omegas)
    r = len(omegas) - 1
    if r < 0:
        raise DomainError("needs at least one period")
    if variant not in (1, 2):
        raise DomainError("variant must be 1 or 2")
    lhs = elliptic_gamma(z, omegas, cfg)
    # the variant's lift of the periods, exponent factor, and reflected z and periods
    lift, exponent, zr, ws = (
        (-1.0, TWO_PI_I, z, omegas) if variant == 1 else (1.0, -TWO_PI_I, -z, tuple(-w for w in omegas))
    )
    pref = cmath.exp(exponent / math.factorial(r + 2) * bernoulli_multiple(z, omegas + (lift,), r + 2))
    prod = 1.0 + 0j
    for k, wk in enumerate(omegas):
        rest = tuple(ws[j] / wk for j in range(len(omegas)) if j != k)
        prod *= elliptic_gamma(zr / wk, rest + (-1.0 / wk,), cfg)
    return _rel_residual(lhs, pref * prod)


def elliptic_gamma_three_term_check(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Residual of the closed product identity two levels down:
    prod_k g_{r-2}(z/w_k | (w_j/w_k)_{j != k}) = e^{-2 pi i B_{r,r}(z|w) / r!}
    with r = len(omegas) >= 2."""
    omegas = tuple(complex(w) for w in omegas)
    r = len(omegas)
    if r < 2:
        raise DomainError("the closed product identity needs at least two periods")
    prod = 1.0 + 0j
    for k, wk in enumerate(omegas):
        rest = tuple(omegas[j] / wk for j in range(r) if j != k)
        prod *= elliptic_gamma(z / wk, rest, cfg)
    rhs = cmath.exp(-TWO_PI_I / math.factorial(r) * bernoulli_multiple(z, omegas, r))
    return _rel_residual(prod, rhs)
