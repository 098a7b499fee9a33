"""Multivariate q-shifted factorials, multiple sine and elliptic gamma
functions.

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
import numbers
import sys
from dataclasses import asdict, dataclass
from typing import Iterable

from .bernoulli import bernoulli_multiple
from .errors import BudgetError, DomainError
from .lattice_cones import require_count

TWO_PI_I = 2j * math.pi
RESONANCE_FLOOR = 1e-6
SERIES_TERMS = 100.0
_LOG_NORMAL_MIN = math.log(sys.float_info.min)
_UNDERFLOW = "the q-factorial underflows: its value falls below the normal double range"


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation budget and truncation tolerance shared by all numeric routines.

    ``tail_tol`` bounds every truncated tail, and only the truncation: near
    the unit circle rounding dominates, and a value can err by far more
    (``multiple_sine(0.6+0.1j, (1, 1.0001+0.00001j))``, with |log |q|| near
    6e-5, errs by 1.03e-9 relative).  ``max_terms`` caps series iterations.
    Identity checks take their pass tolerance from ``verify_theorem``, not
    from here.
    """

    tail_tol: float = 1e-14
    max_terms: int = 5_000_000

    def __post_init__(self):
        # a JSON config file may give any type, and 1e400 reads as infinity;
        # an integral float such as 5e6 is taken as that int, as Cone takes dim 2.0
        if isinstance(self.tail_tol, bool) or not isinstance(self.tail_tol, numbers.Real):
            raise DomainError(f"tail_tol must be a real number, got {self.tail_tol!r}")
        if not 0 < self.tail_tol < 1:
            raise DomainError(f"tolerances must satisfy 0 < tail_tol < 1, got tail_tol={self.tail_tol}")
        max_terms = self.max_terms
        if isinstance(max_terms, float) and max_terms.is_integer():
            max_terms = int(max_terms)
        # fewer terms than this evaluate nothing
        object.__setattr__(self, "max_terms", require_count(max_terms, "max_terms", 1000))

    def to_json_dict(self) -> dict:
        """The two settings by name, as reports and CLI records show them."""
        return asdict(self)


DEFAULT_CONFIG = EvalConfig()


def _exp(w: complex) -> complex:
    """cmath.exp(w), raising DomainError where the value overflows double precision.

    An exponent with a nan part or an infinite imaginary part comes from a
    non-finite or overflowing argument or period; cmath.exp would raise
    ValueError or return nan there, so it is refused too.
    """
    if math.isnan(w.real) or not math.isfinite(w.imag):
        raise DomainError(f"exp is undefined at exponent {w}: an argument or period is not finite or too large")
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

    def spend(self, k: int = 1, ahead: int = 0):
        """Charge k terms; BudgetError, with nothing charged, if fewer than k + ahead are left.

        ``ahead`` is a lower bound on the terms the caller is sure to charge next.
        """
        if k + ahead > self.left:
            raise BudgetError("evaluation exceeded the configured max_terms budget")
        self.left -= k


def _log_shift_target(log_a: float, periods: int) -> float:
    """log t, where t is the |x| at which a shift loop on a modulus a = e^{log_a} < 1 over
    ``periods`` periods stops and the log series takes over.

    With g = -log_a, shifting from |x| down to t takes about log(|x| / t) / g steps of
    price C each, and the log series started at |x| = t about SERIES_TERMS / |log t| terms;
    their sum is least at log t = -sqrt(SERIES_TERMS g / C).  A one-period step is one
    factor (1 - x), C = 1; a step over more periods is a sub-product, about one series,
    C = SERIES_TERMS.
    """
    return -math.sqrt(-log_a * SERIES_TERMS if periods == 1 else -log_a)


def _row_steps(ax: float, log_a: float, steps: int, log_a1: float, log_t1: float) -> int:
    """A lower bound on the shift steps charged by the rows (x q^k | reduced), k < steps, of
    a shift loop on q, |q| = e^{log_a}.

    Row k starts at |x| e^{k log_a} and takes ceil(s_k) steps, s_k = (span + k log_a) /
    -log a', with a' = e^{log_a1} the smallest reduced modulus and span = log(|x| / t') at
    its target t' = e^{log_t1}; the rows with s_k > 0 sum in closed form, less one step per
    row for rounding.
    """
    span = math.log(ax) - log_t1
    if span <= 0:
        return 0
    rows = min(steps, math.ceil(span / -log_a))
    return max(0, math.floor((rows * span + log_a * rows * (rows - 1) / 2) / -log_a1) - rows)


def _cheaper_form(factors) -> int:
    """The boundary factorization, 1 or 2, whose q-factorials take fewer top-level shift steps.

    ``factors`` holds additive pairs (u, taus): form 1 evaluates (e^{2 pi i u} | e^{2 pi i tau}),
    form 2 the same at -u and -taus.  With log|x| = -2 pi Im u and log|q| = -2 pi Im tau (no exp,
    no overflow), a factor takes (log t - log|x|) / log a steps when positive, counted after the
    |q| > 1 inversions divide x by each such q: a = e^{-max |log|q||} is the smallest modulus in
    both forms and t its ``_log_shift_target``.  A tie, a modulus on the unit circle or an input
    that is not finite gives form 1, whose refusals are the documented ones.
    """
    steps1 = steps2 = 0.0
    for u, taus in factors:
        log_ax, log_mods = -2 * math.pi * u.imag, [-2 * math.pi * t.imag for t in taus]
        log_a, total = -max(map(abs, log_mods)), sum(log_mods)
        if not (math.isfinite(log_ax + total) and log_a < 0):
            return 1
        log_t = _log_shift_target(log_a, len(log_mods))
        inverted = sum([m for m in log_mods if m > 0])  # form 1 inverts these moduli, form 2 the others
        steps1 += max(0.0, (log_t - log_ax + inverted) / log_a)
        steps2 += max(0.0, (log_t + log_ax + inverted - total) / log_a)
    return 2 if steps2 < steps1 else 1


def _qfac_planned(x: complex, plan: _QPlan, cfg: EvalConfig, budget: _Budget) -> tuple[complex, int, bool]:
    """(x | plan.qs) with every |q| < 1 and x finite, via the shift identity and a log series, as
    the product of its factors 1 - x q^k that are not exactly 0, their count, and whether digits are lost.

    The shift identity (x | qs) = (x | qs without q) (x q | qs) on the smallest |q| moves
    x down to the cost-balanced ``_log_shift_target``, where the log series takes over.  Each
    loop charges its closed-form step or term count to ``budget``; a shift loop over two
    or more periods first checks the shift steps its rows will charge (``_row_steps``),
    so a call whose nested loops cannot fit raises BudgetError before any step is taken.
    Only a shift loop forms factors (the series runs at |x| < 1); they are lost where the
    product, or that of a row, is 0 or has a log series that gives e^{-acc} below the normal
    double range.  Every row is evaluated and charged.
    """
    prefactor, zeros, lost = 1.0 + 0j, 0, False
    ax = abs(x)
    target = plan.target
    if ax >= target:
        q, log_a, ratio = plan.q, plan.log_a, target / ax
        # the ratio underflows to 0 once |x| passes about e^744 t; the difference of the logs does not
        steps = math.ceil((math.log(ratio) if ratio else plan.log_target - math.log(ax)) / log_a)
        if len(plan.qs) == 1:
            budget.spend(steps)
            for _ in range(steps):
                factor = 1.0 - x
                if factor:
                    prefactor *= factor
                else:
                    zeros += 1
                x *= q
        else:
            reduced = plan.rows()
            budget.spend(steps, _row_steps(ax, log_a, steps, reduced.log_a, reduced.log_target))
            for _ in range(steps):
                row, row_zeros, row_lost = _qfac_planned(x, reduced, cfg, budget)
                prefactor *= row
                zeros += row_zeros
                lost = lost or row_lost
                x *= q
        ax = abs(x)
    if ax == 0:
        return prefactor, zeros, lost or prefactor == 0
    # log form: -sum_{n>=1} x^n / (n prod_j (1 - q_j^n)).  After term n the tail is at most
    # |x|^{n+1} / ((n+1)(1-|x|) prod_j (1 - |q_j|^{n+1})); the loop stops once that is below
    # tail_tol.  The running products hold q_j^n and |q_j|^{n+1}.  The loops for one, two
    # and three periods, which run most of the terms, unroll the general one.
    qs, absq = plan.qs, plan.absq
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
    elif len(qs) == 3:  # the general loop's operations, in its order
        (q0, q1, q2), (a0, a1, a2) = qs, absq
        q0n, q1n, q2n, a0n, a1n, a2n = q0, q1, q2, a0 * a0, a1 * a1, a2 * a2
        while True:
            acc += xn / (n * ((1.0 + 0j) * (1.0 - q0n) * (1.0 - q1n) * (1.0 - q2n)))
            if axn * c < tol * (n + 1) * (1.0 - a0n) * (1.0 - a1n) * (1.0 - a2n):
                break
            xn, axn, n = xn * x, axn * ax, n + 1
            q0n, q1n, q2n, a0n, a1n, a2n = q0n * q0, q1n * q1, q2n * q2, a0n * a0, a1n * a1, a2n * a2
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
    value = prefactor * cmath.exp(-acc)
    # a value that is not finite is left to the caller's overflow check
    lost = lost or (value == 0 or -acc.real < _LOG_NORMAL_MIN) and cmath.isfinite(value)
    return value, zeros, lost


def _argument_modulus(x: complex, qs: tuple[complex, ...]) -> float:
    """|x|, after checking that x and the periods are finite and |x| is below double range."""
    if not (cmath.isfinite(x) and all(map(cmath.isfinite, qs))):
        raise DomainError("the q-factorial needs a finite argument and finite periods")
    try:
        return abs(x)
    except OverflowError:  # finite parts, modulus above double range
        raise DomainError(f"the q-factorial argument x = {x:.6g} has a modulus above double precision") from None


class _QPlan:
    """The period-only work of a q-factorial with finite periods, done once per period set.

    Building it refuses a period on (or within the resonance floor of) the unit circle or
    with a modulus above double range, drops each q that is exactly zero, keeps the
    periods with |q| > 1 (``inverted``) and plans the shift recursion over the others and
    the reciprocals of the inverted ones (``_plan_shifts``; empty ``qs`` where there are
    none); a reciprocal that underflows to zero is the limit q = 0 as well, and is dropped.
    """

    __slots__ = ("inverted", "moduli", "qs", "absq", "jmin", "q", "log_a", "log_target", "target", "reduced")

    def __init__(self, qs: tuple[complex, ...]):
        invert, moduli, small, absq = [], [], [], []  # |q| > 1, every |q|, the periods |q| < 1 and their moduli
        for q in qs:
            q = complex(q)
            if q == 0:
                continue
            try:
                m = abs(q)
            except OverflowError:  # finite parts, modulus above double range
                raise DomainError(f"the q-factorial period q = {q:.6g} has a modulus above double precision") from None
            if abs(math.log(m)) < RESONANCE_FLOOR:
                raise DomainError(
                    f"|q| = {m} is within {RESONANCE_FLOOR} of the unit circle: "
                    "the product does not converge (resonant or near-resonant periods)"
                )
            moduli.append(m)
            if m > 1:
                invert.append(q)
            else:
                small.append(q)
                absq.append(m)
        for q in invert:
            u = 1.0 / q
            if u != 0:
                small.append(u)
                absq.append(abs(u))
        self.inverted, self.moduli = invert, moduli
        self._plan_shifts(tuple(small), tuple(absq))

    def _plan_shifts(self, qs: tuple[complex, ...], absq: tuple[float, ...]) -> None:
        """Plan (x | qs) with every |q| < 1 and moduli ``absq`` for ``_qfac_planned``: the shift
        identity moves x by the period ``q`` of least modulus, ``log_a`` = log |q|, down to
        ``target`` = e^{log_target} (``_log_shift_target``); ``rows`` plans qs without q."""
        self.qs, self.absq, self.reduced = qs, absq, None
        if qs:
            self.jmin = jmin = absq.index(min(absq))
            self.q, self.log_a = qs[jmin], math.log(absq[jmin])
            self.log_target = _log_shift_target(self.log_a, len(qs))
            self.target = math.exp(self.log_target)

    def rows(self) -> _QPlan:
        """The plan of the reduced set, for a plan of two or more periods: the periods and
        moduli of this one, less the shift period, with no check repeated."""
        if self.reduced is None:
            j, qs, absq = self.jmin, self.qs, self.absq
            self.reduced = _QPlan.__new__(_QPlan)
            self.reduced._plan_shifts(qs[:j] + qs[j + 1 :], absq[:j] + absq[j + 1 :])
        return self.reduced

    def evaluate(self, x: complex, ax: float, cfg: EvalConfig) -> tuple[complex, int, bool]:
        """(x | qs) at the argument x of modulus ``ax`` (``_argument_modulus``), with its own budget, as
        (value, count of its factors that are exactly 0, digits lost).  Lost, set only at a count of 0 and a
        finite value, includes an inverted product whose reciprocal is below the normal double range (0 where
        the product overflows).  The value is 0j where the count or lost is set; an inverted count is a pole."""
        for q in self.inverted:
            x = x / q
        budget = _Budget(cfg.max_terms)
        try:
            val, zeros, lost = _qfac_planned(x, self, cfg, budget) if self.qs else (1.0 - x, int(x == 1), False)
        except OverflowError:  # cmath.exp of the log series
            val, zeros, lost = complex(math.nan), 0, False
        if zeros and len(self.inverted) % 2 == 1:
            raise DomainError("evaluation point is a pole of the inverted product")
        if zeros or (lost and cmath.isfinite(val)):  # a lost value that is not finite is refused below
            return 0j, zeros, not zeros
        if len(self.inverted) % 2 == 1:
            val = 1.0 / val
            if cmath.isfinite(val) and math.hypot(val.real, val.imag) < sys.float_info.min:
                return 0j, 0, True
        if not cmath.isfinite(val):
            gap = min((abs(1.0 - m) for m in self.moduli), default=math.inf)
            raise DomainError(
                f"q-factorial is not finite at |x| = {ax:.6g} with min |1 - |q|| = {gap:.6g}: "
                "the product overflows double precision"
            )
        return val, 0, False


def qfactorial_xq(x: complex, qs: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The q-shifted factorial on raw multiplicative arguments.

    ``qs`` may mix moduli above and below 1 but none may sit on (or within the resonance
    floor of) the unit circle.  Factors whose q underflowed to exactly zero contribute their
    exact limit and are dropped.  An argument or period that is not finite, or whose modulus
    is above double range, and a value that overflows, is not finite, is a pole or, with no
    factor that is exactly 0, underflows (the reciprocal of an inverted product that overflows
    included) raise DomainError.  The periods' checks, inversions and shift levels are
    prepared once (``_QPlan``) for every shift loop row.
    """
    x = complex(x)
    ax = _argument_modulus(x, qs)
    val, _, lost = _QPlan(qs).evaluate(x, ax, cfg)
    if lost:
        raise DomainError(_UNDERFLOW)
    return val


def qfactorial(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The q-shifted factorial in additive parameters.

    Evaluates (e^{2 pi i z} | e^{2 pi i omega_0}, ..., e^{2 pi i omega_r}).
    Any omega with integer real part shift changes nothing; omegas with
    vanishing imaginary part are rejected by the resonance guard.
    """
    return qfactorial_xq(e2(z), tuple(map(e2, omegas)), cfg)


# ---------------------------------------------------------------------------
# multiple elliptic gamma hierarchy


def elliptic_gamma(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The r-th elliptic gamma function, r = len(omegas) - 1 >= -1.

    g_0 is the theta-like product; each level is
    (e^{2 pi i (-z + sum omegas)} | q) times (e^{2 pi i z} | q)^{(-1)^r}.
    Depends on z and each omega only modulo 1.  The empty-period level
    (the base case of the period-shift recursion) is -e^{-2 pi i z}.  The two
    q-factorials share one prepared period set (``_QPlan``).  A factor that is
    exactly 0 decides, even where the other q-factorial underflows: it is a
    pole, refused, where inverted or in the denominator for odd r, else 0j.
    Otherwise each is refused as ``qfactorial_xq`` refuses it (a numerator
    that underflows first), and so is a value that is not finite.
    """
    omegas = tuple(map(complex, omegas))
    r = len(omegas) - 1
    if r == -1:
        if not cmath.isfinite(z):
            raise DomainError(f"the elliptic gamma needs a finite argument, got z = {z}")
        val = -e2(-z)
        if not cmath.isfinite(val):
            raise DomainError(f"the empty-period elliptic gamma -e^(-2 pi i z) overflows at z = {z:.6g}")
        return val
    qs = tuple(map(e2, omegas))
    x = e2(-z + sum(omegas))
    ax = _argument_modulus(x, qs)
    plan = _QPlan(qs)  # the numerator and denominator share their periods
    num, num_zeros, num_lost = plan.evaluate(x, ax, cfg)
    try:
        x = e2(z)
        den, den_zeros, den_lost = plan.evaluate(x, _argument_modulus(x, ()), cfg)
    except (DomainError, BudgetError) as exc:
        raise DomainError(_UNDERFLOW) if num_lost else exc
    if r % 2 and den_zeros:
        raise DomainError("evaluation point is a pole (the denominator product vanishes)")
    if num_zeros or den_zeros:
        return 0j
    if num_lost or den_lost:
        raise DomainError(_UNDERFLOW)
    val = num / den if r % 2 else num * den
    if not cmath.isfinite(val):
        raise DomainError(f"elliptic gamma is not finite at z = {z:.6g}: its q-factorials overflow double precision")
    return val


# ---------------------------------------------------------------------------
# multiple sine hierarchy


def _product(kind: str, z: complex, factors: Iterable[complex], exponent: tuple | None = None) -> complex:
    """The one evaluator of a route's product: the Bernoulli exponential ``_prefactor(*exponent)``,
    if given, then each of ``factors`` in order, then their product in that order, refused as a
    ``kind`` (wedge, face or multiple sine) product when a partial product overflows, or
    underflows below the normal double range, where it loses digits or reaches 0 (a g2c face
    product of about 1e-306, 1e-38, 1e43 and 1e298 returned 0 for a value of order 1)."""
    values = [] if exponent is None else [_prefactor(*exponent)]
    values.extend(factors)
    total = 1.0 + 0j
    for factor in values:
        product = total * factor
        if not cmath.isfinite(product):
            raise DomainError(f"the {kind} product is not finite at z = {z:.6g}: its factors overflow double precision")
        if total and factor and abs(product) < sys.float_info.min:
            raise DomainError(f"the {kind} product underflows at z = {z:.6g}: its factors span more than double precision")
        total = product
    return total


def _form_arguments(u: complex, taus: tuple[complex, ...], form: int, k: int) -> tuple[complex, tuple[complex, ...]]:
    """(x, qs) of the k-th q-factorial of a boundary factorization given in additive form (u, taus):
    (e^{2 pi i u}, e^{2 pi i tau}) in form 1, the same at -u and -taus in form 2.  An exponential
    that overflows raises DomainError naming |x| and the period ratios taus."""
    xu, xtaus = (u, taus) if form == 1 else (-u, tuple(-t for t in taus))
    try:
        return e2(xu), tuple(map(e2, xtaus))
    except DomainError:
        raise DomainError(
            f"multiple sine overflows at |x| = exp({-2 * math.pi * xu.imag:.6g}) "
            f"with period ratios omega_j / omega_{k} = ({', '.join(f'{w:.6g}' for w in taus)}): "
            f"e^(2 pi i z / omega_{k}) exceeds double precision"
        ) from None


def _prefactor(c: complex, b: complex) -> complex:
    """The Bernoulli exponential e^{c b} of a boundary factorization or a modularity, b a
    Bernoulli value B_{r,r}.  It has no zero, so a value that overflows, or underflows below
    the normal double range, raises DomainError (it would turn a finite value into infinity or 0)."""
    try:
        prefactor = _exp(c * b)
    except DomainError:
        raise DomainError(f"prefactor e^(c B_rr) with c = {c:.6g} overflows at B_rr = {b:.6g}") from None
    if abs(prefactor) < sys.float_info.min:
        raise DomainError(f"prefactor e^(c B_rr) with c = {c:.6g} underflows at B_rr = {b:.6g}")
    return prefactor


def _sine_factorization(kind: str, b: complex, r: int, pairs: list, z: complex, cfg: EvalConfig) -> complex:
    """A sine boundary factorization: e^{(-1)^r pi i b / r!}, b = B_{r,r}, times the q-factorial
    of each additive pair (u, taus) in ``pairs`` (``_form_arguments``), in form 1; form 2 negates
    every exponent.  It evaluates first the form with fewer predicted shift steps
    (``_cheaper_form``) and, where that form raises DomainError, the other; where the other
    raises DomainError or BudgetError too, it raises the first form's refusal.  The product is
    evaluated as a ``kind`` product (``_product``)."""

    def evaluate(form: int) -> complex:
        factors = (qfactorial_xq(*_form_arguments(u, taus, form, k), cfg) for k, (u, taus) in enumerate(pairs))
        return _product(kind, z, factors, ((-1) ** (r + form - 1) * 1j * math.pi / math.factorial(r), b))

    first = _cheaper_form(pairs)
    try:
        return evaluate(first)
    except DomainError as refusal:
        try:
            return evaluate(3 - first)
        except (DomainError, BudgetError):
            raise refusal from None


def multiple_sine(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The r-th multiple sine, r = len(omegas) >= 1, via a boundary factorization.

    Form 1 is e^{(-1)^r pi i B_{r,r}(z | omega) / r!} times, for each k,
    (e^{2 pi i z / omega_k} | e^{2 pi i omega_j / omega_k}, j != k); form 2
    negates every exponent.  Both need each ratio omega_j / omega_k off the
    real axis for r >= 2; near resonance one can take many times the terms of
    the other and lose more digits.  The form with fewer predicted shift steps
    (``_cheaper_form``) is evaluated, and the other where it raises
    DomainError (``_sine_factorization``).  r = 1 is 2 sin(pi z / omega).
    A partial product that overflows or underflows raises DomainError.
    """
    omegas = tuple(map(complex, omegas))
    r = len(omegas)
    if r < 1:
        raise DomainError("the multiple sine needs at least one period")
    if any(w == 0 for w in omegas):
        raise DomainError("periods must be nonzero")
    if r == 1:
        if not (cmath.isfinite(z) and cmath.isfinite(omegas[0])):
            raise DomainError(f"the single sine needs a finite argument and period, got z = {z}, omega = {omegas[0]}")
        try:
            val = 2.0 * cmath.sin(math.pi * z / omegas[0])
        except (OverflowError, ValueError):  # ValueError: z / omega is infinite
            val = complex(math.nan)
        if not cmath.isfinite(val):
            raise DomainError(f"single sine overflows at z / omega = {z / omegas[0]:.6g}")
        return val
    # the form-1 q-factorial of omega_k in additive form: (z / omega_k, (omega_j / omega_k)_{j != k})
    ratios = [(z / wk, tuple(w / wk for j, w in enumerate(omegas) if j != k)) for k, wk in enumerate(omegas)]
    return _sine_factorization("multiple sine", bernoulli_multiple(z, omegas, r), r, ratios, z, cfg)


# ---------------------------------------------------------------------------
# the residual verify_theorem judges an identity by


def _rel_residual(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale
