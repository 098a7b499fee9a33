"""The q-series core as it was before the q-factorial plans, kept as a reference.

``qfactorial_xq`` now prepares each period set once (its checks, inversions,
moduli and the shift recursion's levels) and evaluates each argument against
that plan, and ``elliptic_gamma`` shares one plan between its two
q-factorials.  These are the earlier versions, which redo that work on every
call and every row of a shift loop.  The library must return ``==`` values,
raise the same errors with the same messages and charge the same number of
terms to each ``_Budget``.  ``_row_steps`` is the earlier form too, taking
the reduced moduli.  Like the library, ``_qfac_small`` leaves each factor
1 - x q^k that is exactly 0 out of its product and counts it, so a q-factorial
with such a factor is 0j (a pole where it is inverted).  It decides lost
digits by the library's rule too, and both entry points refuse them as the
library does; every value and every charge is the earlier one.
"""
from __future__ import annotations

import cmath
import math
import sys

from conesine.errors import BudgetError, DomainError
from conesine.qseries import DEFAULT_CONFIG, RESONANCE_FLOOR, _LOG_NORMAL_MIN, _UNDERFLOW, EvalConfig, _Budget, _log_shift_target, e2


def _row_steps(ax: float, log_a: float, steps: int, reduced_abs: tuple[float, ...]) -> int:
    """A lower bound on the shift steps charged by the rows (x q^k | reduced), k < steps, of
    a shift loop on q, |q| = e^{log_a}.

    Row k starts at |x| e^{k log_a} and takes ceil(s_k) steps, s_k = (span + k log_a) /
    -log a', with a' the smallest reduced modulus and span = log(|x| / t') at its target t';
    the rows with s_k > 0 sum in closed form, less one step per row for rounding.
    """
    if not reduced_abs:
        return 0
    log_a1 = math.log(min(reduced_abs))
    span = math.log(ax) - _log_shift_target(log_a1, len(reduced_abs))
    if span <= 0:
        return 0
    rows = min(steps, math.ceil(span / -log_a))
    return max(0, math.floor((rows * span + log_a * rows * (rows - 1) / 2) / -log_a1) - rows)


def _qfac_small(x: complex, qs: tuple[complex, ...], cfg: EvalConfig, budget: _Budget, absq=None) -> tuple[complex, int, bool]:
    """(x | qs) with every |q| < 1 and x finite, via the shift identity and a log series, as
    the product of its factors 1 - x q^k that are not exactly 0, the count of those that are,
    and whether digits are lost: a row lost them, or the value is finite and 0 or has a log
    series whose e^{-acc} is below the normal double range.

    The shift identity (x | qs) = (x | qs without q) (x q | qs) on the smallest |q| moves
    x down to the cost-balanced ``_log_shift_target``, where the log series takes over.  Each
    loop charges its closed-form step or term count to ``budget``; a shift loop over two
    or more periods first checks the shift steps its rows will charge (``_row_steps``),
    so a call whose nested loops cannot fit raises BudgetError before any step is taken.
    ``absq`` holds the moduli of ``qs``: the top-level call computes them and passes each
    recursive call its share.
    """
    if not qs:
        return (1.0 + 0j, 1, False) if x == 1 else (1.0 - x, 0, False)
    if absq is None:
        absq = tuple(abs(q) for q in qs)
    prefactor, zeros, lost = 1.0 + 0j, 0, False
    ax = abs(x)
    jmin = absq.index(min(absq))
    log_a = math.log(absq[jmin])
    target = math.exp(_log_shift_target(log_a, len(qs)))
    if ax >= target:
        q = qs[jmin]
        steps = math.ceil(math.log(target / ax) / log_a)
        reduced, reduced_abs = qs[:jmin] + qs[jmin + 1 :], absq[:jmin] + absq[jmin + 1 :]
        budget.spend(steps, _row_steps(ax, log_a, steps, reduced_abs))
        for _ in range(steps):
            if reduced:
                row, row_zeros, row_lost = _qfac_small(x, reduced, cfg, budget, reduced_abs)
                prefactor *= row
                zeros += row_zeros
                lost = lost or row_lost
            elif x == 1:
                zeros += 1
            else:
                prefactor *= 1.0 - x
            x *= q
        ax = abs(x)
    if ax == 0:
        return prefactor, zeros, lost or prefactor == 0
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
    value = prefactor * cmath.exp(-acc)
    return value, zeros, lost or (value == 0 or -acc.real < _LOG_NORMAL_MIN) and cmath.isfinite(value)


def _qfactorial(x: complex, qs: tuple[complex, ...], cfg: EvalConfig) -> tuple[complex, int, bool]:
    """(x | qs) as (value, count of its factors that are exactly 0, digits lost), decided in the
    order of the library's ``_QPlan.evaluate``: an inverted count is a pole; else the value is 0j
    where the count or lost is set, lost only at a count of 0 and a finite value; an inverted
    product whose reciprocal is finite but below the normal double range is lost too."""
    x = complex(x)
    if not (cmath.isfinite(x) and all(cmath.isfinite(q) for q in qs)):
        raise DomainError("the q-factorial needs a finite argument and finite periods")
    try:
        ax = abs(x)
    except OverflowError:  # finite parts, modulus above double range
        raise DomainError(f"the q-factorial argument x = {x:.6g} has a modulus above double precision") from None
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
        # a reciprocal that underflows to zero is the limit q = 0 as well, and is dropped
        small = tuple(clean) + tuple(u for u in (1.0 / q for q in invert) if u != 0)
        val, zeros, lost = _qfac_small(x, small, cfg, budget)
    except OverflowError:  # cmath.exp of the log series
        val, zeros, lost = complex(math.nan), 0, False
    if zeros and len(invert) % 2 == 1:
        raise DomainError("evaluation point is a pole of the inverted product")
    if zeros or (lost and cmath.isfinite(val)):
        return 0j, zeros, not zeros
    if len(invert) % 2 == 1:
        val = 1.0 / val
        if cmath.isfinite(val) and math.hypot(val.real, val.imag) < sys.float_info.min:
            return 0j, 0, True
    if not cmath.isfinite(val):
        gap = min((abs(1.0 - abs(q)) for q in clean + invert), default=math.inf)
        raise DomainError(
            f"q-factorial is not finite at |x| = {ax:.6g} with min |1 - |q|| = {gap:.6g}: "
            "the product overflows double precision"
        )
    return val, 0, False


def qfactorial_xq(x: complex, qs: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The q-shifted factorial on raw multiplicative arguments.

    ``qs`` may mix moduli above and below 1 but none may sit on (or within
    the resonance floor of) the unit circle.  Factors whose q underflowed to
    exactly zero contribute their exact limit and are dropped.  A value that
    overflows or is not finite raises DomainError.  Where a factor 1 - x q^k
    is exactly 0, the value is 0j, or a pole where the product is inverted;
    otherwise a value that lost its digits is refused as an underflow.
    """
    val, _, lost = _qfactorial(x, qs, cfg)
    if lost:
        raise DomainError(_UNDERFLOW)
    return val


def elliptic_gamma(z: complex, omegas: tuple[complex, ...], cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """The r-th elliptic gamma function, r = len(omegas) - 1 >= -1.

    g_0 is the theta-like product; each level is
    (e^{2 pi i (-z + sum omegas)} | q) times (e^{2 pi i z} | q)^{(-1)^r}.
    Depends on z and each omega only modulo 1.  The empty-period level
    (the base case of the period-shift recursion) is -e^{-2 pi i z}.  The
    library's rule: a factor of the denominator that is exactly 0 is a pole for
    odd r; else a factor of either q-factorial that is exactly 0 gives 0j;
    else lost digits are refused as an underflow, the numerator's first, also
    where the denominator is refused; and a value that is not finite is refused.
    """
    omegas = tuple(complex(w) for w in omegas)
    r = len(omegas) - 1
    if r == -1:
        if not cmath.isfinite(z):
            raise DomainError(f"the elliptic gamma needs a finite argument, got z = {z}")
        val = -e2(-z)
        if not cmath.isfinite(val):
            raise DomainError(f"the empty-period elliptic gamma -e^(-2 pi i z) overflows at z = {z:.6g}")
        return val
    qs = tuple(e2(w) for w in omegas)
    num, num_zeros, num_lost = _qfactorial(e2(-z + sum(omegas)), qs, cfg)
    try:
        den, den_zeros, den_lost = _qfactorial(e2(z), qs, cfg)
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
