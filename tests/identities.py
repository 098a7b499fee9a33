"""Residual checks of the ordinary functions' functional equations, and of the
telescoping wedge chains of q-factorials.

Each check evaluates both sides of one identity with the library's functions
and returns their relative (or |product - 1|) residual; a side that hits a
zero or leaves the identity's domain raises DomainError.  Only the tests call
them: no evaluation route, CLI verb or report does.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from conesine.bernoulli import bernoulli_multiple
from conesine.errors import DomainError
from conesine.lattice_cones import _omega_cross, det2
from conesine.qseries import (
    DEFAULT_CONFIG,
    TWO_PI_I,
    EvalConfig,
    _rel_residual,
    e2,
    elliptic_gamma,
    qfactorial,
    qfactorial_xq,
)


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
    lhs = elliptic_gamma(z / tau, (-1.0 / tau,), cfg)
    pref = cmath.exp(-1j * math.pi * bernoulli_multiple(z, (tau, -1.0), 2))
    rhs = pref * elliptic_gamma(z, (tau,), cfg)
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


def wedge_product_check(
    chain: Sequence[Sequence[int]],
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
    closed: bool = False,
) -> float:
    """Residual of the telescoping product of wedge q-factorials.

    ``chain`` is a list of integer 2-vectors with unit consecutive
    determinants (cyclically when ``closed``).  Each consecutive pair
    contributes (e^{2 pi i z} | e^{2 pi i w(u_i)}, e^{-2 pi i w(u_{i+1})}),
    with w(u) the pairing of the periods against the rotated u.  An open
    chain telescopes to the two-endpoint factor; a closed chain's product
    equals 1 - e^{2 pi i z}.
    """
    us = [tuple(int(c) for c in u) for u in chain]
    if len(us) < 2 + (1 if closed else 0):
        raise DomainError("chain needs at least two lines (three when closed)")
    omegas = tuple(complex(w) for w in omegas)
    if len(omegas) != 2:
        raise DomainError("wedge chains take two periods")
    pairs = list(zip(us, us[1:]))
    if closed:
        pairs.append((us[-1], us[0]))
    for u, up in pairs:
        if det2(u, up) != 1:
            raise DomainError(f"consecutive chain lines {u}, {up} must have determinant 1")
    x = e2(z)
    total = 1.0 + 0j
    for u, up in pairs:
        qa = e2(_omega_cross(omegas, u))
        qb = e2(-_omega_cross(omegas, up))
        total *= qfactorial_xq(x, (qa, qb), cfg)
    if closed:
        expected = 1 - x
    else:
        qa = e2(_omega_cross(omegas, us[0]))
        qb = e2(-_omega_cross(omegas, us[-1]))
        expected = qfactorial_xq(x, (qa, qb), cfg)
    return _rel_residual(total, expected)
