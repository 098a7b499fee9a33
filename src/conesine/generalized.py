"""Cone-restricted multiple sine and elliptic gamma functions.

Each object comes with two independent evaluation routes:

* a finite decomposition into ordinary multiple sines / elliptic gammas over
  a unimodular subdivision of the cone (``*_decomposed`` / ``*_direct``), and
* a Bernoulli exponential times one q-factorial or elliptic-gamma factor per
  codimension-1 face, built from the face transforms (``*_factorized``).

The two routes share only the q-factorial primitive, so their agreement is a
meaningful identity check; ``verify_theorem`` drives that comparison over
seeded random parameter samples and returns a serializable report.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .bernoulli import (
    _as_period_tuple,
    bernoulli_cone,
    bernoulli_cone_lifted,
)
from .lattice_cones import (
    Cone,
    _omega_cross,
    cone_plan,
    det2,
    dual_contains,
    lattice_points,
)
from .qseries import (
    DEFAULT_CONFIG,
    EvalConfig,
    _exp,
    _rel_residual,
    e2,
    elliptic_gamma,
    multiple_sine,
    qfactorial_xq,
)

__all__ = [
    "FaceFactor",
    "VerificationReport",
    "sine_cone_decomposed",
    "sine_cone_factorized",
    "gamma_cone_direct",
    "gamma_cone_factorized",
    "sine_face_factors",
    "gamma_face_factors",
    "gamma_cone_lattice_oracle",
    "wedge_product_check",
    "verify_theorem",
    "THEOREM_IDS",
]


def _route_periods(cone: Cone, omegas: Sequence[complex], gamma: bool) -> tuple[complex, ...]:
    """One period per cone dimension; for the elliptic gammas Im(periods) strictly inside the dual cone."""
    omegas = _as_period_tuple(omegas, cone.dim)
    if gamma and not dual_contains(cone, tuple(w.imag for w in omegas), strict=True):
        raise DomainError(
            "Im(periods) must lie strictly inside the dual cone for the "
            "cone elliptic gamma functions to converge"
        )
    return omegas


def _checked_product(kind: str, factors: Iterable[complex], z: complex) -> complex:
    """The product of a route's ``kind`` (wedge or face) factors, refused
    when a partial product overflows, or underflows below the normal double
    range, where it loses digits or reaches 0 (a g2c face product of about
    1e-306, 1e-38, 1e43 and 1e298 returned 0 for a value of order 1)."""
    total = 1.0 + 0j
    for factor in factors:
        product = total * factor
        if not cmath.isfinite(product):
            raise DomainError(f"the {kind} product is not finite at z = {z:.6g}: its factors overflow double precision")
        if total and factor and abs(product) < sys.float_info.min:
            raise DomainError(f"the {kind} product underflows at z = {z:.6g}: its factors span more than double precision")
        total = product
    return total


# ---------------------------------------------------------------------------
# decomposition routes (finite products of the ordinary functions)


def _wedge_product(
    fn: Callable[..., complex], cone: Cone, z: complex, omegas: tuple[complex, ...], cfg: EvalConfig
) -> complex:
    """Product of ``fn`` over the wedges of the cone's decomposition, after
    the factor of the straightened axis in 3d, checked finite."""
    axis, wedges = cone_plan(cone).wedges(z, omegas)
    axis_factor = [] if axis is None else [fn(z, (axis,), cfg)]
    return _checked_product("wedge", axis_factor + [fn(arg, periods, cfg) for arg, periods in wedges], z)


def sine_cone_decomposed(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Cone sine via the finite product of ordinary multiple sines.

    In 2d the wedges follow the chain subdividing the dual wedge: every
    wedge factor except the last is shifted by its opening pairing, matching
    the cone polynomial convention.  In 3d the cone must be good Gorenstein:
    in the straightened frame the facet wedges tile the punctured apex plane
    (every factor shifted), and the points on the straightened axis
    contribute one ordinary sine factor.
    """
    return _wedge_product(multiple_sine, cone, z, _route_periods(cone, omegas, gamma=False), cfg)


def gamma_cone_direct(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Cone elliptic gamma via ordinary elliptic gammas.

    Same wedge layout as the sine decomposition (a good Gorenstein cone in
    3d); requires Im(periods) strictly inside the dual cone.
    """
    return _wedge_product(elliptic_gamma, cone, z, _route_periods(cone, omegas, gamma=True), cfg)


# ---------------------------------------------------------------------------
# factorization routes (Bernoulli exponential times one factor per face)


@dataclass(frozen=True)
class FaceFactor:
    """One face's contribution to a factorized cone function: the face's id
    (``edge(...)``, after its edge ray) and the factor's ``value``."""

    face_id: str
    value: complex


def sine_face_factors(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> tuple[FaceFactor, ...]:
    """The q-factorial factor contributed by each codimension-1 face.

    With p = K_f (periods) and its first entry p_0 the edge-ray pairing,
    the factor is (e^{2 pi i z/p_0} | e^{2 pi i p_j/p_0}) over j >= 1.
    """
    omegas = _as_period_tuple(omegas, cone.dim)
    return tuple(
        FaceFactor(face_id=face_id, value=qfactorial_xq(e2(z_scaled), tuple(e2(w) for w in scaled[1:]), cfg))
        for face_id, z_scaled, scaled in cone_plan(cone).faces(z, omegas)
    )


def sine_cone_factorized(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Cone sine as e^{(-1)^r pi i B^C_{r,r}(z | periods) / r!}, r the
    cone's dimension, times one q-factorial per 1-dimensional face."""
    omegas = _route_periods(cone, omegas, gamma=False)
    r = cone.dim
    prefactor = _exp((-1) ** r * 1j * math.pi / math.factorial(r) * bernoulli_cone(cone, z, omegas, r))
    factors = sine_face_factors(cone, z, omegas, cfg)
    return _checked_product("face", [prefactor, *(factor.value for factor in factors)], z)


def gamma_face_factors(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
    variant: str = "primary",
) -> tuple[FaceFactor, ...]:
    """The transformed ordinary elliptic gamma contributed by each face.

    Each face's periods are ``ConePlan.faces`` of ``variant``: the face
    matrix composed with S (``"primary"``) or with S^-1 (``"alternative"``).
    """
    omegas = _as_period_tuple(omegas, cone.dim)
    return tuple(
        FaceFactor(face_id=face_id, value=elliptic_gamma(z_scaled, scaled, cfg))
        for face_id, z_scaled, scaled in cone_plan(cone).faces(z, omegas, variant)
    )


def gamma_cone_factorized(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
    variant: str = "primary",
) -> complex:
    """Cone elliptic gamma as a lifted-Bernoulli exponential times the
    face-transformed ordinary elliptic gammas.

    With r the cone's dimension, the primary variant lifts with parameter -1
    and composes faces with the S matrix, under e^{2 pi i B^lift / (r+1)!};
    the alternative lifts with +1, uses the inverse S matrix and the
    opposite sign in the exponent.  Both evaluate the same function.
    """
    omegas = _route_periods(cone, omegas, gamma=True)
    if variant not in ("primary", "alternative"):
        raise DomainError(f"unknown variant {variant!r}: use 'primary' or 'alternative'")
    eta, sign = (-1.0, 1.0) if variant == "primary" else (1.0, -1.0)
    prefactor = _exp(sign * 2j * math.pi / math.factorial(cone.dim + 1) * bernoulli_cone_lifted(cone, z, omegas, eta))
    factors = gamma_face_factors(cone, z, omegas, cfg, variant=variant)
    return _checked_product("face", [prefactor, *(factor.value for factor in factors)], z)


# ---------------------------------------------------------------------------
# independent lattice oracle for the gamma functions


def gamma_cone_lattice_oracle(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
    radius: int | None = None,
) -> complex:
    """Brute-force truncated lattice product for the cone elliptic gamma.

    Multiplies (1 - e^{2 pi i (z + m.omega)})^{s} over closed-cone points m
    and (1 - e^{2 pi i (-z + m.omega)}) over interior points, with s = -1 in
    2d and +1 in 3d.  Convergence needs Im(periods) strictly inside the dual
    cone; the discarded tail decays geometrically in the dual pairing.  A
    product that overflows double precision raises DomainError.
    """
    import numpy as np

    omegas = _route_periods(cone, omegas, gamma=True)
    if radius is None:
        radius = cfg.oracle_radius if cone.dim == 2 else 40
    om = np.asarray(omegas)
    closed = lattice_points(cone, radius, interior=False)
    opened = closed[(closed @ np.asarray(cone.normals).T >= 1).all(axis=1)]
    phase_closed = closed @ om
    phase_open = opened @ om
    two_pi_i = 2j * np.pi
    with np.errstate(all="ignore"):
        plus = np.prod(1 - np.exp(two_pi_i * (complex(z) + phase_closed)))
        minus = np.prod(1 - np.exp(two_pi_i * (-complex(z) + phase_open)))
        value = complex(minus / plus if cone.dim == 2 else minus * plus)
    if not cmath.isfinite(value):
        raise DomainError(f"the lattice product is not finite at z = {z:.6g}: its factors overflow double precision")
    return value


# ---------------------------------------------------------------------------
# wedge chains of q-factorials


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


# ---------------------------------------------------------------------------
# verification driver


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sampling one identity over seeded random parameters.

    Serializable via ``to_json_dict`` (schema 1); ``skipped`` carries the
    reason when the cone fails the identity's hypotheses, in which case no
    samples were evaluated.  ``passed`` holds only when every residual is
    finite and below the tolerance.
    """

    theorem_id: str
    cone: dict
    seed: int
    tolerance: float
    config: dict
    points: tuple = ()
    lhs: tuple = ()
    rhs: tuple = ()
    residuals: tuple = ()
    max_residual: float = 0.0
    passed: bool = False
    skipped: str | None = None

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self) -> dict:
        def c2(v: complex) -> list[float]:
            return [float(v.real), float(v.imag)]

        return {
            "schema": 1,
            "theorem": self.theorem_id,
            "cone": self.cone,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "config": self.config,
            "status": self.status,
            "skipped": self.skipped,
            "points": [
                {"z": c2(z), "omegas": [c2(w) for w in om]} for z, om in self.points
            ],
            "lhs": [c2(v) for v in self.lhs],
            "rhs": [c2(v) for v in self.rhs],
            "residuals": [float(r) for r in self.residuals],
            "max_residual": float(self.max_residual),
        }


def _sample_params(cone: Cone, rng: Random, mu: tuple, jitter: float, imag_inside: bool) -> tuple:
    """Periods with one part inside the dual cone (a random positive
    combination of the normals, weights in ``mu``) and the other part uniform
    in [-jitter, jitter], and z uniform in a fixed box.  The sine identities
    take the real part inside (so the chain damps along the real direction),
    the gamma identities the imaginary part (their convergence domain)."""
    inside = [0.0] * cone.dim
    for nv in cone.normals:
        m = rng.uniform(*mu)
        for k in range(cone.dim):
            inside[k] += m * nv[k]
    omegas = []
    for part in inside:
        other = rng.uniform(-jitter, jitter)
        omegas.append(complex(other, part) if imag_inside else complex(part, other))
    z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.45, 0.45))
    return z, tuple(omegas)


_sample_sine_params = partial(_sample_params, mu=(0.3, 1.0), jitter=0.2, imag_inside=False)
_sample_gamma_params = partial(_sample_params, mu=(0.25, 0.6), jitter=0.5, imag_inside=True)

_Sampler = Callable[[Cone, Random], tuple[complex, tuple[complex, ...]]]
_Side = Callable[[Cone, complex, tuple[complex, ...], EvalConfig], complex]


@dataclass(frozen=True)
class _Theorem:
    dim: int
    tolerance: float
    sampler: _Sampler
    lhs: _Side
    rhs: _Side


def _face_product_reduced(cone: Cone, z, omegas, cfg) -> complex:
    """Product of face-transformed two-period elliptic gammas, dropping the
    first transformed component (the reduced action)."""
    faces = cone_plan(cone).faces(z, omegas)
    return _checked_product("face", (elliptic_gamma(z_scaled, scaled[1:], cfg) for _, z_scaled, scaled in faces), z)


THEOREMS: dict[str, _Theorem] = {
    "s2c-factorization": _Theorem(
        dim=2,
        tolerance=1e-8,
        sampler=_sample_sine_params,
        lhs=sine_cone_decomposed,
        rhs=sine_cone_factorized,
    ),
    "s3c-factorization": _Theorem(
        dim=3,
        tolerance=1e-7,
        sampler=_sample_sine_params,
        lhs=sine_cone_decomposed,
        rhs=sine_cone_factorized,
    ),
    "g1c-factorization": _Theorem(
        dim=2,
        tolerance=1e-8,
        sampler=_sample_gamma_params,
        lhs=gamma_cone_direct,
        rhs=gamma_cone_factorized,
    ),
    "g2c-factorization": _Theorem(
        dim=3,
        tolerance=1e-7,
        sampler=_sample_gamma_params,
        lhs=gamma_cone_direct,
        rhs=gamma_cone_factorized,
    ),
    "g2c-alternative": _Theorem(
        dim=3,
        tolerance=1e-7,
        sampler=_sample_gamma_params,
        lhs=gamma_cone_factorized,
        rhs=lambda cone, z, om, cfg: gamma_cone_factorized(cone, z, om, cfg, variant="alternative"),
    ),
    "face-modularity": _Theorem(
        dim=3,
        tolerance=1e-7,
        sampler=_sample_gamma_params,
        lhs=lambda cone, z, om, cfg: _exp(-1j * math.pi / 3.0 * bernoulli_cone(cone, z, om, 3)),
        rhs=_face_product_reduced,
    ),
}

THEOREM_IDS = tuple(sorted(THEOREMS))

_MAX_SAMPLE_ATTEMPTS = 24


def verify_theorem(
    theorem_id: str,
    cone: Cone,
    samples: int = 5,
    seed: int = 0,
    cfg: EvalConfig = DEFAULT_CONFIG,
    tolerance: float | None = None,
) -> VerificationReport:
    """Sample one identity at seeded random generic points and report.

    A cone that fails the identity's hypotheses yields a SKIP report (with
    the reason) rather than a failure.  Sampling is deterministic in the
    seed; parameter draws that hit degenerate configurations (resonant
    ratios, poles) are rejected and redrawn, which is also deterministic.
    """
    if theorem_id not in THEOREMS:
        raise DomainError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    thm = THEOREMS[theorem_id]
    try:
        samples = operator.index(samples)
    except TypeError:
        raise DomainError(f"the sample count must be an integer, got {samples!r}") from None
    if samples < 1:
        raise DomainError("need at least one sample")
    tol = thm.tolerance if tolerance is None else float(tolerance)
    base = dict(
        theorem_id=theorem_id,
        cone=cone.to_json_dict(),
        seed=seed,
        tolerance=tol,
        config={**cfg.to_json_dict(), "samples": samples},
    )
    if cone.dim != thm.dim:
        return VerificationReport(**base, skipped=f"needs a {thm.dim}d cone, got {cone.dim}d")
    if cone.dim == 3:  # every 3d identity needs the Gorenstein frame
        try:
            cone_plan(cone).frame
        except DomainError as exc:
            return VerificationReport(**base, skipped=str(exc))

    rng = Random(seed)
    points, lhs_vals, rhs_vals, residuals = [], [], [], []
    for _ in range(samples):
        for attempt in range(_MAX_SAMPLE_ATTEMPTS):
            z, omegas = thm.sampler(cone, rng)
            try:
                a = thm.lhs(cone, z, omegas, cfg)
                b = thm.rhs(cone, z, omegas, cfg)
            except DomainError:
                continue
            break
        else:
            raise DomainError(
                f"could not draw a generic sample for {theorem_id} after "
                f"{_MAX_SAMPLE_ATTEMPTS} attempts"
            )
        points.append((z, omegas))
        lhs_vals.append(a)
        rhs_vals.append(b)
        residuals.append(_rel_residual(a, b))
    # max() skips a nan that is not first, so look for one explicitly
    worst = math.nan if any(math.isnan(r) for r in residuals) else max(residuals)
    return VerificationReport(
        **base,
        points=tuple(points),
        lhs=tuple(lhs_vals),
        rhs=tuple(rhs_vals),
        residuals=tuple(residuals),
        max_residual=worst,
        passed=math.isfinite(worst) and worst < tol,
    )

