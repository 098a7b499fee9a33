"""Cone-restricted multiple sine and elliptic gamma functions.

Each object comes with two independent evaluation routes:

* a finite decomposition into ordinary multiple sines / elliptic gammas over
  a unimodular subdivision of the cone (``*_decomposed`` / ``*_direct``), and
* a Bernoulli exponential times one q-factorial or elliptic-gamma factor per
  codimension-1 face, built from the face transforms (``*_factorized``).

The two routes share only the q-series primitives, so their agreement is a
meaningful identity check; ``verify_theorem`` drives that comparison over
seeded random parameter samples and returns a serializable report.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from random import Random
from typing import Callable, Sequence

from .errors import DomainError
from .bernoulli import (
    _as_period_tuple,
    bernoulli_cone,
    bernoulli_cone_lifted,
)
from .lattice_cones import Cone, _draws, _per_draw, dual_contains, lattice_points, require_count, require_float_exact
from .qseries import (
    DEFAULT_CONFIG,
    EvalConfig,
    _out_of_range,
    _prefactor,
    _product,
    _rel_residual,
    _sine_factorization,
    elliptic_gamma,
    multiple_sine,
)


def _route_periods(cone: Cone, omegas: Sequence[complex], gamma: bool) -> tuple[complex, ...]:
    """One period per cone dimension; for the elliptic gammas Im(periods) strictly inside the dual cone."""
    omegas = _as_period_tuple(omegas, cone)
    if gamma and not dual_contains(cone, tuple(w.imag for w in omegas), strict=True):
        raise DomainError(
            "Im(periods) must lie strictly inside the dual cone for the "
            "cone elliptic gamma functions to converge"
        )
    return omegas


# ---------------------------------------------------------------------------
# decomposition routes (finite products of the ordinary functions)


def _wedge_product(
    fn: Callable[..., complex], cone: Cone, z: complex, omegas: tuple[complex, ...], cfg: EvalConfig
) -> complex:
    """Product of ``fn`` over the wedges of the cone's decomposition, after
    the factor of the straightened axis in 3d, checked finite."""
    axis, wedges = cone.wedges(z, omegas)
    if axis is not None:
        wedges = [(z, (axis,)), *wedges]
    return _product("wedge", z, (fn(arg, periods, cfg) for arg, periods in wedges))


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


def sine_cone_factorized(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> complex:
    """Cone sine as e^{(-1)^r pi i B^C_{r,r}(z | periods) / r!}, r the
    cone's dimension, times one q-factorial per 1-dimensional face (form 1).

    Form 2 negates every exponent: e^{-(-1)^r pi i B^C_{r,r} / r!} times the
    faces' (e^{-2 pi i z/p_0} | e^{-2 pi i p_j/p_0}).  The factorization is
    ``multiple_sine``'s, which takes the form with fewer predicted shift steps
    and the other where that one refuses.
    """
    omegas = _route_periods(cone, omegas, gamma=False)
    b = bernoulli_cone(cone, z, omegas, cone.dim)
    # after the cone checks of bernoulli_cone, so their refusals come first
    pairs = [(u, scaled[1:]) for _, u, scaled in cone.faces(z, omegas)]
    return _sine_factorization("face", b, cone.dim, pairs, z, cfg)


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
    and composes faces with the S matrix (``Cone.faces``), under
    e^{2 pi i B^lift / (r+1)!}; the alternative lifts with +1, uses the
    inverse S matrix (each face (u, (tau_0, tau_1, ...)) becomes
    (-u, (tau_0, -tau_1, ...))) and the opposite sign in the exponent.
    """
    omegas = _route_periods(cone, omegas, gamma=True)
    if variant not in ("primary", "alternative"):
        raise DomainError(f"unknown variant {variant!r}: use 'primary' or 'alternative'")
    faces = cone.faces(z, omegas)
    eta, sign = -1.0, 1.0
    if variant == "alternative":
        eta, sign = 1.0, -1.0
        faces = ((face_id, -u, (taus[0], *(-t for t in taus[1:]))) for face_id, u, taus in faces)
    b = bernoulli_cone_lifted(cone, z, omegas, eta)
    factors = (elliptic_gamma(u, taus, cfg) for _, u, taus in faces)
    return _product("face", z, factors, (sign * 2j * math.pi / math.factorial(cone.dim + 1), b))


# ---------------------------------------------------------------------------
# independent lattice oracle for the gamma functions

_LATTICE_BLOCK = 8192  # closed points per block of the oracle's pass: a few hundred kB of temporaries


@lru_cache(maxsize=8)  # at least the five shipped cones
def _kept_points(cone: Cone, radius: int):
    """The oracle's closed points, read-only, in the smallest signed integer type that
    holds +-radius (int8 up to radius 127), and a read-only bool mask of the interior
    ones among them: those whose pairing with every normal is at least 1."""
    import numpy as np

    closed, inner = lattice_points(cone, radius), True
    for normal in cone.normals:  # one int64 column of pairings at a time
        inner = inner & (closed @ np.asarray(normal, dtype=np.int64) >= 1)
    closed = closed.astype(np.min_scalar_type(-radius - 1))
    closed.flags.writeable = inner.flags.writeable = False
    return closed, inner


def _lattice_product(phases, w: complex, running):
    """running times the product of 1 - e^{2 pi i (w + p)} over the phases p, built in
    place in ``phases`` and multiplied in sequence, as ``np.prod`` multiplies."""
    import numpy as np

    phases += w
    phases *= 2j * np.pi
    np.exp(phases, out=phases)
    np.subtract(1, phases, out=phases)
    return np.multiply.reduce(phases, initial=running)


def gamma_cone_lattice_oracle(
    cone: Cone,
    z: complex,
    omegas: Sequence[complex],
    radius: int | None = None,
) -> complex:
    """Brute-force truncated lattice product for the cone elliptic gamma.

    Multiplies (1 - e^{2 pi i (z + m.omega)})^{s} over closed-cone points m
    and (1 - e^{2 pi i (-z + m.omega)}) over interior points, with s = -1 in
    2d and +1 in 3d, truncated at sup-norm ``radius`` (by default 60 in 2d
    and 40 in 3d).  Convergence needs Im(periods) strictly inside the dual
    cone; the discarded tail decays geometrically in the dual pairing.
    ``radius`` must be an integer >= 1, not a bool; a box of more than
    MAX_LATTICE_BOX points, a non-finite z or period, and a nonzero product
    out of range (``_out_of_range``) raise DomainError.  The closed points of the
    last 8 (cone, radius) pairs are kept with an interior mask, about dim + 1
    bytes a point to radius 127; a call forms each m.omega once, in blocks of
    _LATTICE_BLOCK points, so its working memory is one block at any radius.
    """
    import numpy as np

    omegas = _route_periods(cone, omegas, gamma=True)
    if not all(map(cmath.isfinite, (complex(z), *omegas))):
        raise DomainError(f"the lattice oracle needs a finite z and finite periods, got z = {z}, periods {omegas}")
    if radius is None:
        radius = 60 if cone.dim == 2 else 40
    closed, inner = _kept_points(cone, require_count(radius, "radius", 1))
    om, w, plus = np.asarray(omegas), complex(z), 1 + 0j
    # numpy forms a one-row @ by a dot whose last bit can differ from that row of a longer
    # product: no block is one row unless the whole set is, and a lone interior point gets its own
    lone = np.count_nonzero(inner) == 1
    stops = (*range(_LATTICE_BLOCK, len(closed) - 1, _LATTICE_BLOCK), len(closed))
    with np.errstate(all="ignore"):  # huge finite periods overflow a phase; the product is checked below
        minus = _lattice_product(closed[inner] @ om, -w, 1 + 0j) if lone else 1 + 0j
        for start, stop in zip((0, *stops), stops):
            phases = closed[start:stop] @ om
            if not lone:
                minus = _lattice_product(phases[inner[start:stop]], -w, minus)
            plus = _lattice_product(phases, w, plus)
        value = complex(minus / plus if cone.dim == 2 else minus * plus)
    rule = _out_of_range(value) if value else None  # an apex factor 1 - e(0) makes it exactly 0 at z = 0
    if rule:
        raise DomainError(f"the lattice product {rule} at z = {z:.6g}")
    return value


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


def _gamma_cone_alternative(cone: Cone, z: complex, omegas: tuple, cfg: EvalConfig) -> complex:
    """The alternative factorization, ``gamma_cone_factorized(..., variant="alternative")``."""
    return gamma_cone_factorized(cone, z, omegas, cfg, variant="alternative")


def _bernoulli_exponential(cone: Cone, z: complex, omegas: tuple, cfg: EvalConfig) -> complex:
    """e^{-pi i B^C_{3,3}(z | omegas) / 3}, the lhs of face-modularity."""
    return _prefactor(-1j * math.pi / 3.0, bernoulli_cone(cone, z, omegas, 3))


def _face_product_reduced(cone: Cone, z: complex, omegas: tuple, cfg: EvalConfig) -> complex:
    """The rhs of face-modularity: the face-transformed elliptic gammas, first transformed period dropped."""
    return _product("face", z, (elliptic_gamma(u, p[1:], cfg) for _, u, p in cone.faces(z, omegas)))


# The one route table: route name -> function(cone, z, omegas, cfg), one entry per function; the
# identities name their sides from it, and ``cli`` its eval routes.  The private sides call the
# public routes through module globals, so a rebound global reaches them.
CONE_ROUTES: dict[str, _Side] = {
    "sine_cone_decomposed": sine_cone_decomposed,
    "sine_cone_factorized": sine_cone_factorized,
    "gamma_cone_direct": gamma_cone_direct,
    "gamma_cone_factorized": gamma_cone_factorized,
    "gamma_cone_alternative": _gamma_cone_alternative,
    "bernoulli_exponential": _bernoulli_exponential,
    "face_product_reduced": _face_product_reduced,
}


@dataclass(frozen=True)
class _Theorem:
    """One identity, whose sides ``lhs`` and ``rhs`` start as ``CONE_ROUTES[lhs_name]`` and ``[rhs_name]``."""

    dim: int
    tolerance: float
    sampler: _Sampler
    lhs_name: str
    rhs_name: str
    lhs: _Side
    rhs: _Side


THEOREMS: dict[str, _Theorem] = {
    tid: _Theorem(dim, tolerance, sampler, lhs, rhs, CONE_ROUTES[lhs], CONE_ROUTES[rhs])
    for tid, dim, tolerance, sampler, lhs, rhs in (
        ("s2c-factorization", 2, 1e-8, _sample_sine_params, "sine_cone_decomposed", "sine_cone_factorized"),
        ("s3c-factorization", 3, 1e-7, _sample_sine_params, "sine_cone_decomposed", "sine_cone_factorized"),
        ("g1c-factorization", 2, 1e-8, _sample_gamma_params, "gamma_cone_direct", "gamma_cone_factorized"),
        ("g2c-factorization", 3, 1e-7, _sample_gamma_params, "gamma_cone_direct", "gamma_cone_factorized"),
        ("g2c-alternative", 3, 1e-7, _sample_gamma_params, "gamma_cone_factorized", "gamma_cone_alternative"),
        ("face-modularity", 3, 1e-7, _sample_gamma_params, "bernoulli_exponential", "face_product_reduced"),
    )
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

    A cone that fails the identity's hypotheses yields a SKIP report (with the
    reason) rather than a failure.  Sampling is deterministic in the integer
    seed; parameter draws that hit degenerate configurations (resonant ratios,
    poles) are rejected and redrawn, which is also deterministic.  ``samples``
    must be an integer >= 1; neither may be a bool.  ``tolerance``, if given,
    overrides the identity's own (a finite positive real).  A cone that meets
    the hypotheses but has a normal or edge-ray entry of magnitude 2**53 or
    more raises DomainError before any sample is drawn.

    Consecutive calls on the same cone, seed and config share each side's
    value, or refusal, at each drawn point under the side's route name, its
    key in the one route table ``CONE_ROUTES``: on a 3d cone the primary
    factorized gamma, the rhs of g2c-factorization and the lhs of
    g2c-alternative, is evaluated once per point for both.  A side replaced
    through ``dataclasses.replace`` keeps its name, and with it the values
    shared under the name.  Each drawn point's wedge walk, face walk and
    Bernoulli table of each order are shared too.  All of these are dropped
    when a call comes with another cone, seed or config, and read only while
    a call samples (``_per_draw``).  Each thread and each asyncio task keeps
    its own.
    """
    if theorem_id not in THEOREMS:
        raise DomainError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    thm = THEOREMS[theorem_id]
    samples = require_count(samples, "the sample count", 1)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise DomainError(f"the seed must be an integer, got {seed!r}")
    seed = int(seed)
    tol = thm.tolerance if tolerance is None else tolerance
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise DomainError(f"the tolerance must be a finite positive number, got {tolerance!r}")
    base = dict(
        theorem_id=theorem_id,
        cone=cone.to_json_dict(),
        seed=seed,
        tolerance=float(tol),
        config={**cfg.to_json_dict(), "samples": samples},
    )
    if cone.dim != thm.dim:
        return VerificationReport(**base, skipped=f"needs a {thm.dim}d cone, got {cone.dim}d")
    if cone.dim == 3:  # every 3d identity needs the Gorenstein frame
        try:
            cone.frame
        except DomainError as exc:
            return VerificationReport(**base, skipped=str(exc))
    require_float_exact(cone)  # the sampler pairs the normals with doubles

    context, draws, _ = _draws.get()
    if context != (cone, seed, cfg):
        context, draws = (cone, seed, cfg), {}
    rng = Random(seed)
    drawn = []
    _draws.set((context, draws, True))
    try:
        for _ in range(samples):
            for attempt in range(_MAX_SAMPLE_ATTEMPTS):
                z, omegas = thm.sampler(cone, rng)
                try:
                    a = _per_draw((thm.lhs_name, z, omegas), thm.lhs, cone, z, omegas, cfg)
                    b = _per_draw((thm.rhs_name, z, omegas), thm.rhs, cone, z, omegas, cfg)
                except DomainError:
                    continue
                break
            else:
                raise DomainError(f"could not draw a generic sample for {theorem_id} after {_MAX_SAMPLE_ATTEMPTS} attempts")
            drawn.append(((z, omegas), a, b))
    finally:
        _draws.set((context, draws, False))
    points, lhs, rhs = zip(*drawn)
    residuals = tuple(map(_rel_residual, lhs, rhs))
    # max() skips a nan that is not first, so look for one explicitly
    worst = math.nan if any(math.isnan(r) for r in residuals) else max(residuals)
    return VerificationReport(
        **base, points=points, lhs=lhs, rhs=rhs, residuals=residuals,
        max_residual=worst, passed=math.isfinite(worst) and worst < tol,
    )

