"""Numerical multiple sine and elliptic gamma functions on rational cones.

The package evaluates the classical q-shifted factorial, theta, elliptic
gamma and multiple sine functions, their cone-restricted generalizations for
good rational cones in two and three dimensions, and the generalized
Bernoulli polynomials that appear in their modularity factors.  Every
factorization identity ships with an independent second evaluation route and
a seeded verification driver; the ``conesine`` command line exposes
evaluation, verification, cone diagnostics and report generation.
"""

from __future__ import annotations

__version__ = "1.0.0"

from .errors import BudgetError, ConesineError, DomainError, ParseError
from .lattice_cones import (
    Cone,
    cone_chain_2d,
    det2,
    dual_contains,
    edge_rays,
    face_matrices,
    gorenstein_frame,
    gorenstein_vector,
    is_good,
    lattice_points,
    subdivide_wedge,
)
from .bernoulli import (
    bernoulli_cone,
    bernoulli_cone_lifted,
    bernoulli_cone_oracle,
    bernoulli_multiple,
)
from .qseries import (
    DEFAULT_CONFIG,
    EvalConfig,
    e2,
    elliptic_gamma,
    multiple_sine,
    qfactorial,
    qfactorial_xq,
)
from .generalized import (
    THEOREM_IDS,
    VerificationReport,
    gamma_cone_direct,
    gamma_cone_factorized,
    gamma_cone_lattice_oracle,
    sine_cone_decomposed,
    sine_cone_factorized,
    verify_theorem,
)
from .fixtures import FIXTURE_NAMES, fixture_cone, load_cone

# old names the benchmark's oracle workload still calls; not in __all__
gamma_cone_2d_direct = gamma_cone_3d_direct = gamma_cone_direct

__all__ = [
    "__version__",
    # errors
    "ConesineError",
    "ParseError",
    "DomainError",
    "BudgetError",
    # lattice geometry
    "Cone",
    "cone_chain_2d",
    "det2",
    "dual_contains",
    "edge_rays",
    "face_matrices",
    "gorenstein_frame",
    "gorenstein_vector",
    "is_good",
    "lattice_points",
    "subdivide_wedge",
    # generalized Bernoulli layer
    "bernoulli_cone",
    "bernoulli_cone_lifted",
    "bernoulli_cone_oracle",
    "bernoulli_multiple",
    # q-series layer
    "DEFAULT_CONFIG",
    "EvalConfig",
    "e2",
    "elliptic_gamma",
    "multiple_sine",
    "qfactorial",
    "qfactorial_xq",
    # cone-restricted functions and verification
    "THEOREM_IDS",
    "VerificationReport",
    "gamma_cone_direct",
    "gamma_cone_factorized",
    "gamma_cone_lattice_oracle",
    "sine_cone_decomposed",
    "sine_cone_factorized",
    "verify_theorem",
    # fixtures
    "FIXTURE_NAMES",
    "fixture_cone",
    "load_cone",
]
