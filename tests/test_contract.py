"""The package's public names, and the error contract over hostile inputs.

``conesine`` exports the paper's objects, its routes and its verbs; the
integer-matrix helpers are imported from ``conesine.lattice_cones``.

Every library call behind an ``eval`` target returns a finite complex or
raises a ConesineError, whatever z and the periods are: ordinary values,
imaginary parts down to 1e-6, moduli up to 1e307, subnormals, +-0, inf and
nan.  The two lattice oracles keep the same contract, and raise no
RuntimeWarning on the way.  No draw is filtered out: a refusal is an outcome.
"""
from __future__ import annotations

import cmath
import math
import sys
import warnings
from random import Random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import conesine
from conesine import EvalConfig, FIXTURE_NAMES, bernoulli_cone_oracle, fixture_cone, gamma_cone_lattice_oracle
from conesine import lattice_cones
from conesine.cli import _TARGETS
from conesine.errors import ConesineError

PUBLIC_NAMES = {
    "__version__", "ConesineError", "ParseError", "DomainError", "BudgetError",
    "Cone", "cone_chain_2d", "det2", "dual_contains", "edge_rays", "face_matrices", "gorenstein_frame",
    "gorenstein_vector", "is_good", "lattice_points", "subdivide_wedge",
    "bernoulli_cone", "bernoulli_cone_lifted", "bernoulli_cone_oracle", "bernoulli_multiple",
    "DEFAULT_CONFIG", "EvalConfig", "e2", "elliptic_gamma", "multiple_sine", "qfactorial", "qfactorial_xq",
    "THEOREM_IDS", "VerificationReport", "gamma_cone_direct", "gamma_cone_factorized",
    "gamma_cone_lattice_oracle", "sine_cone_decomposed", "sine_cone_factorized", "verify_theorem",
    "FIXTURE_NAMES", "fixture_cone", "load_cone",
}
# importable from conesine.lattice_cones only
MATRIX_HELPERS = {
    "xgcd", "FaceTransform", "GorensteinFrame", "WedgeSubdivision", "cross3", "det3", "mat_transpose",
    "mat_vec", "primitive_part", "is_primitive", "contains", "unimodular_inverse", "unimodular_with_first_column",
}
# test-only face-factor lists, built now by tests/params.py face_factors
FACE_FACTOR_NAMES = {"FaceFactor", "sine_face_factors", "gamma_face_factors"}


def test_public_names_are_pinned_and_resolve():
    assert len(conesine.__all__) == len(PUBLIC_NAMES) == 38
    assert set(conesine.__all__) == PUBLIC_NAMES
    assert all(hasattr(conesine, name) for name in PUBLIC_NAMES)


def test_removed_names_are_not_conesine_attributes():
    assert not (MATRIX_HELPERS | FACE_FACTOR_NAMES) & set(dir(conesine))
    assert all(hasattr(lattice_cones, name) for name in MATRIX_HELPERS)


# a BudgetError bounds the time of a call whose moduli sit near the unit circle
CFG = EvalConfig(max_terms=200_000)

CONES = {dim: [fixture_cone(n) for n in FIXTURE_NAMES if fixture_cone(n).dim == dim] for dim in (2, 3)}

# the parts of z and the periods, drawn from fixed pools: ordinary values in [-2, 2];
# a scale from 1e-300 to 1e307 times 0.5 to 1.3, of either sign; subnormals, +-0,
# inf and nan; and, for an imaginary part only, near-circle values from 1e-6 to 0.02
_rng = Random(10)
ORDINARY = tuple(round(_rng.uniform(-2.0, 2.0), 3) for _ in range(48))
_SCALES = (1e-300, 1e-12, 1e-4, 0.02, 0.3, 1.0, 7.0, 40.0, 113.0, 300.0, 1e8, 1e150, 1e307)
HOSTILE = tuple(sign * m * f for m in _SCALES for f in (0.5, 0.8, 1.3) for sign in (1, -1)) + (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan)
NEAR_CIRCLE = tuple(sign * m * f for m in (1e-6, 1e-5, 1e-4, 1e-3, 0.02) for f in (0.6, 1.4) for sign in (1, -1))
values = st.builds(complex, st.sampled_from(ORDINARY + HOSTILE), st.sampled_from(ORDINARY + HOSTILE + NEAR_CIRCLE))


def _family(target: str) -> str:
    # the cone targets are one family each; the others by letters (s1..s3, g0..g2, qfac)
    return target if _TARGETS[target][1] is not None else target.rstrip("0123456789")


FAMILIES: dict[str, list[tuple[str, object]]] = {}
for _target, (_, _, _routes) in _TARGETS.items():
    FAMILIES.setdefault(_family(_target), []).extend((_target, route) for route in _routes)


@st.composite
def eval_calls(draw, family: str):
    """(target, route, cone, z, omegas) of one call in ``family``, every route of it drawn."""
    target, route = draw(st.sampled_from(FAMILIES[family]))
    count, dim, _ = _TARGETS[target]
    count = draw(st.integers(1, 3)) if count is None else count
    cone = () if dim is None else (draw(st.sampled_from(CONES[dim])),)
    return target, route, cone, draw(values), tuple(draw(values) for _ in range(count))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_eval_call_returns_a_finite_value_or_refuses(family, data):
    target, route, cone, z, omegas = data.draw(eval_calls(family))
    try:
        value = _TARGETS[target][2][route](*cone, z, omegas, CFG)
    except ConesineError as exc:
        event(f"{target} {route}: {type(exc).__name__}")
        return
    event(f"{target} {route}: value")
    assert isinstance(value, complex) and cmath.isfinite(value), (target, route, z, omegas, value)
    # 0 only for a factor that is exactly 0, and nothing below the normal range, the one sine included
    assert value == 0 or math.hypot(value.real, value.imag) >= sys.float_info.min, (target, route, z, omegas, value)


@settings(max_examples=300, deadline=None)
@given(
    oracle=st.sampled_from(("gamma", "bernoulli")),
    name=st.sampled_from(FIXTURE_NAMES),
    z=values,
    omegas=st.tuples(values, values, values),
    n=st.integers(0, 14),
    eta=st.one_of(st.none(), values),
    radius=st.integers(1, 20),
)
# finite samples near 1e306 overflowed the sampled Bernoulli oracle's fit: 98 warnings, then nan+nanj
@example(oracle="bernoulli", name="standard-2", z=0.3, omegas=(0.7 + 1e307j, 1.5, 0j), n=3, eta=None, radius=20)
# an infinite period: two matmul warnings before the gamma oracle refused it
@example(oracle="gamma", name="wedge21", z=0.31 - 0.17j, omegas=(complex(math.inf, -0.6), -0.04 + 0.65j, 0j),
         n=0, eta=None, radius=20)
def test_oracles_return_a_finite_value_or_refuse(oracle, name, z, omegas, n, eta, radius):
    cone = fixture_cone(name)
    omegas = omegas[: cone.dim]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            if oracle == "gamma":
                value = gamma_cone_lattice_oracle(cone, z, omegas, radius)
            else:
                value = bernoulli_cone_oracle(cone, z, omegas, n, radius=radius, eta=eta)
        except ConesineError as exc:
            event(f"{oracle}: {type(exc).__name__}")
            return
    event(f"{oracle}: value")
    assert isinstance(value, complex) and cmath.isfinite(value), (oracle, name, z, omegas, n, eta, radius, value)
    # the lattice product is exactly 0 (an apex factor 1 - e(0) at z = 0) or in the normal range
    if oracle == "gamma":
        assert value == 0 or math.hypot(value.real, value.imag) >= sys.float_info.min, (name, z, omegas, radius, value)
