"""Frozen generic parameter points shared across the test suite.

Every tuple below is a literal that was validated against the independent
oracles (brute-force lattice sums, generating-function fits, closed forms)
before being frozen here.  The sine-domain tuples keep Re(omega) strictly
inside the dual-cone interior of the named cone; the gamma-domain tuples keep
Im(omega) there.  Small off-axis components keep every period ratio away from
the real axis so all infinite products converge quickly.
"""
from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from unittest import mock

from conesine import Cone, generalized, qseries

# A generic evaluation point used by most identity checks.
Z_GENERIC = 0.31 - 0.17j

# sine-domain periods: Re(omega) in the dual interior, modest imaginary jitter
SINE_OMEGAS = {
    "standard-2": (0.8 + 0.11j, 0.9 - 0.13j),
    "wedge21": (-0.9 + 0.12j, 1.1 + 0.07j),
    "wedge53": (-0.8 + 0.09j, 1.5 - 0.06j),
    "standard-3": (0.9 + 0.08j, 0.75 - 0.11j, 1.05 + 0.05j),
    "cone-over-square": (1.7 + 0.10j, -0.5 + 0.13j, -0.6 - 0.08j),
}

# gamma-domain periods: Im(omega) in the dual interior
GAMMA_OMEGAS = {
    "standard-2": (0.21 + 0.55j, -0.13 + 0.62j),
    "wedge21": (0.09 - 0.60j, -0.04 + 0.65j),
    "wedge53": (0.11 - 0.55j, -0.06 + 0.40j),
    "standard-3": (0.14 + 0.52j, -0.08 + 0.61j, 0.05 + 0.47j),
    "cone-over-square": (0.06 + 0.95j, -0.04 - 0.28j, 0.05 - 0.33j),
}

# nearly-real periods with Re(omega) in the dual interior: the lattice
# generating-function oracle converges fastest here
BERNOULLI_OMEGAS = {
    "wedge21": (-0.25 + 0.021j, 0.35 + 0.013j),
    "wedge53": (-0.22 + 0.017j, 0.41 + 0.011j),
    "cone-over-square": (0.42 + 0.014j, -0.13 + 0.009j, -0.17 - 0.012j),
}
Z_BERNOULLI_2D = 0.27 - 0.11j
Z_BERNOULLI_3D = 0.19 + 0.07j

# oracle ray directions for the lifted (extra-period) polynomials: the ray
# must make Re(ray * omega_pairing) positive for every lattice direction of
# the lifted cone, including the pairing with the extra period eta
LIFT_RAY = {
    -1.0: cmath.exp(1j * (-math.pi + 0.35)),
    1.0: cmath.exp(-0.35j),
}
Z_LIFTED = 0.21 - 0.13j

# cones whose fibers along the last axis are awkward to bound: bounded on both
# sides, with ends that move by a long stride (the lcm of the normals' last
# coordinates), or with normal entries near 1e6 and past 2^32
STRESS_CONES = {
    "two-sided-2d": Cone(2, ((0, 1), (1, -1))),
    "two-sided-3d": Cone(3, ((1, 0, 1), (0, 1, 1), (1, 1, -1))),
    "stride-6": Cone(3, ((4, 1, 2), (4, -1, 3), (4, -1, -2), (4, 1, -3))),
    "huge-stride": Cone(2, ((1, 1000003), (-1, 999983))),
    "stride-1517": Cone(3, ((1, 0, 37), (0, 1, 41), (-1, -1, 1))),
    "stride-105": Cone(3, ((1, 0, 3), (0, 1, 5), (-1, -1, 7))),
    "lone-bend": Cone(3, ((1, -2, -2), (1, 0, -2), (-3, 4, 2))),
    "giant-stride": Cone(2, ((1, 4294967311), (-1, 4294967357))),
}


def chain_wedges(lines, z: complex, omegas) -> list[tuple[complex, tuple[complex, complex]]]:
    """(shifted argument, periods) of each wedge of a 2d chain, walked as
    ``Cone.wedges`` walks a 2d cone's chain: the pairings of consecutive
    lines with the periods, every wedge but the last shifted by its first."""
    def pairing(u):
        return omegas[0] * u[1] - omegas[1] * u[0]

    wedges = [(z + pairing(u), (pairing(u), pairing(up))) for u, up in zip(lines, lines[1:])]
    wedges[-1] = (z, wedges[-1][1])
    return wedges


def rel(a: complex, b: complex) -> float:
    """Symmetric relative difference, zero when both values vanish."""
    scale = max(abs(a), abs(b))
    if scale == 0:
        return 0.0
    return abs(a - b) / scale


@contextmanager
def forced_form(form: int):
    """Within the block every sine boundary factorization tries form ``form`` first, as if
    ``qseries._cheaper_form`` had picked it; the other form is still taken where that one
    refuses.  Tests pick a form through this one seam and no other."""
    with mock.patch.object(qseries, "_cheaper_form", return_value=form):
        yield


@contextmanager
def recorded_products():
    """Within the block, each product a route hands to ``qseries._product``, in the order the
    calls begin, as (exponent, factors): the (c, b) of its Bernoulli exponential e^{c b}, or
    None, and the factors, in the order the evaluator consumes them."""
    products, evaluate = [], qseries._product

    def recording(kind, z, factors, exponent=None):
        consumed = []
        products.append((exponent, consumed))

        def consume():
            for factor in factors:
                consumed.append(factor)
                yield factor

        return evaluate(kind, z, consume(), exponent)

    with mock.patch.object(qseries, "_product", recording), mock.patch.object(generalized, "_product", recording):
        yield products


def face_factors(cone, z: complex, omegas, variant: str | None = None) -> list[tuple[str, complex]]:
    """[(face id, factor), ...]: the factors, one per codimension-1 face, that a factorized cone
    route multiplies into the value it returns, read from its own product.  For the sine
    (``variant`` None) ``sine_cone_factorized``'s q-factorials, in the form whose value it
    returns: the form it tries first (``forced_form`` picks it) unless that one refuses; for
    the gamma ``gamma_cone_factorized``'s elliptic gammas in ``variant``, ``"primary"`` or
    ``"alternative"``.  A refusal of the route is raised."""
    with recorded_products() as products:
        if variant is None:
            generalized.sine_cone_factorized(cone, z, omegas)
        else:
            generalized.gamma_cone_factorized(cone, z, omegas, variant=variant)
    _, factors = products[-1]  # a form that refuses is followed by the other
    return list(zip([ft.face_id for ft in cone.face_transforms], factors))


# (eval target, cone fixture, route, z, periods) where every factor of the
# route is finite but their product overflows double precision; found by
# fuzzing the verify samplers with periods scaled by 0.05-1 and large |Im z|
OVERFLOWING_PRODUCTS = [
    ("g2c", "standard-3", "direct", -1.4741057674986662 - 2.4293670443821855j,
     (0.08381410654717894 + 0.21786450596247472j, 0.2592931283366799 + 0.24234458353664348j,
      -0.08882495178618781 + 0.4810787384086693j)),
    ("g1c", "standard-2", "factorized", -1.2329587409595275 + 2.3874839490203947j,
     (0.17671602692944213 + 0.18559623032075767j, -0.0903466783460682 + 0.09005642268509148j)),
    ("g1c", "wedge21", "direct", 0.8137555507769942 + 7.795751396628425j,
     (0.2878975718715774 - 0.9202849935120694j, -0.23656465002396382 + 0.9708399355558271j)),
    ("g2c", "cone-over-square", "factorized", -1.06101350580827 + 3.769945763059071j,
     (0.33310952578493036 + 1.1611264297976824j, -0.2665562060886525 - 0.6274949110133086j,
      0.10867514018542403 - 0.269881132786776j)),
    ("s3c", "cone-over-square", "factorized", 1.0462611796628578 + 1.5488095881632244j,
     (0.694494838284149 - 0.016847567965379454j, -0.9631727923737767 - 0.07644984386875364j,
      -0.6937900189994956 - 0.04922834159721217j)),
    ("s3c", "standard-3", "decomposed", -1.0616698513698788 + 0.461765387788744j,
     (0.15886094881110255 - 0.02114048889705165j, 0.04722862495426524 - 0.005737995738367754j,
      0.08264652338767096 - 0.03882537603249053j)),
]
