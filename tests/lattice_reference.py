"""The cube-scan lattice enumeration and gamma lattice oracle, kept as references.

``lattice_points`` builds each fiber along the last axis from the normals'
bounds, and ``gamma_cone_lattice_oracle`` takes its interior points from it.  These are the earlier versions they
replaced: scan every point of the (2R+1)^d cube for membership, then mask the
closed points a second time for the interior.  They are slow and plain, and
the library must return the same points in the same order, and
``==``-identical oracle values.
"""
from __future__ import annotations

import cmath

import numpy as np

from conesine import Cone, DomainError


def cube_scan_lattice_points(cone: Cone, radius: int, interior: bool = False) -> np.ndarray:
    """Points of the cone (or its interior) with sup-norm <= radius, in
    lexicographic order, found by testing every point of the cube one value
    of the first coordinate at a time."""
    normals = np.asarray(cone.normals, dtype=np.int64)
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(*[rng] * (cone.dim - 1), indexing="ij"), axis=-1).reshape(-1, cone.dim - 1)
    rest_vals = rest @ normals[:, 1:].T
    chunks = []
    for x0 in range(-radius, radius + 1):
        vals = rest_vals + x0 * normals[:, 0]
        mask = (vals >= 1).all(axis=1) if interior else (vals >= 0).all(axis=1)
        if mask.any():
            sel = rest[mask]
            full = np.empty((sel.shape[0], cone.dim), dtype=np.int64)
            full[:, 0] = x0
            full[:, 1:] = sel
            chunks.append(full)
    if not chunks:
        return np.empty((0, cone.dim), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def cube_scan_gamma_oracle(cone: Cone, z: complex, omegas, radius: int) -> complex:
    """The truncated lattice product of ``gamma_cone_lattice_oracle`` over the
    cube-scan points, the interior taken by masking the closed points.  The
    periods are used as given: the damping check is the library's."""
    om = np.asarray(tuple(complex(w) for w in omegas))
    closed = cube_scan_lattice_points(cone, radius, interior=False)
    opened = closed[(closed @ np.asarray(cone.normals).T >= 1).all(axis=1)]
    phase_closed = closed @ om
    phase_open = opened @ om
    two_pi_i = 2j * np.pi
    with np.errstate(all="ignore"):
        plus = np.prod(1 - np.exp(two_pi_i * (complex(z) + phase_closed)))
        minus = np.prod(1 - np.exp(two_pi_i * (-complex(z) + phase_open)))
        value = complex(minus / plus if cone.dim == 2 else minus * plus)
    if not cmath.isfinite(value):
        raise DomainError("the lattice product is not finite")
    return value
