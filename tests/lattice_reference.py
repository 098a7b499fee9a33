"""Earlier versions of library routines, kept as references.

``lattice_points`` builds each fiber along the last axis from the normals'
bounds, and ``gamma_cone_lattice_oracle`` takes its interior points from it.  These are the earlier versions they
replaced: scan every point of the (2R+1)^d cube for membership, then mask the
closed points a second time for the interior.  They are slow and plain, and
the library must return the same points in the same order, and
``==``-identical oracle values.

``unimodular_with_first_column`` builds its matrix by column operations.
``row_reduction_unimodular_with_first_column`` is the version it replaced:
row-reduce the column to e_1, invert the accumulated rows by adjugate and
fix the determinant's sign.  The library must return the same matrix and
raise the same DomainError messages.
"""
from __future__ import annotations

import numpy as np

from conesine import Cone, DomainError
from conesine.lattice_cones import _as_ivec, int_det, unimodular_inverse, vec_gcd, xgcd
from conesine.qseries import _out_of_range


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
    periods are used as given: the damping check is the library's, and so is
    the range rule a nonzero value is held to."""
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
    rule = _out_of_range(value) if value else None
    if rule:
        raise DomainError(f"the lattice product {rule} at z = {z:.6g}")
    return value


def row_reduction_unimodular_with_first_column(xi):
    """A determinant +1 integer matrix whose first column is the primitive xi,
    by row reduction and an adjugate inverse."""
    col = _as_ivec(xi, "xi")
    if vec_gcd(col) != 1:
        raise DomainError(f"{col} is not primitive, cannot extend to a unimodular basis")
    n = len(col)
    # reduce col to e1 by row operations, accumulating them in u
    work = list(col)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        if work[i] == 0:
            continue
        g, s, t = xgcd(work[0], work[i])
        # rows 0 and i are replaced by the Bezout combination and the
        # complementary one; the 2x2 block [[s, t], [-work[i]/g, work[0]/g]]
        # has determinant +1
        a0, ai = work[0], work[i]
        r0 = [s * u[0][k] + t * u[i][k] for k in range(n)]
        ri = [(-ai // g) * u[0][k] + (a0 // g) * u[i][k] for k in range(n)]
        u[0], u[i] = r0, ri
        work[0], work[i] = g, 0
    if work[0] == -1:
        u[0] = [-e for e in u[0]]
        work[0] = 1
    assert work[0] == 1
    a = unimodular_inverse(tuple(tuple(r) for r in u))
    # first column of a is xi by construction; fix the determinant sign
    if int_det(a) == -1:
        a = tuple(tuple(-row[j] if j == n - 1 else row[j] for j in range(n)) for row in a)
    assert tuple(row[0] for row in a) == col
    assert int_det(a) == 1
    return a
