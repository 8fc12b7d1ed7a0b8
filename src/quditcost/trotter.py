"""Angle conventions, and the single native step of exp(-i t phi^2).

On a d-level system the step's diagonal factors into d - 1 rotations on
adjacent level pairs, with angles given by twice the centered partial
sums of the squared eigenvalues.  The binary-register step it is compared
with needs n_b * (n_b + 1) / 2 synthesized Z / ZZ rotations; the tests
build that circuit (tests/oracles.py) to certify the count.

Rotation angle conventions are fixed here once (R_z(theta) = exp(-i theta Z / 2),
so theta = 2 * coefficient * t) and validated against the simulation
oracle in simverify rather than by convention agreement.  A schedule is
an array of angles whose level pairs its builder fixes: a ZLadder holds
Z rotations on the adjacent pairs (k, k+1), and the preparation in lcu
holds Y rotations on the pairs (0, r).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grid import FieldGrid
from .pauli import level_array, levels

# Two-level rotations are 4*pi periodic.
ANGLE_PERIOD = 4.0 * np.pi


class ZLadder(NamedTuple):
    """Z rotations on the adjacent pairs, angles[k] on (k, k+1), plus a global phase.

    The represented unitary is e^(i * global_phase) times the product of
    the rotations exp(-i * angles[k] / 2 * Z_(k, k+1)).
    """

    angles: np.ndarray
    global_phase: float


def reduce_angles(angles: np.ndarray) -> np.ndarray:
    """Canonical mod-4*pi representatives in (-2*pi, 2*pi].

    fmod is exact, and so is each shift by 4*pi past +-2*pi (Sterbenz), so
    every value equals math.remainder(angle, 4*pi) with -2*pi moved to
    2*pi, bit for bit.
    """
    r = np.fmod(angles, ANGLE_PERIOD)
    r[r > 0.5 * ANGLE_PERIOD] -= ANGLE_PERIOD
    r[r <= -0.5 * ANGLE_PERIOD] += ANGLE_PERIOD
    return r


def squared_mean(grid: FieldGrid) -> float:
    """Mean of the squared eigenvalues, (1/d) * sum_n lambda_n^2.

    Computed by direct summation; for the symmetric grid this equals
    phi_max^2 * (d + 1) / (3 * (d - 1)), which the tests cross-check.
    """
    return sum(lam * lam for lam in levels(grid)) / grid.d


def qudit_trotter_angles(grid: FieldGrid, t: float) -> ZLadder:
    """Adjacent-pair Z ladder for one native d-level step.

    Angles are twice the running centered partial sums
    theta_k = 2 * sum_{n<=k} (t * lambda_n^2 - t * mu), reduced to
    (-2*pi, 2*pi]; the global phase is -t * mu, so that the ladder equals
    diag(e^(-i t lambda_n^2)) exactly.

    Raises:
        ValueError: if an unreduced angle is not finite, which names
            phi_max and t.
    """
    mu = squared_mean(grid)
    lam_sq = np.square(level_array(grid)[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        angles = 2.0 * np.cumsum(t * lam_sq - t * mu)
    if not np.isfinite(angles).all():
        raise ValueError(
            f"phi_max={grid.phi_max} with t={t} is too large: "
            "the step angles 2 t sum(lambda^2 - mu) overflow"
        )
    return ZLadder(reduce_angles(angles), -t * mu)
