"""Angle conventions, and the single native step of exp(-i t phi^2).

On a d-level system the step's diagonal factors into d - 1 rotations on
adjacent level pairs, with angles given by twice the centered partial
sums of the squared eigenvalues.  On the symmetric grid those sums are
delta_phi^2 / 3 times an exact integer cubic in the pair index, so the
angles come from that closed form, not from a running float sum; the
tests compare them with the direct sum (tests/oracles.py).  The
binary-register step it is compared with needs n_b * (n_b + 1) / 2
synthesized Z / ZZ rotations; the tests build that circuit
(tests/oracles.py) to certify the count.

Rotation angle conventions are fixed here once (R_z(theta) = exp(-i theta Z / 2),
so theta = 2 * coefficient * t) and validated against the simulation
oracle in simverify rather than by convention agreement.  A schedule is
an array of angles whose level pairs its builder fixes: a ZLadder holds
Z rotations on the adjacent pairs (k, k+1), and the preparation in lcu
holds Y rotations on the pairs (0, r).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import FieldGrid

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
    2*pi, bit for bit.  One np.where picks the shifted or unshifted value.
    """
    r = np.fmod(angles, ANGLE_PERIOD)
    half = 0.5 * ANGLE_PERIOD
    return np.where(r > half, r - ANGLE_PERIOD, np.where(r <= -half, r + ANGLE_PERIOD, r))


def qudit_trotter_angles(grid: FieldGrid, t: float) -> ZLadder:
    """Adjacent-pair Z ladder for one native d-level step.

    With m = (d - 1) / 2 and lambda_n = delta_phi * (n - m), the centered
    partial sums are sum_{n<=k} (lambda_n^2 - mu) = (delta_phi^2 / 3) * N_k,
    N_k = (k + 1)(2k - d + 2)(k - d + 1) / 2 an exact integer, and
    mu = (delta_phi^2 / 3) * m(m + 1).  The angles theta_k = 2 t (delta_phi^2 / 3) N_k
    are reduced to (-2*pi, 2*pi]; the global phase is -t * mu, so that
    the ladder equals diag(e^(-i t lambda_n^2)).  Each value is a few
    roundings of exact factors, so its error is a few ulp at every d.

    Raises:
        ValueError: if an unreduced angle or the global phase is not
            finite, which names phi_max and t.
    """
    d = grid.d
    m = (d - 1) // 2
    third = grid.delta_phi**2 / 3.0
    k = np.arange(d - 1.0)
    # three exact integer factors; their product is even
    numerator = (k + 1.0) * (2.0 * k - (d - 2)) * (k - (d - 1)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        angles = (2.0 * t * third) * numerator
    global_phase = -t * third * (m * (m + 1))
    if not (np.isfinite(angles).all() and math.isfinite(global_phase)):
        raise ValueError(
            f"phi_max={grid.phi_max} with t={t} is too large: "
            "the step angles 2 t sum(lambda^2 - mu) or the phase -t mu overflow"
        )
    return ZLadder(reduce_angles(angles), global_phase)
