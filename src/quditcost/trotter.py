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
an array of angles whose level pairs its builder fixes: a Z ladder holds
Z rotations on the adjacent pairs (k, k+1), the preparation in lcu Y
rotations on the pairs (0, r).  No schedule carries a global phase: it
is no rotation, and every check compares diagonals up to one.
"""

from __future__ import annotations

import numpy as np

# Two-level rotations are 4*pi periodic.
ANGLE_PERIOD = 4.0 * np.pi


def reduce_angles(angles: np.ndarray) -> np.ndarray:
    """Canonical mod-4*pi representatives in (-2*pi, 2*pi].

    fmod is exact, and so is each shift by 4*pi past +-2*pi (Sterbenz), so
    every value equals math.remainder(angle, 4*pi) with -2*pi moved to
    2*pi, bit for bit.  One np.where picks the shifted or unshifted value.
    """
    r = np.fmod(angles, ANGLE_PERIOD)
    half = 0.5 * ANGLE_PERIOD
    return np.where(r > half, r - ANGLE_PERIOD, np.where(r <= -half, r + ANGLE_PERIOD, r))


def qudit_trotter_angles(phi_max: float, d, r, times) -> list[np.ndarray]:
    """Adjacent-pair Z ladder angles for one native d-level step at each of the times.

    Returns one row per time, the angles on the pairs (k, k+1), k = r - 1,
    elementwise over broadcastable d and r (r = 1 .. d-1 for one d).  With
    delta_phi = 2 * phi_max / (d - 1), m = (d - 1) / 2 and
    lambda_n = delta_phi * (n - m), the centered partial sums are
    sum_{n<=k} (lambda_n^2 - mu) = (delta_phi^2 / 3) * N_k,
    N_k = (k + 1)(2k - d + 2)(k - d + 1) / 2 an exact integer, and
    mu = (delta_phi^2 / 3) * m(m + 1).  N_k is built once for all times;
    the angles theta_k = 2 t (delta_phi^2 / 3) N_k are reduced to
    (-2*pi, 2*pi], each row on its own, which keeps a large d's
    temporaries small.  The ladder equals diag(e^(-i t lambda_n^2)) up to
    the global phase -t * mu.  Each value is a few roundings of exact
    factors, so its error is a few ulp at every d.

    Raises:
        ValueError: if an unreduced angle is not finite, which names
            phi_max and the first such t.  max |2 N_k| >= m(m + 1), so the
            angles overflow no later than the global phase would.
    """
    third = (2.0 * phi_max / (d - 1)) ** 2 / 3.0
    k = r - 1.0
    # three exact integer factors; their product is even
    numerator = (k + 1.0) * (2.0 * k - (d - 2)) * (k - (d - 1)) / 2.0
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            angles = (2.0 * t * third) * numerator
            if not np.isfinite(angles).all():
                raise ValueError(
                    f"phi_max={phi_max} with t={t} is too large: "
                    "the step angles 2 t sum(lambda^2 - mu) overflow"
                )
            rows.append(reduce_angles(angles))
    return rows
