"""Block-encoding constructions that the verify suites check; their costs are in costmodel.

Qubit route: on a sign-magnitude register (signed_labels, one array of
the 2^n_b labels) the squared operator is a weighted sum of bit-pair
projectors (qubit_projector_diag_oracle).

Native d-level route: the entangling part of the selection oracle is free,
leaving a diagonal phase operator that splits into a clock-phase ladder on
the index register and a comparator-driven sign flip; the preparation
oracle loads the coefficient amplitudes with d - 1 embedded two-level Y
rotations.  The tests build the clock ladder (tests/oracles.py); the sign
flip marks r >= (d + 1) / 2, the coefficient sign rule the dft-oracle
suite checks.  Both schedules are angle arrays: the selection is a
trotter.ZLadder, the preparation the d - 1 Y angles on the pairs (0, r).
"""

from __future__ import annotations

import numpy as np

from .grid import FieldGrid, register_width
from .pauli import PauliExpansion, irreducibility_floor, select_diag_phases
from .trotter import ZLadder, reduce_angles

# Largest register accepted by the dense projector-diagonal enumeration.
MAX_ORACLE_WIDTH = 20


def signed_labels(n_b: int) -> np.ndarray:
    """Sign-magnitude label of every string of an n_b-qubit register, in string order.

    The top bit is the sign; the remaining n_b - 1 bits are the magnitude.
    Labels cover {-(2^(n_b-1) - 1), ..., 2^(n_b-1) - 1}, with zero realized
    by two strings (both sign values on zero magnitude).
    """
    magnitude = np.arange(2 ** (n_b - 1))
    return np.concatenate([magnitude, -magnitude])


def qubit_projector_diag_oracle(grid: FieldGrid) -> list[float]:
    """Diagonal of the bit-pair projector sum on every register string.

    Returns delta_phi^2 * sum_{r,s} 2^(r+s) * l_r * l_s per computational
    string, the sum over the (r, s) projector pairs taken as one integer
    quadratic form of the magnitude bits; agreement with
    delta_phi^2 * label^2 (including both zero strings) is what the tests
    certify.  The form is below 4^(n_b - 1), exact in int64 and as a float.
    """
    n_b = grid.n_b
    if n_b > MAX_ORACLE_WIDTH:
        raise ValueError(
            f"register of {n_b} qubits too large for dense enumeration"
        )
    r = np.arange(n_b - 1)
    bits = (np.arange(2**n_b)[:, None] >> r) & 1
    pairs = np.int64(1) << (r[:, None] + r)
    return (grid.delta_phi**2 * ((bits @ pairs) * bits).sum(axis=1)).tolist()


def fixed_encoding_select_schedule(expansion: PauliExpansion) -> ZLadder:
    """Adjacent-pair Z ladder implementing the selection diagonal natively.

    Built by the direct prefix-sum construction: with theta_n the per-level
    phases and gamma their mean, the angle on pair (k, k+1) is
    -2 * sum_{n<=k} (theta_n - gamma), reduced to (-2*pi, 2*pi]; the
    global phase is gamma.  The closed form in
    select_vartheta_closed_form must agree mod 4*pi.
    """
    thetas = select_diag_phases(expansion)
    gamma = thetas.mean()
    return ZLadder(reduce_angles(-2.0 * np.cumsum(thetas[:-1] - gamma)), gamma)


def _select_numerator(d: int, k: int | np.ndarray) -> np.ndarray:
    """Integer N_k of the selection-schedule angle (pi/d) * N_k on pair (k, k+1).

    With m = (d - 1) / 2: N_k = (k+1)(4m - k), minus 2d (k - m) once k
    exceeds m.  The values stay below 4 d^2, exact in int64 up to
    d = 1.5e9.
    """
    register_width(d)
    k = np.asarray(k, dtype=np.int64)
    if k.min() < 0 or k.max() > d - 2:
        raise ValueError(f"rotation index k outside [0, {d - 2}]")
    m = (d - 1) // 2
    return (k + 1) * (4 * m - k) - 2 * d * np.maximum(k - m, 0)


def select_vartheta_closed_form(d: int, k: int | np.ndarray) -> float | np.ndarray:
    """Closed form (pi/d) * N_k of the selection-schedule angle on pair (k, k+1), unreduced.

    k may be an integer array, giving the angles of those pairs at once.
    """
    return (np.pi / d) * _select_numerator(d, k)


def select_nontrivial_count(d: int) -> int:
    """Number of nontrivial rotations in the selection schedule for dimension d.

    The closed-form angle is pi/d times the integer N_k, so triviality
    (angle = 0 mod 4*pi) reduces to 4d dividing N_k and is evaluated in
    exact integer arithmetic over all pairs at once; dense states are never
    needed here, which keeps census scans over large d cheap.
    """
    numerator = _select_numerator(d, np.arange(d - 1))
    return int(np.count_nonzero(numerator % (4 * d)))


def prep_ry_schedule(expansion: PauliExpansion) -> np.ndarray:
    """Two-level Y angles preparing amplitudes sqrt(|beta_r| / Lambda) from |0>.

    The d - 1 angles are applied in order, rotation r on levels (0, r),
    and satisfy sin(theta_r / 2) = a_r / prod_{k<r} cos(theta_k / 2).  The
    running cosine product equals the square root of the remaining tail
    mass, so each angle is assembled from its sine and cosine legs via
    atan2 on the exact tail sums; this keeps the final rotation an exact
    half-turn and the leftover amplitude on level 0 at roundoff level.

    Raises:
        ValueError: on a vanishing amplitude or a recursion ratio exceeding
            1 + 1e-9 (either signals broken normalization upstream).
    """
    b = np.abs(expansion.betas[1:])
    vanishing = np.flatnonzero(b <= irreducibility_floor(expansion.phi_max, expansion.d))
    if vanishing.size:
        r = vanishing[0] + 1
        raise ValueError(f"coefficient beta_{r} vanishes; nothing to prepare on |{r}>")
    amps = np.sqrt(b / expansion.lambda_norm)

    # tail[i] = sum of squared amplitudes from position i on; the final
    # entry is the exact empty sum, so the last angle is an exact half-turn.
    tail = np.append(np.cumsum(np.square(amps[::-1]))[::-1], 0.0)
    angles = 2.0 * np.arctan2(amps, np.sqrt(tail[1:]))

    # a_r over the literal recursion denominator prod_{k<r} cos(theta_k / 2)
    ratios = amps / np.cumprod(np.append(1.0, np.cos(angles[:-1] / 2.0)))
    broken = np.flatnonzero(ratios > 1.0 + 1e-9)
    if broken.size:
        i = broken[0]
        raise ValueError(
            f"preparation ratio {ratios[i]} exceeds 1 at level {i + 1}; "
            "amplitude normalization is inconsistent"
        )
    return angles
