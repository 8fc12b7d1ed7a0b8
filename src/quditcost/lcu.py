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
suite checks.  Every builder returns a plain numpy array: the projector
diagonal one float per string, the selection schedule one Z angle per
level r, that of the pair (r - 1, r) (0.0 at r = 0), the preparation the
d - 1 Y angles on the pairs (0, r).  None checks what a verify suite checks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .costmodel import register_width
from .trotter import reduce_angles

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


def qubit_projector_diag_oracle(phi_max: float, d: int) -> np.ndarray:
    """Diagonal of the bit-pair projector sum on every register string.

    Returns the float array of delta_phi^2 * sum_{r,s} 2^(r+s) * l_r * l_s,
    one per computational string, with delta_phi = 2 * phi_max / (d - 1)
    and n_b = register_width(d), the sum over the (r, s) projector pairs
    taken as one integer quadratic form of the magnitude bits; agreement
    with delta_phi^2 * label^2 (including both zero strings) is what the
    tests certify.  The form is below 4^(n_b - 1), exact in int64 and as a float.
    """
    n_b = register_width(d)
    if n_b > MAX_ORACLE_WIDTH:
        raise ValueError(
            f"register of {n_b} qubits too large for dense enumeration"
        )
    r = np.arange(n_b - 1)
    bits = (np.arange(2**n_b)[:, None] >> r) & 1
    pairs = np.int64(1) << (r[:, None] + r)
    return (2.0 * phi_max / (d - 1)) ** 2 * ((bits @ pairs) * bits).sum(axis=1)


def fixed_encoding_select_schedule(thetas: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Adjacent-pair Z angles implementing the selection diagonal natively.

    thetas holds the per-level phases of each d in sizes, d of them per d,
    back to back, and the result is laid out alike: at level r the angle on
    the pair (r - 1, r), at level 0 the empty slot 0.0.  Built by the direct
    prefix-sum construction: with gamma the mean of one d's phases, the
    angle on pair (r - 1, r) is -2 * sum_{n<r} (theta_n - gamma), reduced to
    (-2*pi, 2*pi], up to the global phase gamma.  The mean and the running
    sum are taken per d, because their float bits depend on the summation
    order; the rest is elementwise.  The closed form (pi/d) * N_r
    (select_numerators) must agree mod 4*pi, and is never read here.
    """
    sums = np.zeros(len(thetas))
    lo = 0
    for d in sizes:
        phases = thetas[lo:lo + d]
        np.cumsum(phases[:-1] - np.add.reduce(phases) / d, out=sums[lo + 1:lo + d])
        lo += d
    return reduce_angles(-2.0 * sums)


# Largest d whose selection numerators, below 4 d^2, are exact in int64.
MAX_NUMERATOR_D = math.isqrt((2**63 - 1) // 4)


def select_numerators(d, r) -> np.ndarray:
    """Integers N_r of the selection-schedule angles (pi/d) * N_r, elementwise over d and r.

    r = 0 .. d-1: N_r for the angle on the pair (r - 1, r), and N_0 = 0 for
    the empty slot; d and r broadcast, so one call covers the levels of one
    d or of several back to back.  With m = (d - 1) / 2:
    N_r = r (4m - r + 1), minus 2d (r - 1 - m) once r - 1 exceeds m.  The
    values stay below 4 d^2, exact in int64 up to d = MAX_NUMERATOR_D.
    """
    m = (d - 1) // 2
    return r * (4 * m - r + 1) - 2 * d * np.maximum(r - 1 - m, 0)


def select_nontrivial_count(d, numerators: np.ndarray, starts) -> np.ndarray:
    """Number of nontrivial selection angles (pi/d) * N_r in each run of numerators.

    The runs begin at the indices starts, one per d; d broadcasts against
    numerators.  A rotation is trivial when its angle is 0 mod 4*pi, that
    is when 4d divides N_r (N_0 = 0 is), which is evaluated in exact
    integer arithmetic over all levels at once; dense states are never
    needed here, which keeps census scans over large d cheap.
    """
    return np.add.reduceat(numerators % (4 * d) != 0, starts)


def prep_ry_schedule(amps: np.ndarray) -> np.ndarray:
    """Two-level Y angles preparing the amplitudes amps from |0>.

    amps holds a_r = sqrt(|beta_r| / Lambda), r = 1 .. d-1.  The d - 1
    angles are applied in order, rotation r on levels (0, r), and satisfy
    sin(theta_r / 2) = a_r / prod_{k<r} cos(theta_k / 2).  The
    running cosine product equals the square root of the remaining tail
    mass, so each angle is assembled from its sine and cosine legs via
    atan2 on the exact tail sums; this keeps the final rotation an exact
    half-turn and the leftover amplitude on level 0 at roundoff level.
    A wrong Lambda still gives angles; verify's prep and dft suites fail it.
    """
    # tail[i] = sum of squared amplitudes from position i on; the final
    # entry is the exact empty sum, so the last angle is an exact half-turn.
    tail = np.append(np.cumsum(np.square(amps[::-1]))[::-1], 0.0)
    return 2.0 * np.arctan2(amps, np.sqrt(tail[1:]))
