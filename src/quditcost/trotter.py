"""Rotation schedules, and the single native step of exp(-i t phi^2).

On a d-level system the step's diagonal factors into d - 1 rotations on
adjacent level pairs, with angles given by twice the centered partial
sums of the squared eigenvalues.  The binary-register step it is compared
with needs n_b * (n_b + 1) / 2 synthesized Z / ZZ rotations; the tests
build that circuit (tests/oracles.py) to certify the count.

Rotation angle conventions are fixed here once (R_z(theta) = exp(-i theta Z / 2),
so theta = 2 * coefficient * t) and validated against the dense simulation
oracle rather than by convention agreement.  Schedules hold Y rotations
(state preparation) and Z rotations (diagonals) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .grid import FieldGrid, levels, squared_mean

AXES = ("Y", "Z")

# Two-level rotations are 4*pi periodic; triviality is membership of the
# angle in 4*pi*Z within this tolerance.
ANGLE_PERIOD = 4.0 * math.pi
TRIVIAL_ANGLE_TOL = 1e-10


def is_trivial_angle(angle: float, tol: float = TRIVIAL_ANGLE_TOL) -> bool:
    """True when the rotation is the identity, i.e. angle = 0 mod 4*pi."""
    return abs(math.remainder(angle, ANGLE_PERIOD)) <= tol


def reduce_angle(angle: float) -> float:
    """Canonical mod-4*pi representative in (-2*pi, 2*pi]."""
    r = math.remainder(angle, ANGLE_PERIOD)
    if r <= -2.0 * math.pi:
        r += ANGLE_PERIOD
    return r


@dataclass(frozen=True)
class Rotation:
    """One embedded two-level rotation: exp(-i * angle / 2 * G) on levels (b, c)."""

    axis: str
    levels: tuple[int, int]
    angle: float


@dataclass(frozen=True)
class RotationSchedule:
    """Ordered list of embedded two-level rotations plus a global phase.

    The represented unitary is e^(i * global_phase) times the product of
    the rotations, applied to states in sequence order (rotations[0] first).
    """

    dim: int
    rotations: tuple[Rotation, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        for rot in self.rotations:
            if rot.axis not in AXES:
                raise ValueError(f"unknown rotation axis {rot.axis!r}")
            b, c = rot.levels
            if not 0 <= b < c < self.dim:
                raise ValueError(
                    f"level pair {rot.levels} invalid for dimension {self.dim}"
                )

    @cached_property
    def nontrivial_count(self) -> int:
        """Number of rotations whose angle is not 0 mod 4*pi."""
        return sum(1 for rot in self.rotations if not is_trivial_angle(rot.angle))


def qudit_trotter_angles(grid: FieldGrid, t: float) -> RotationSchedule:
    """Adjacent-pair Z rotation schedule for one native d-level step.

    Angles are twice the running centered partial sums
    theta_k = 2 * sum_{n<=k} (t * lambda_n^2 - t * mu), reduced to
    (-2*pi, 2*pi]; the recorded global phase is -t * mu, so that
    e^(i * global_phase) times the rotation product equals
    diag(e^(-i t lambda_n^2)) exactly.
    """
    mu = squared_mean(grid)
    lambdas = levels(grid)
    rotations = []
    acc = 0.0
    for k in range(grid.d - 1):
        acc += t * lambdas[k] ** 2 - t * mu
        rotations.append(Rotation("Z", (k, k + 1), reduce_angle(2.0 * acc)))
    return RotationSchedule(
        dim=grid.d, rotations=tuple(rotations), global_phase=-t * mu
    )

