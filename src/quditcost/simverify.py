"""Dense verification oracle for rotation schedules on small dimensions.

States are flat complex vectors of dimension at most DIM_CAP.  Diagonal
unitaries are represented by their per-level phase exponents: DiagPhases
with entries p_n stands for diag(e^(i p_n)), so composition is additive
and equality up to a global phase reduces to comparing phase differences
anchored at level 0.  A Z rotation on the pair (b, c) therefore shifts
p_b by -angle/2 and p_c by +angle/2; a schedule's global phase is added
uniformly.

All targets here are diagonal unitaries or single state preparations, so
an O(dim) per-rotation state update suffices and no dim x dim matrices
are ever formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .trotter import RotationSchedule

DIM_CAP = 64


@dataclass(frozen=True)
class DenseState:
    """Normalized state vector; treat the amplitude array as read-only."""

    dim: int
    amplitudes: np.ndarray


def basis_state(dim: int, level: int = 0, cap: int = DIM_CAP) -> DenseState:
    """Computational basis state |level> of the given dimension."""
    if dim > cap:
        raise ValueError(f"dimension {dim} exceeds dense verification cap {cap}")
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[level] = 1.0
    return DenseState(dim, amps)


def apply_rotation_to_state(
    state: DenseState, axis: str, levels: tuple[int, int], angle: float
) -> DenseState:
    """Apply one embedded two-level rotation; all other components are untouched.

    The Y block sends |b> to cos(angle/2) |b> + sin(angle/2) |c>; the Z
    block is the phase pair (e^(-i angle/2), e^(+i angle/2)); X is
    supported for completeness.

    Raises:
        ValueError: for a bad level pair or axis, or a norm drift (NaN angle).
    """
    b, c = levels
    if not 0 <= b < c < state.dim:
        raise ValueError(f"level pair {levels} out of range for dimension {state.dim}")
    amps = state.amplitudes.copy()
    half_cos = math.cos(angle / 2.0)
    half_sin = math.sin(angle / 2.0)
    if axis == "Z":
        amps[b] *= cmath.exp(-0.5j * angle)
        amps[c] *= cmath.exp(+0.5j * angle)
    elif axis == "Y":
        amps[b], amps[c] = (
            half_cos * amps[b] - half_sin * amps[c],
            half_sin * amps[b] + half_cos * amps[c],
        )
    elif axis == "X":
        amps[b], amps[c] = (
            half_cos * amps[b] - 1j * half_sin * amps[c],
            -1j * half_sin * amps[b] + half_cos * amps[c],
        )
    else:
        raise ValueError(f"unknown rotation axis {axis!r}")
    # written so that a NaN drift fails the check as well
    if not abs(np.linalg.norm(amps) - np.linalg.norm(state.amplitudes)) < 1e-12:
        raise ValueError(f"rotation by angle {angle} drifted the state norm")
    return DenseState(state.dim, amps)


def apply_schedule_to_state(state: DenseState, schedule: RotationSchedule) -> DenseState:
    """Apply a whole schedule in sequence order, including its global phase."""
    if schedule.dim != state.dim:
        raise ValueError(
            f"schedule dimension {schedule.dim} does not match state dimension {state.dim}"
        )
    for rot in schedule.rotations:
        state = apply_rotation_to_state(state, rot.axis, rot.levels, rot.angle)
    if schedule.global_phase != 0.0:
        state = DenseState(
            state.dim, state.amplitudes * cmath.exp(1j * schedule.global_phase)
        )
    return state


@dataclass(frozen=True)
class DiagPhases:
    """Diagonal unitary diag(e^(i phases[n])), stored as the exponents."""

    dim: int
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phases) != self.dim:
            raise ValueError(
                f"expected {self.dim} phases, got {len(self.phases)}"
            )


def combine(a: DiagPhases, b: DiagPhases) -> DiagPhases:
    """Compose two diagonal unitaries; exponents add."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return DiagPhases(a.dim, tuple(pa + pb for pa, pb in zip(a.phases, b.phases)))


def apply_z_schedule(schedule: RotationSchedule) -> DiagPhases:
    """Accumulate the diagonal realized by an all-Z schedule.

    Raises:
        ValueError: if the schedule contains a non-Z rotation.
    """
    phases = [0.0] * schedule.dim
    for rot in schedule.rotations:
        if rot.axis != "Z":
            raise ValueError(
                f"schedule contains a non-Z rotation ({rot.axis} on {rot.levels})"
            )
        b, c = rot.levels
        phases[b] -= 0.5 * rot.angle
        phases[c] += 0.5 * rot.angle
    g = schedule.global_phase
    return DiagPhases(schedule.dim, tuple(p + g for p in phases))


def equal_up_to_global_phase(
    a: DiagPhases, b: DiagPhases, tol: float = 1e-10
) -> tuple[bool, float]:
    """Compare two diagonals modulo one overall phase.

    Aligns by the phase difference at level 0 and returns (verdict, worst),
    where worst is the largest modulus of e^(i residual) - 1 over levels.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    anchor = a.phases[0] - b.phases[0]
    worst = 0.0
    for pa, pb in zip(a.phases, b.phases):
        worst = max(worst, abs(cmath.exp(1j * (pa - pb - anchor)) - 1.0))
    return worst <= tol, worst
