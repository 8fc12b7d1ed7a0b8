"""Dense verification oracle for rotation schedules, and the verify suites.

States are flat complex numpy vectors of dimension at most DIM_CAP.
Diagonal unitaries are represented by their per-level phase exponents: a
sequence of phases p_n stands for diag(e^(i p_n)), so composition is
additive and equality up to a global phase reduces to comparing phase
differences anchored at level 0.  In both, the dimension is the length.
A Z rotation on the pair (b, c) therefore shifts p_b by -angle/2 and p_c
by +angle/2; a schedule's global phase is added uniformly.

All targets here are diagonal unitaries or single state preparations, so
an O(dim) per-rotation state update suffices and no dim x dim matrices
are ever formed.

The six suites that `quditcost verify` runs check every schedule and
coefficient construction against this oracle, the DFT oracle or exact
integer arithmetic, for all odd d up to a cap, and return a SuiteResult.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .grid import levels, make_grid
from .lcu import (
    SignedBinaryRegister,
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    select_vartheta_closed_form,
)
from .pauli import beta_closed_form, beta_dft_oracle, select_diag_phases
from .trotter import RotationSchedule, qudit_trotter_angles

# largest dimension of the dense suites, and the default cap of the others
DIM_CAP = 64
CENSUS_CAP = 513


def basis_state(dim: int, level: int = 0, cap: int = DIM_CAP) -> np.ndarray:
    """Computational basis state |level> of the given dimension."""
    if dim > cap:
        raise ValueError(f"dimension {dim} exceeds dense verification cap {cap}")
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[level] = 1.0
    return amps


def apply_rotation_to_state(
    state: np.ndarray, axis: str, levels: tuple[int, int], angle: float
) -> np.ndarray:
    """Apply one embedded two-level rotation to a copy of the state.

    The Y block sends |b> to cos(angle/2) |b> + sin(angle/2) |c>; the Z
    block is the phase pair (e^(-i angle/2), e^(+i angle/2)); all other
    components are untouched.

    Raises:
        ValueError: for a bad level pair or axis, or a norm drift (NaN angle).
    """
    b, c = levels
    if not 0 <= b < c < len(state):
        raise ValueError(f"level pair {levels} out of range for dimension {len(state)}")
    amps = state.copy()
    if axis == "Z":
        amps[b] *= cmath.exp(-0.5j * angle)
        amps[c] *= cmath.exp(+0.5j * angle)
    elif axis == "Y":
        half_cos = math.cos(angle / 2.0)
        half_sin = math.sin(angle / 2.0)
        amps[b], amps[c] = (
            half_cos * amps[b] - half_sin * amps[c],
            half_sin * amps[b] + half_cos * amps[c],
        )
    else:
        raise ValueError(f"unknown rotation axis {axis!r}")
    # written so that a NaN drift fails the check as well
    if not abs(np.linalg.norm(amps) - np.linalg.norm(state)) < 1e-12:
        raise ValueError(f"rotation by angle {angle} drifted the state norm")
    return amps


def apply_schedule_to_state(state: np.ndarray, schedule: RotationSchedule) -> np.ndarray:
    """Apply a whole schedule in sequence order, including its global phase."""
    if schedule.dim != len(state):
        raise ValueError(
            f"schedule dimension {schedule.dim} does not match state dimension {len(state)}"
        )
    for rot in schedule.rotations:
        state = apply_rotation_to_state(state, rot.axis, rot.levels, rot.angle)
    if schedule.global_phase != 0.0:
        state = state * cmath.exp(1j * schedule.global_phase)
    return state


def apply_z_schedule(schedule: RotationSchedule) -> tuple[float, ...]:
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
    return tuple(p + g for p in phases)


def equal_up_to_global_phase(
    a: Sequence[float], b: Sequence[float], tol: float = 1e-10
) -> tuple[bool, float]:
    """Compare two diagonals modulo one overall phase.

    Aligns by the phase difference at level 0 and returns (verdict, worst),
    where worst is the largest modulus of e^(i residual) - 1 over levels.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    anchor = a[0] - b[0]
    worst = 0.0
    for pa, pb in zip(a, b):
        worst = max(worst, abs(cmath.exp(1j * (pa - pb - anchor)) - 1.0))
    return worst <= tol, worst


class SuiteResult(NamedTuple):
    """Verdict of one verify suite: pass or fail, the worst error, a note."""

    name: str
    ok: bool
    worst: float
    detail: str = ""


def _odd_dimensions(cap: int) -> range:
    return range(3, cap + 1, 2)


def suite_trotter(phi_max: float, dense_cap: int) -> SuiteResult:
    """Native step schedules realize diag(e^(-i t lambda_n^2)) at three times."""
    worst = 0.0
    for d in _odd_dimensions(dense_cap):
        grid = make_grid(phi_max, d)
        lambdas = levels(grid)
        for t in (0.1, 1.0, 3.7):
            realized = apply_z_schedule(qudit_trotter_angles(grid, t))
            target = [-t * lam**2 for lam in lambdas]
            _, err = equal_up_to_global_phase(realized, target)
            worst = max(worst, err)
    return SuiteResult("trotter-schedule", worst <= 1e-10, worst)


def suite_select(phi_max: float, dense_cap: int, inject: float = 0.0) -> SuiteResult:
    """Selection schedules realize the selection phases; inject bends one angle."""
    worst = 0.0
    for d in _odd_dimensions(dense_cap):
        expansion = beta_closed_form(make_grid(phi_max, d))
        schedule = fixed_encoding_select_schedule(expansion)
        if inject:
            first, *rest = schedule.rotations
            bent = replace(first, angle=first.angle + inject)
            schedule = replace(schedule, rotations=(bent, *rest))
        realized = apply_z_schedule(schedule)
        target = select_diag_phases(expansion)
        _, err = equal_up_to_global_phase(realized, target)
        worst = max(worst, err)
    return SuiteResult("select-schedule", worst <= 1e-10, worst)


def suite_prep(phi_max: float, dense_cap: int) -> SuiteResult:
    """Preparation schedules load the amplitudes sqrt(|beta_r| / Lambda) from |0>."""
    worst = 0.0
    for d in _odd_dimensions(dense_cap):
        expansion = beta_closed_form(make_grid(phi_max, d))
        state = apply_schedule_to_state(basis_state(d), prep_ry_schedule(expansion))
        target = np.zeros(d)
        target[1:] = [
            math.sqrt(abs(b) / expansion.lambda_norm) for b in expansion.betas[1:]
        ]
        worst = max(worst, float(np.linalg.norm(state - target)))
    return SuiteResult("prep-schedule", worst <= 1e-10, worst)


def suite_projector(phi_max: float) -> SuiteResult:
    """The bit-pair projector diagonal equals delta_phi^2 * label^2 exactly, n_b <= 8."""
    worst = 0.0
    for n_b in range(2, 9):
        # both extreme odd dimensions sharing this register width
        for d in (2 ** (n_b - 1) + 1, 2**n_b - 1):
            grid = make_grid(phi_max, d)
            register = SignedBinaryRegister(grid.n_b)
            oracle = qubit_projector_diag_oracle(grid)
            scale = grid.delta_phi**2
            for v in range(register.size):
                worst = max(worst, abs(oracle[v] - scale * register.label(v) ** 2))
    return SuiteResult("projector-diag", worst == 0.0, worst)


def suite_dft(phi_max: float, census_cap: int) -> SuiteResult:
    """Closed-form coefficients against the DFT oracle: values, Hermiticity, one-norm, signs."""
    worst_beta = 0.0
    worst_herm = 0.0
    worst_lambda = 0.0
    signs_ok = True
    for d in _odd_dimensions(census_cap):
        grid = make_grid(phi_max, d)
        closed = beta_closed_form(grid)
        oracle = beta_dft_oracle(grid)
        worst_beta = max(
            worst_beta, max(abs(a - b) for a, b in zip(closed.betas, oracle.betas))
        )
        worst_herm = max(
            worst_herm,
            max(
                abs(closed.betas[d - r] - closed.betas[r].conjugate())
                for r in range(1, d)
            ),
        )
        worst_lambda = max(
            worst_lambda,
            abs(closed.lambda_norm - oracle.lambda_norm) / oracle.lambda_norm,
        )
        threshold = (d + 1) // 2
        for r in range(1, d):
            if (closed.c_amps[r - 1] < 0) != (r >= threshold):
                signs_ok = False
    ok = signs_ok and worst_beta <= 1e-10 and worst_herm <= 1e-12 and worst_lambda <= 1e-10
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    return SuiteResult("dft-oracle", ok, max(worst_beta, worst_herm, worst_lambda), detail)


def _distinct_prime_count(n: int) -> int:
    """omega(n), the number of distinct primes dividing the odd number n."""
    count, p = 0, 3
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 2
    return count + (n > 1)


def suite_census(phi_max: float, census_cap: int) -> SuiteResult:
    """Trivial selection rotations: exact count, float schedule and closed form agree.

    With m = (d - 1) / 2 and j = k + 1, the angle on pair k is (pi/d) N_j,
    N_j = 2dj - j(j+1) - 2d e_j with e_j = max(0, j - 1 - m), and the
    rotation is trivial when 4d divides N_j.  That needs d | j(j+1).  As
    j and j + 1 are coprime, each prime power of d divides one of them,
    so by the Chinese remainder theorem j(j+1) = 0 mod d has 2^omega(d)
    roots mod d.  In 1 <= j <= d - 1 that leaves j = d - 1 and
    2^(omega(d)-1) - 1 pairs {j, d - 1 - j}.  Writing j(j+1) = dq (q is
    even, d odd), the rotation is trivial iff j - e_j - q/2 is even.  At
    j = d - 1 this is 1, so that rotation is nontrivial; within a pair
    the two values sum to an odd number (j = m is never a root, as
    4m(m+1) = d^2 - 1), so exactly one member is trivial.
    Hence d - 1 - s(d) = 2^(omega(d)-1) - 1, checked for every odd d up
    to the cap.  The detail lists the offsets that occurred.
    """
    worst = 0.0
    offsets = set()
    ok = True
    for d in _odd_dimensions(census_cap):
        count = select_nontrivial_count(d)
        offsets.add(d - 1 - count)
        if d - 1 - count != 2 ** (_distinct_prime_count(d) - 1) - 1:
            ok = False
        schedule = fixed_encoding_select_schedule(beta_closed_form(make_grid(phi_max, d)))
        if schedule.nontrivial_count != count:
            ok = False
        for k, rot in enumerate(schedule.rotations):
            gap = math.remainder(
                rot.angle - select_vartheta_closed_form(d, k), 4.0 * math.pi
            )
            worst = max(worst, abs(gap))
    detail = "offsets d-1-s(d): {" + ", ".join(str(o) for o in sorted(offsets)) + "}"
    return SuiteResult("select-census", ok and worst <= 1e-9, worst, detail)


def run_suites(
    phi_max: float,
    dense_cap: int = DIM_CAP,
    census_cap: int = CENSUS_CAP,
    inject: float = 0.0,
) -> Iterator[SuiteResult]:
    """Run the six suites in order, yielding each result as it completes.

    dense_cap bounds the trotter, select and prep suites (at most DIM_CAP),
    census_cap the dft and census suites; inject perturbs one selection
    angle to show that the select suite detects it.
    """
    if dense_cap > DIM_CAP:
        raise ValueError(f"dense verification cap exceeds {DIM_CAP}")
    if dense_cap < 3 or census_cap < 3:
        raise ValueError("empty scan range")
    yield suite_trotter(phi_max, dense_cap)
    yield suite_select(phi_max, dense_cap, inject)
    yield suite_prep(phi_max, dense_cap)
    yield suite_projector(phi_max)
    yield suite_dft(phi_max, census_cap)
    yield suite_census(phi_max, census_cap)
