"""Simulation oracles for the angle schedules, and the verify suites.

Diagonal unitaries are represented by their per-level phase exponents: a
sequence of phases p_n stands for diag(e^(i p_n)), so composition is
additive and equality up to a global phase reduces to comparing phase
differences anchored at level 0 (phase_error).  In both, the dimension is
the length.  A Z ladder's angle on the pair (k, k+1) shifts p_k by
-angle/2 and p_(k+1) by +angle/2 (ladder_diagonal).  A preparation
applied to |0> leaves sin(theta_r/2) times the running cosine product on
level r, one np.cumprod (fan_state).
Both are O(dim) numpy per schedule; no dim x dim matrices are formed and
no Python loop runs per level.

The six suites that `quditcost verify` runs check every schedule and
coefficient construction against this oracle, the FFT coefficient oracle
or exact integer arithmetic, for all odd d up to a cap, and each returns
its own SuiteResult.  run_suites is the one entry: it checks its four
inputs, then one pass builds the closed form, the selection phases, the
float selection schedule, the one-norm and the squared levels once per
odd d up to the larger cap, checks the three schedules where d is within
the dense cap and the coefficients and the census where d is within the
census cap; the projector suite runs on its own.  The builders take
(phi_max, d) or arrays, return arrays and leave every fault to the suites.
The census compares whole numpy arrays per d, O(d log d) and O(d) work,
so its cap can reach the thousands.  A NaN error anywhere is the worst
error of its suite and fails it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .costmodel import check_phi_max, clock_one_norm, register_width
from .lcu import (
    MAX_NUMERATOR_D,
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    select_numerators,
    signed_labels,
)
from .pauli import (
    beta_closed_form,
    beta_dft_oracle,
    irreducibility_floor,
    level_array,
    select_diag_phases,
)
from .trotter import qudit_trotter_angles, reduce_angles

# A rotation is the identity when its angle lies in 4*pi*Z within this tolerance.
TRIVIAL_ANGLE_TOL = 1e-10


def ladder_diagonal(angles: np.ndarray) -> np.ndarray:
    """Per-level phases of the diagonal that a Z ladder's angles realize.

    angles[k], the rotation on the pair (k, k+1), shifts level k by
    -angles[k]/2 and level k + 1 by +angles[k]/2.
    """
    half = 0.5 * angles
    return np.append(0.0, half) - np.append(half, 0.0)


def fan_state(angles: Sequence[float]) -> np.ndarray:
    """State reached from |0> by the Y rotations angles[r - 1] on levels (0, r), in order.

    Each rotation is its 2x2 block on the amplitudes of |0> and |r>,
    sending |0> to cos(angle/2) |0> + sin(angle/2) |r>; no other
    component moves, and |r> is empty until its rotation.  So
    amps[r] = sin(theta_r/2) * prod_{k<r} cos(theta_k/2), and amps[0] is
    the full cosine product: one running product of the cosines.
    """
    half = np.asarray(angles, dtype=float) / 2.0
    prefix = np.cumprod(np.append(1.0, np.cos(half)))
    return np.append(prefix[-1], np.sin(half) * prefix[:-1])


def nontrivial_count(angles: np.ndarray) -> int:
    """Number of reduced angles (not reduced again) off 0 by more than TRIVIAL_ANGLE_TOL; NaN counts."""
    return len(angles) - int(np.count_nonzero(np.abs(angles) <= TRIVIAL_ANGLE_TOL))


def phase_error(a: Sequence[float], b: Sequence[float]) -> float:
    """Distance of two diagonals modulo one overall phase.

    With delta_n the phase difference at level n minus that at level 0,
    returns max_n 2 |sin(delta_n / 2)|, which equals |e^(i delta_n) - 1|
    in real arithmetic; NaN if any delta_n is NaN.
    """
    diff = np.subtract(a, b)
    return float(np.max(np.abs(2.0 * np.sin(0.5 * (diff - diff[0])))))


class SuiteResult(NamedTuple):
    """Verdict of one verify suite.

    worst is the largest error over the cases (the dimensions checked) and
    worst_d the dimension where it sits; detail is a note.
    """

    name: str
    ok: bool
    worst: float
    cases: int
    worst_d: int
    detail: str = ""


def _result(
    name: str, dims: Sequence[int], errors: Sequence[float], bound: float,
    ok: bool = True, detail: str = "",
) -> SuiteResult:
    """Verdict from the worst error at each dimension, which must not exceed bound.

    errors[i] belongs to dims[i].  np.argmax picks the first NaN when there
    is one, and a NaN worst fails.
    """
    i = int(np.argmax(errors))
    worst = float(errors[i])
    return SuiteResult(name, ok and worst <= bound, worst, len(dims), dims[i], detail)


def suite_projector(phi_max: float) -> SuiteResult:
    """The bit-pair projector diagonal equals delta_phi^2 * label^2 exactly, n_b <= 8."""
    # both extreme odd dimensions sharing each register width
    dims = [d for n_b in range(2, 9) for d in (2 ** (n_b - 1) + 1, 2**n_b - 1)]
    errors = []
    for d in dims:
        oracle = qubit_projector_diag_oracle(phi_max, d)
        scale = (2.0 * phi_max / (d - 1)) ** 2
        errors.append(np.max(np.abs(oracle - scale * signed_labels(register_width(d)) ** 2)))
    return _result("projector-diag", dims, errors, 0.0)


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


def run_suites(
    phi_max: float, dense_cap: int, census_cap: int, inject: float = 0.0
) -> list[SuiteResult]:
    """The six suites, from one closed form, phase list, ladder, one-norm and level array per d.

    All four inputs are checked before any suite runs.

    Over the odd d <= dense_cap: trotter-schedule, native step schedules
    realize diag(e^(-i t lambda_n^2)) at three times; select-schedule, the
    selection schedule realizes the selection phases, and inject bends one
    angle of a copy that only this check reads, to show that the check
    detects it; prep-schedule, the preparation loads the amplitudes
    sqrt(|beta_r| / Lambda) from |0>.  A vanishing coefficient raises in
    select_diag_phases, before any schedule is built.

    Over the odd d <= census_cap: dft-oracle compares the closed-form
    coefficients with the FFT oracle: values, Hermiticity, one-norm and
    signs.  Per d, as arrays: max |closed - oracle| (bound 1e-10), max
    |beta_(d-r) - conj beta_r| of the closed form (1e-12), both relative to
    phi_max^2, the scale of every coefficient; the relative one-norm error
    (1e-10); and c_r < 0 exactly for r >= (d + 1) / 2.

    select-census counts the trivial selection rotations: the exact count,
    the float schedule that select-schedule checks (without inject), and
    the closed-form angles agree.  One array of the exact N_k feeds the
    count and the closed-form angles; the float schedule never reads it,
    or the check would be vacuous.  With m = (d - 1) / 2 and j = k + 1, the angle on
    pair k is (pi/d) N_j, N_j = 2dj - j(j+1) - 2d e_j with
    e_j = max(0, j - 1 - m), and the rotation is trivial when 4d divides
    N_j.  That needs d | j(j+1).
    As j and j + 1 are coprime, each prime power of d divides one of them,
    so by the Chinese remainder theorem j(j+1) = 0 mod d has 2^omega(d)
    roots mod d.  In 1 <= j <= d - 1 that leaves j = d - 1 and
    2^(omega(d)-1) - 1 pairs {j, d - 1 - j}.  Writing j(j+1) = dq (q is
    even, d odd), the rotation is trivial iff j - e_j - q/2 is even.  At
    j = d - 1 this is 1, so that rotation is nontrivial; within a pair
    the two values sum to an odd number (j = m is never a root, as
    4m(m+1) = d^2 - 1), so exactly one member is trivial.
    Hence d - 1 - s(d) = 2^(omega(d)-1) - 1, checked for every odd d up
    to the cap.  The float schedule must count the same nontrivial
    rotations (|angle| mod 4*pi above TRIVIAL_ANGLE_TOL).  The error is
    the schedule's angle gap to the closed form mod 4*pi, folded by
    reduce_angles, which is exact, so it equals |math.remainder(gap, 4*pi)|.
    The detail names the first d where the float and exact counts differ,
    and lists the offsets that occurred.

    Returns the results of trotter, select, prep, projector-diag
    (suite_projector), dft and census, in print order.

    Raises:
        ValueError: for a non-finite inject, a cap below 3 or above
            MAX_NUMERATOR_D, or a phi_max whose smallest exact coefficient at
            the largest d checked, twice the irreducibility floor, is below
            the smallest normal float: there the coefficients lose precision
            and no verdict would hold.
    """
    if not math.isfinite(inject):
        raise ValueError(f"--inject-angle-error must be finite, got {inject}")
    for flag, value in (("--d-max", dense_cap), ("--census-max", census_cap)):
        if value < 3:
            raise ValueError(f"empty scan range: {flag}={value} is below the smallest odd d, 3")
        if value > MAX_NUMERATOR_D:
            raise ValueError(
                f"{flag}={value} is too large: the selection numerators are exact in int64 "
                f"only up to d = {MAX_NUMERATOR_D}"
            )
    check_phi_max(phi_max)
    cap = max(dense_cap, census_cap)
    d = cap - 1 + cap % 2
    if 2.0 * irreducibility_floor(phi_max, d) < sys.float_info.min:
        raise ValueError(
            f"phi_max={phi_max} is too small for the cap {cap}: the smallest coefficient "
            f"at d={d} is below the smallest normal float {sys.float_info.min:.3g}"
        )
    dense_dims, census_dims = range(3, dense_cap + 1, 2), range(3, census_cap + 1, 2)
    dense_errors = np.empty((len(dense_dims), 3))
    dft_errors = np.empty((len(census_dims), 3))
    census_errors = np.empty(len(census_dims))
    scale = phi_max * phi_max
    signs_ok = census_ok = True
    offsets = set()
    mismatch = ""
    for i, d in enumerate(range(3, cap + 1, 2)):
        betas, c_amps = beta_closed_form(phi_max, d)
        thetas = select_diag_phases(phi_max, c_amps)
        angles = fixed_encoding_select_schedule(thetas)
        lambda_norm = clock_one_norm(phi_max, d)
        lam_sq = level_array(phi_max, d) ** 2
        if d <= dense_cap:
            amps = np.sqrt(np.abs(betas[1:]) / lambda_norm)
            dense_errors[i] = (
                np.max([
                    phase_error(ladder_diagonal(qudit_trotter_angles(phi_max, d, t)), -t * lam_sq)
                    for t in (0.1, 1.0, 3.7)
                ]),
                phase_error(ladder_diagonal(np.append(angles[0] + inject, angles[1:])), thetas),
                np.linalg.norm(fan_state(prep_ry_schedule(amps)) - np.append(0.0, amps)),
            )
        if d <= census_cap:
            oracle = beta_dft_oracle(lam_sq)
            one_norm = np.abs(oracle[1:]).sum()
            r = np.arange(1, d)
            dft_errors[i] = (
                np.max(np.abs(betas - oracle)) / scale,
                np.max(np.abs(betas[d - r] - betas[r].conj())) / scale,
                abs(lambda_norm - one_norm) / one_norm,
            )
            signs_ok = signs_ok and np.array_equal(c_amps < 0, r >= (d + 1) // 2)

            numerators = select_numerators(d)
            count = select_nontrivial_count(numerators)
            offsets.add(d - 1 - count)
            if d - 1 - count != 2 ** (_distinct_prime_count(d) - 1) - 1:
                census_ok = False
            floats = nontrivial_count(angles)
            if floats != count:
                census_ok = False
                mismatch = mismatch or f"count mismatch at d={d} (float {floats}, exact {count})  "
            census_errors[i] = np.max(np.abs(reduce_angles(angles - (np.pi / d) * numerators)))

    dft_ok = signs_ok and bool(np.all(dft_errors.max(axis=0) <= (1e-10, 1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    offsets_seen = "offsets d-1-s(d): {" + ", ".join(str(o) for o in sorted(offsets)) + "}"
    return [
        _result("trotter-schedule", dense_dims, dense_errors[:, 0], 1e-10),
        _result("select-schedule", dense_dims, dense_errors[:, 1], 1e-10),
        _result("prep-schedule", dense_dims, dense_errors[:, 2], 1e-10),
        suite_projector(phi_max),
        _result("dft-oracle", census_dims, dft_errors.max(axis=1), 1e-10, dft_ok, detail),
        _result("select-census", census_dims, census_errors, 1e-9, census_ok, mismatch + offsets_seen),
    ]
