"""Simulation oracles for the angle schedules, and the verify suites.

Diagonal unitaries are represented by their per-level phase exponents: a
sequence of phases p_n stands for diag(e^(i p_n)), so composition is
additive and equality up to a global phase reduces to comparing phase
differences anchored at level 0.  In both, the dimension is the length.
A Z ladder's angle on the pair (k, k+1) shifts p_k by -angle/2 and
p_(k+1) by +angle/2, and its global phase is added uniformly
(ladder_diagonal).  A preparation applied to |0> leaves sin(theta_r/2)
times the running cosine product on level r, one np.cumprod (fan_state).
Both are O(dim) numpy per schedule; no dim x dim matrices are formed and
no Python loop runs per level.

The six suites that `quditcost verify` runs check every schedule and
coefficient construction against this oracle, the FFT coefficient oracle
or exact integer arithmetic, for all odd d up to a cap, and return a
SuiteResult.  The coefficient and census suites compare whole numpy arrays
per d, O(d log d) and O(d) work, so their caps can reach the thousands.
A NaN error anywhere is the worst error of its suite and fails it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .grid import CENSUS_CAP, DIM_CAP, make_grid
from .lcu import (
    SignedBinaryRegister,
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    select_vartheta_closed_form,
)
from .pauli import beta_closed_form, beta_dft_oracle, level_array, select_diag_phases
from .trotter import ZLadder, qudit_trotter_angles, reduce_angles

# A rotation is the identity when its angle lies in 4*pi*Z within this tolerance.
TRIVIAL_ANGLE_TOL = 1e-10


def ladder_diagonal(ladder: ZLadder) -> np.ndarray:
    """Per-level phases of the diagonal a Z ladder realizes.

    angles[k] shifts level k by -angles[k]/2 and level k + 1 by
    +angles[k]/2; the global phase is added to every level.
    """
    half = 0.5 * ladder.angles
    phases = np.zeros(len(half) + 1)
    phases[:-1] -= half
    phases[1:] += half
    return phases + ladder.global_phase


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
    """Number of rotations whose angle is off 4*pi*Z by more than TRIVIAL_ANGLE_TOL."""
    return len(angles) - int(np.count_nonzero(np.abs(reduce_angles(angles)) <= TRIVIAL_ANGLE_TOL))


def equal_up_to_global_phase(
    a: Sequence[float], b: Sequence[float], tol: float = 1e-10
) -> tuple[bool, float]:
    """Compare two diagonals modulo one overall phase.

    Aligns by the phase difference at level 0 and returns (verdict, worst),
    where worst is the largest modulus of e^(i residual) - 1 over levels,
    NaN if any residual is NaN.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    diff = np.subtract(a, b)
    worst = float(np.max(np.abs(np.exp(1j * (diff - diff[0])) - 1.0)))
    return worst <= tol, worst


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


def _odd_dimensions(cap: int) -> range:
    return range(3, cap + 1, 2)


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


def suite_trotter(phi_max: float, dense_cap: int) -> SuiteResult:
    """Native step schedules realize diag(e^(-i t lambda_n^2)) at three times."""
    dims = _odd_dimensions(dense_cap)
    errors = []
    for d in dims:
        grid = make_grid(phi_max, d)
        lam_sq = level_array(grid) ** 2
        errors.append(np.max([
            equal_up_to_global_phase(
                ladder_diagonal(qudit_trotter_angles(grid, t)), -t * lam_sq
            )[1]
            for t in (0.1, 1.0, 3.7)
        ]))
    return _result("trotter-schedule", dims, errors, 1e-10)


def suite_select(phi_max: float, dense_cap: int, inject: float = 0.0) -> SuiteResult:
    """Selection schedules realize the selection phases; inject bends one angle."""
    dims = _odd_dimensions(dense_cap)
    errors = []
    for d in dims:
        expansion = beta_closed_form(make_grid(phi_max, d))
        ladder = fixed_encoding_select_schedule(expansion)
        ladder.angles[0] += inject
        realized = ladder_diagonal(ladder)
        errors.append(equal_up_to_global_phase(realized, select_diag_phases(expansion))[1])
    return _result("select-schedule", dims, errors, 1e-10)


def suite_prep(phi_max: float, dense_cap: int) -> SuiteResult:
    """Preparation schedules load the amplitudes sqrt(|beta_r| / Lambda) from |0>."""
    dims = _odd_dimensions(dense_cap)
    errors = []
    for d in dims:
        expansion = beta_closed_form(make_grid(phi_max, d))
        state = fan_state(prep_ry_schedule(expansion))
        target = np.zeros(d)
        target[1:] = np.sqrt(np.abs(expansion.betas[1:]) / expansion.lambda_norm)
        errors.append(float(np.linalg.norm(state - target)))
    return _result("prep-schedule", dims, errors, 1e-10)


def suite_projector(phi_max: float) -> SuiteResult:
    """The bit-pair projector diagonal equals delta_phi^2 * label^2 exactly, n_b <= 8."""
    # both extreme odd dimensions sharing each register width
    dims = [d for n_b in range(2, 9) for d in (2 ** (n_b - 1) + 1, 2**n_b - 1)]
    errors = []
    for d in dims:
        grid = make_grid(phi_max, d)
        register = SignedBinaryRegister(grid.n_b)
        labels = np.array([register.label(v) for v in range(register.size)])
        oracle = np.array(qubit_projector_diag_oracle(grid))
        errors.append(np.max(np.abs(oracle - grid.delta_phi**2 * labels**2)))
    return _result("projector-diag", dims, errors, 0.0)


def suite_dft(phi_max: float, census_cap: int) -> SuiteResult:
    """Closed-form coefficients against the FFT oracle: values, Hermiticity, one-norm, signs.

    Per d, as arrays: max |closed - oracle| (bound 1e-10), max
    |beta_(d-r) - conj beta_r| of the closed form (1e-12), both relative
    to phi_max^2, the scale of every coefficient; the relative one-norm
    error (1e-10); and c_r < 0 exactly for r >= (d + 1) / 2.
    """
    dims = _odd_dimensions(census_cap)
    errors = np.empty((len(dims), 3))
    scale = phi_max * phi_max
    signs_ok = True
    for i, d in enumerate(dims):
        grid = make_grid(phi_max, d)
        closed = beta_closed_form(grid)
        oracle = beta_dft_oracle(grid)
        r = np.arange(1, d)
        errors[i] = (
            np.max(np.abs(closed.betas - oracle.betas)) / scale,
            np.max(np.abs(closed.betas[d - r] - closed.betas[r].conj())) / scale,
            abs(closed.lambda_norm - oracle.lambda_norm) / oracle.lambda_norm,
        )
        signs_ok = signs_ok and np.array_equal(closed.c_amps < 0, r >= (d + 1) // 2)
    bounds_ok = bool(np.all(errors.max(axis=0) <= (1e-10, 1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    return _result("dft-oracle", dims, errors.max(axis=1), 1e-10, signs_ok and bounds_ok, detail)


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
    to the cap.  The float schedule must count the same nontrivial
    rotations (|angle| mod 4*pi above TRIVIAL_ANGLE_TOL).  The error is
    the schedule's angle gap to the closed form mod 4*pi, folded by
    reduce_angles, which is exact, so it equals |math.remainder(gap, 4*pi)|.
    The detail names the first d where the float and exact counts differ,
    and lists the offsets that occurred.
    """
    dims = _odd_dimensions(census_cap)
    errors = []
    offsets = set()
    ok = True
    mismatch = ""
    for d in dims:
        count = select_nontrivial_count(d)
        offsets.add(d - 1 - count)
        if d - 1 - count != 2 ** (_distinct_prime_count(d) - 1) - 1:
            ok = False
        angles = fixed_encoding_select_schedule(beta_closed_form(make_grid(phi_max, d))).angles
        floats = nontrivial_count(angles)
        if floats != count:
            ok = False
            mismatch = mismatch or f"count mismatch at d={d} (float {floats}, exact {count})  "
        closed = select_vartheta_closed_form(d, np.arange(d - 1))
        errors.append(np.max(np.abs(reduce_angles(angles - closed))))
    detail = mismatch + "offsets d-1-s(d): {" + ", ".join(str(o) for o in sorted(offsets)) + "}"
    return _result("select-census", dims, errors, 1e-9, ok, detail)


def run_suites(
    phi_max: float,
    dense_cap: int = DIM_CAP,
    census_cap: int = CENSUS_CAP,
    inject: float = 0.0,
) -> Iterator[SuiteResult]:
    """Run the six suites in order, yielding each result as it completes.

    dense_cap bounds the trotter, select and prep suites, census_cap the
    dft and census suites; inject perturbs one selection angle to show
    that the select suite detects it.
    """
    if dense_cap < 3 or census_cap < 3:
        raise ValueError("empty scan range")
    yield suite_trotter(phi_max, dense_cap)
    yield suite_select(phi_max, dense_cap, inject)
    yield suite_prep(phi_max, dense_cap)
    yield suite_projector(phi_max)
    yield suite_dft(phi_max, census_cap)
    yield suite_census(phi_max, census_cap)
