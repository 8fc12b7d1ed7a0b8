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
or exact integer arithmetic, for all odd d up to a cap, and each returns
its own SuiteResult.  They run in one pass per cap: the dense pass builds
each grid and closed-form expansion once per d and checks the three
schedules, the census pass builds each closed form and FFT oracle once
per d and checks the coefficients and the census; the projector suite
runs between them.  The census pass compares whole numpy arrays per d,
O(d log d) and O(d) work, so its cap can reach the thousands.  A NaN
error anywhere is the worst error of its suite and fails it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .grid import CENSUS_CAP, DIM_CAP, check_phi_max, make_grid, register_width
from .lcu import (
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    select_vartheta_closed_form,
    signed_labels,
)
from .pauli import (
    beta_closed_form,
    beta_dft_oracle,
    irreducibility_floor,
    level_array,
    select_diag_phases,
)
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


def dense_pass(phi_max: float, dense_cap: int, inject: float = 0.0) -> Iterator[SuiteResult]:
    """The trotter, select and prep suites, from one grid and closed form per d.

    trotter-schedule: native step schedules realize diag(e^(-i t lambda_n^2))
    at three times.  select-schedule: selection schedules realize the
    selection phases; inject bends one angle.  prep-schedule: preparation
    schedules load the amplitudes sqrt(|beta_r| / Lambda) from |0>.
    """
    dims = _odd_dimensions(dense_cap)
    errors = np.empty((len(dims), 3))
    for i, d in enumerate(dims):
        grid = make_grid(phi_max, d)
        lam_sq = level_array(grid) ** 2
        expansion = beta_closed_form(grid)
        ladder = fixed_encoding_select_schedule(expansion)
        ladder.angles[0] += inject
        target = np.zeros(d)
        target[1:] = np.sqrt(np.abs(expansion.betas[1:]) / expansion.lambda_norm)
        errors[i] = (
            np.max([
                equal_up_to_global_phase(
                    ladder_diagonal(qudit_trotter_angles(grid, t)), -t * lam_sq
                )[1]
                for t in (0.1, 1.0, 3.7)
            ]),
            equal_up_to_global_phase(ladder_diagonal(ladder), select_diag_phases(expansion))[1],
            np.linalg.norm(fan_state(prep_ry_schedule(expansion)) - target),
        )
    yield _result("trotter-schedule", dims, errors[:, 0], 1e-10)
    yield _result("select-schedule", dims, errors[:, 1], 1e-10)
    yield _result("prep-schedule", dims, errors[:, 2], 1e-10)


def suite_projector(phi_max: float) -> SuiteResult:
    """The bit-pair projector diagonal equals delta_phi^2 * label^2 exactly, n_b <= 8."""
    # both extreme odd dimensions sharing each register width
    dims = [d for n_b in range(2, 9) for d in (2 ** (n_b - 1) + 1, 2**n_b - 1)]
    errors = []
    for d in dims:
        grid = make_grid(phi_max, d)
        oracle = np.array(qubit_projector_diag_oracle(grid))
        errors.append(np.max(np.abs(oracle - grid.delta_phi**2 * signed_labels(grid.n_b) ** 2)))
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


def census_pass(phi_max: float, census_cap: int) -> Iterator[SuiteResult]:
    """The dft-oracle and select-census suites, from one closed form and FFT oracle per d.

    dft-oracle compares the closed-form coefficients with the FFT oracle:
    values, Hermiticity, one-norm and signs.  Per d, as arrays: max
    |closed - oracle| (bound 1e-10), max |beta_(d-r) - conj beta_r| of the
    closed form (1e-12), both relative to phi_max^2, the scale of every
    coefficient; the relative one-norm error (1e-10); and c_r < 0 exactly
    for r >= (d + 1) / 2.

    select-census counts the trivial selection rotations: the exact count,
    the float schedule built from the same closed form, and the closed-form
    angles agree.  With m = (d - 1) / 2 and j = k + 1, the angle on pair k
    is (pi/d) N_j, N_j = 2dj - j(j+1) - 2d e_j with e_j = max(0, j - 1 - m),
    and the rotation is trivial when 4d divides N_j.  That needs d | j(j+1).
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
    """
    dims = _odd_dimensions(census_cap)
    dft_errors = np.empty((len(dims), 3))
    census_errors = np.empty(len(dims))
    scale = phi_max * phi_max
    signs_ok = census_ok = True
    offsets = set()
    mismatch = ""
    for i, d in enumerate(dims):
        grid = make_grid(phi_max, d)
        closed = beta_closed_form(grid)
        oracle = beta_dft_oracle(grid)
        r = np.arange(1, d)
        dft_errors[i] = (
            np.max(np.abs(closed.betas - oracle.betas)) / scale,
            np.max(np.abs(closed.betas[d - r] - closed.betas[r].conj())) / scale,
            abs(closed.lambda_norm - oracle.lambda_norm) / oracle.lambda_norm,
        )
        signs_ok = signs_ok and np.array_equal(closed.c_amps < 0, r >= (d + 1) // 2)

        count = select_nontrivial_count(d)
        offsets.add(d - 1 - count)
        if d - 1 - count != 2 ** (_distinct_prime_count(d) - 1) - 1:
            census_ok = False
        angles = fixed_encoding_select_schedule(closed).angles
        floats = nontrivial_count(angles)
        if floats != count:
            census_ok = False
            mismatch = mismatch or f"count mismatch at d={d} (float {floats}, exact {count})  "
        closed_angles = select_vartheta_closed_form(d, np.arange(d - 1))
        census_errors[i] = np.max(np.abs(reduce_angles(angles - closed_angles)))

    bounds_ok = bool(np.all(dft_errors.max(axis=0) <= (1e-10, 1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    yield _result(
        "dft-oracle", dims, dft_errors.max(axis=1), 1e-10, signs_ok and bounds_ok, detail
    )
    detail = mismatch + "offsets d-1-s(d): {" + ", ".join(str(o) for o in sorted(offsets)) + "}"
    yield _result("select-census", dims, census_errors, 1e-9, census_ok, detail)


def run_suites(
    phi_max: float,
    dense_cap: int = DIM_CAP,
    census_cap: int = CENSUS_CAP,
    inject: float = 0.0,
) -> Iterator[SuiteResult]:
    """Run the six suites in order, yielding each result as it completes.

    dense_cap bounds the dense pass (trotter, select and prep suites),
    census_cap the census pass (dft and census suites); inject perturbs one
    selection angle to show that the select suite detects it.

    Raises:
        ValueError: for a cap below 3, or a phi_max whose smallest exact
            coefficient at the largest d checked, twice the irreducibility
            floor, is below the smallest normal float: there the
            coefficients lose precision and no verdict would hold.
    """
    if dense_cap < 3 or census_cap < 3:
        raise ValueError("empty scan range")
    check_phi_max(phi_max)
    cap = max(dense_cap, census_cap)
    d = cap - 1 + cap % 2
    register_width(d)
    if 2.0 * irreducibility_floor(phi_max, d) < sys.float_info.min:
        raise ValueError(
            f"phi_max={phi_max} is too small for the cap {cap}: the smallest coefficient "
            f"at d={d} is below the smallest normal float {sys.float_info.min:.3g}"
        )
    yield from dense_pass(phi_max, dense_cap, inject)
    yield suite_projector(phi_max)
    yield from census_pass(phi_max, census_cap)
