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
or exact integer arithmetic, for the odd d it is given, and each returns
its own SuiteResult.  run_suites is the one entry: it takes two sequences
of d, checks inject, phi_max and each d, then walks their sorted union
in blocks of consecutive d whose levels sum to at most BLOCK_LEVELS (a
larger d forms a block of its own and stays a scalar).  _block_index lays
a block out once: the levels n = 0 .. d-1 of each d back to back, and
the offset of each d's run.  Every array is indexed by level: the
selection angle and N_n of the pair (n - 1, n) sit at level n, and level
0 holds an empty slot, which is trivial.  The builders are elementwise
formulas over broadcastable (d, n) arrays, so one numpy call per formula
covers a whole block: the closed form, the selection phases and their
irreducibility check, the squared levels, the exact N_n, the nontrivial
counts, the census gap and the sign check.  Maxima, counts and sign
violations per d are reduceat calls over the runs, which do not depend
on order; the selection schedule takes its mean and running sum per d,
whose float bits do.  One loop then visits each d of the block, on slices
at its offsets: the one-norm; the dense suites, whose preparation sums
and multiplies in order and whose step angles square the spacing as a
Python float; and the FFT with its distance to the closed form, the
one-norm sum and the Hermiticity check.  Each check keeps one array over
the d it covers.  So each d is built once, and every error equals, bit
for bit, the one that a loop building each d on its own gets
(tests/oracles.py keeps that loop).  With a few hundred levels per d,
numpy's per-call overhead, not the arithmetic, set the cost of that
loop; the bound keeps a block's arrays small.  The builders leave every
fault to the suites.  A NaN error anywhere is the worst error of its
suite and fails it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .costmodel import check_phi_max, clock_one_norm, register_width
from .lcu import (
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

# Most levels, the sum of d, that one block of dimensions of run_suites holds.
BLOCK_LEVELS = 2048

# The times of the native step schedules that trotter-schedule checks.
STEP_TIMES = (0.1, 1.0, 3.7)


def ladder_diagonal(angles: np.ndarray) -> np.ndarray:
    """Per-level phases of the diagonal that a Z ladder's angles realize.

    angles[k], the rotation on the pair (k, k+1), shifts level k by
    -angles[k]/2 and level k + 1 by +angles[k]/2.
    """
    half = 0.5 * np.asarray(angles)
    phases = np.zeros(len(half) + 1)
    phases[1:] = half
    phases[:-1] -= half
    return phases


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


def nontrivial_count(angles: np.ndarray, starts) -> np.ndarray:
    """Reduced angles (not reduced again) off 0 by more than TRIVIAL_ANGLE_TOL, per run; NaN counts.

    One count for each run of angles, the runs beginning at the indices starts.
    """
    return np.add.reduceat(~(np.abs(angles) <= TRIVIAL_ANGLE_TOL), starts)


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


def _blocks(ds: Sequence[int]) -> list[list[int]]:
    """Runs of consecutive ds whose levels, the sum of their d, stay within BLOCK_LEVELS.

    A d above BLOCK_LEVELS forms a block of its own.
    """
    blocks, levels = [[]], 0
    for d in ds:
        if blocks[-1] and levels + d > BLOCK_LEVELS:
            blocks.append([])
            levels = 0
        blocks[-1].append(d)
        levels += d
    return blocks


def _block_index(ds: list[int]) -> tuple:
    """(d, n, levels) for the dimensions ds, back to back.

    d and n = 0 .. d-1 index the levels of each d in turn; the levels of
    ds[i] are levels[i]:levels[i + 1].  A block of one d keeps d a scalar:
    then each factor that depends only on d (the irreducibility floor's
    sine and cosine, the closed form's scale, pi/d) is one float, not one
    value per level.
    """
    levels = np.cumsum([0, *ds])
    if len(ds) == 1:
        return ds[0], np.arange(ds[0]), levels
    sizes = np.array(ds)
    d = np.repeat(sizes, sizes)
    return d, np.arange(len(d)) - np.repeat(levels[:-1], sizes), levels


def run_suites(
    phi_max: float, dense_ds: Sequence[int], census_ds: Sequence[int], inject: float = 0.0
) -> list[SuiteResult]:
    """The six suites, from one closed form, phase list, ladder, one-norm and level array per d.

    dense_ds and census_ds are nonempty, sorted sequences of odd d >= 3, up
    to lcu.MAX_NUMERATOR_D, where the exact numerators still fit int64; the
    caller keeps d within that bound, and membership in a range is O(1).
    inject, phi_max and each d (costmodel.register_width) are checked
    before any suite runs.  The d of both sequences run in blocks
    (_blocks) laid out by _block_index; each block's arrays are built
    once, and one loop over its d does the per-d work of both sequences.

    Over the d of dense_ds: trotter-schedule, native step schedules
    realize diag(e^(-i t lambda_n^2)) at three times; select-schedule, the
    selection schedule realizes the selection phases, and inject bends one
    angle of a copy that only this check reads, to show that the check
    detects it; prep-schedule, the preparation loads the amplitudes
    sqrt(|beta_r| / Lambda) from |0>.  A vanishing coefficient raises in
    select_diag_phases, before any schedule is built.

    Over the d of census_ds: dft-oracle compares the closed-form
    coefficients with the FFT oracle: values, Hermiticity, one-norm and
    signs.  Per d, as arrays: max |closed - oracle| (bound 1e-10), max
    |beta_(d-r) - conj beta_r| of the closed form (1e-12), both relative to
    phi_max^2, the scale of every coefficient; the relative one-norm error
    (1e-10); and c_r < 0 exactly for 2r > d, one block formula.

    select-census counts the trivial selection rotations: the exact count,
    the float schedule that select-schedule checks (without inject), and
    the closed-form angles agree.  One array of the exact N_j feeds the
    count and the closed-form angles; the float schedule never reads it,
    or the check would be vacuous.  With m = (d - 1) / 2, the angle on
    the pair (j - 1, j) is (pi/d) N_j, N_j = 2dj - j(j+1) - 2d e_j with
    e_j = max(0, j - 1 - m), and the rotation is trivial when 4d divides
    N_j (N_0 = 0 fills the empty slot).  That needs d | j(j+1).
    As j and j + 1 are coprime, each prime power of d divides one of them,
    so by the Chinese remainder theorem j(j+1) = 0 mod d has 2^omega(d)
    roots mod d.  In 1 <= j <= d - 1 that leaves j = d - 1 and
    2^(omega(d)-1) - 1 pairs {j, d - 1 - j}.  Writing j(j+1) = dq (q is
    even, d odd), the rotation is trivial iff j - e_j - q/2 is even.  At
    j = d - 1 this is 1, so that rotation is nontrivial; within a pair
    the two values sum to an odd number (j = m is never a root, as
    4m(m+1) = d^2 - 1), so exactly one member is trivial.
    Hence d - 1 - s(d) = 2^(omega(d)-1) - 1, checked for every d of
    census_ds.  The float schedule must count the same nontrivial
    rotations (|angle| mod 4*pi above TRIVIAL_ANGLE_TOL).  The error is
    the schedule's angle gap to the closed form mod 4*pi, folded by
    reduce_angles, which is exact, so it equals |math.remainder(gap, 4*pi)|.
    The detail names the first d where the float and exact counts differ,
    and lists the offsets that occurred.

    Returns the results of trotter, select, prep, projector-diag
    (suite_projector), dft and census, in print order.

    Raises:
        ValueError: for a non-finite inject, a d that register_width
            rejects, or a phi_max whose smallest exact coefficient at the
            largest d checked, twice the irreducibility floor, is below the
            smallest normal float: there the coefficients lose precision
            and no verdict would hold.
    """
    if not math.isfinite(inject):
        raise ValueError(f"--inject-angle-error must be finite, got {inject}")
    check_phi_max(phi_max)
    dims = sorted({*dense_ds, *census_ds})
    for d in dims:
        register_width(d)
    d = dims[-1]
    if 2.0 * irreducibility_floor(phi_max, d) < sys.float_info.min:
        raise ValueError(
            f"phi_max={phi_max} is too small for d={d}: its smallest coefficient "
            f"is below the smallest normal float {sys.float_info.min:.3g}"
        )
    scale = phi_max * phi_max
    dense_errors, dft_errors, flips, exact, floats, gaps = [], [], [], [], [], []
    # Each block's arrays stay bound until the next block's replace them.
    # Freed all at once, a large d's pages would go back to the system and
    # fault in again at the next d, which costs more than its census.
    for block in _blocks(dims):
        d, n, levels = _block_index(block)
        betas, c_amps = beta_closed_form(phi_max, d, n)
        thetas = select_diag_phases(phi_max, d, n, c_amps)
        angles = fixed_encoding_select_schedule(thetas, block)
        lam_sq = level_array(phi_max, d, n) ** 2
        for i, dim in enumerate(block):
            lo, hi = levels[i], levels[i + 1]
            norm = clock_one_norm(phi_max, dim)
            if dim in dense_ds:
                steps = zip(STEP_TIMES, qudit_trotter_angles(phi_max, dim, n[lo + 1:hi], STEP_TIMES))
                schedule = angles[lo + 1:hi]
                amps = np.sqrt(np.abs(betas[lo + 1:hi]) / norm)
                dense_errors.append((
                    np.max([phase_error(ladder_diagonal(row), -t * lam_sq[lo:hi]) for t, row in steps]),
                    phase_error(ladder_diagonal(np.append(schedule[0] + inject, schedule[1:])), thetas[lo:hi]),
                    np.linalg.norm(fan_state(prep_ry_schedule(amps)) - np.append(0.0, amps)),
                ))
            if dim in census_ds:
                oracle = beta_dft_oracle(lam_sq[lo:hi])
                one_norm = np.add.reduce(np.abs(oracle[1:]))
                b_r = betas[lo + 1:hi]
                dft_errors.append((
                    np.max(np.abs(betas[lo:hi] - oracle)) / scale,
                    # beta_(d-r) against conj(beta_r), r = 1 .. d-1
                    np.max(np.abs(b_r[::-1] - b_r.conj())) / scale,
                    abs(norm - one_norm) / one_norm,
                ))
        census = [i for i, dim in enumerate(block) if dim in census_ds]
        if census:
            starts = levels[:-1]
            numerators = select_numerators(d, n)
            gap = np.abs(reduce_angles(angles - (np.pi / d) * numerators))
            exact.append(select_nontrivial_count(d, numerators, starts)[census])
            floats.append(nontrivial_count(angles, starts)[census])
            gaps.append(np.maximum.reduceat(gap, starts)[census])
            # c_n < 0 exactly for n >= (d + 1) / 2
            flips.append(np.logical_or.reduceat((c_amps < 0) != (2 * n > d), starts)[census])
    dense_errors, dft_errors = np.array(dense_errors), np.array(dft_errors)
    exact, floats, gaps, flips = map(np.concatenate, (exact, floats, gaps, flips))
    signs_ok = not flips.any()
    dft_ok = signs_ok and bool(np.all(dft_errors.max(axis=0) <= (1e-10, 1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    offsets = (np.subtract(census_ds, 1) - exact).tolist()
    expected = [2 ** (_distinct_prime_count(d) - 1) - 1 for d in census_ds]
    mismatch = np.flatnonzero(floats != exact)[:1]
    census_ok = not mismatch.size and offsets == expected
    notes = [f"count mismatch at d={census_ds[j]} (float {floats[j]}, exact {exact[j]})  " for j in mismatch]
    offsets_seen = "offsets d-1-s(d): {" + ", ".join(map(str, sorted(set(offsets)))) + "}"
    return [
        _result("trotter-schedule", dense_ds, dense_errors[:, 0], 1e-10),
        _result("select-schedule", dense_ds, dense_errors[:, 1], 1e-10),
        _result("prep-schedule", dense_ds, dense_errors[:, 2], 1e-10),
        suite_projector(phi_max),
        _result("dft-oracle", census_ds, dft_errors.max(axis=1), 1e-10, dft_ok, detail),
        _result("select-census", census_ds, gaps, 1e-9, census_ok, "".join(notes) + offsets_seen),
    ]
