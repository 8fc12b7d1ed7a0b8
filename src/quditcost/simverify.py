"""The verify side: the constructions that `verify` checks, their oracles, and the suites.

The constructions are the clock-power expansion of phi^2, the native
Trotter ladder, and the LCU selection and preparation schedules.
costmodel prices them without numpy, and only `verify` loads this module.

Expansion.  Any diagonal operator on d levels expands uniquely over the
diagonal unitaries diag(omega^(r*j)) with omega = exp(2*pi*i/d).  For the
squared field on the symmetric grid the coefficients have the closed form

    beta_0 = phi_max^2 * (d + 1) / (3 * (d - 1))
    beta_r = (2 * phi_max^2 / (d - 1)^2) * e^(i pi r/d) * cos(pi r/d) / sin^2(pi r/d)

for r = 1 .. d-1.  Each nonzero-r coefficient factors as c_r * e^(i pi r/d)
with real c_r, positive for r below the midpoint (d + 1) / 2 and negative
from the midpoint upward: c_(d-r) = -c_r and beta_(d-r) = conj(beta_r),
which beta_closed_form keeps bit for bit, as it folds every trigonometric
argument to pi * min(r, d - r) / d <= pi/2.  The one-norm
leaves out the identity term beta_0, which only shifts the evolution by a
global phase, and needs no coefficient list: with x_r = pi r/d,

    sum_{r>=1} |beta_r| = phi_max^2 * 2 / (d - 1)^2 * sum_{r=1}^{d-1} |cos x_r| / sin^2 x_r,

which costmodel.clock_one_norm evaluates in O(1) without numpy.

Angles.  R_z(theta) = exp(-i theta Z / 2), so theta = 2 * coefficient * t,
and two-level rotations are 4*pi periodic (ANGLE_PERIOD).  The convention
is validated against the simulation oracles below rather than by
convention agreement.  A schedule is an array of angles whose level pairs
its builder fixes: a Z ladder holds Z rotations on adjacent pairs, the
preparation Y rotations on the pairs (0, r).  No schedule carries a global
phase: it is no rotation, and every check compares diagonals up to one.

Routes.  Qubit route: on a sign-magnitude register (signed_labels) the
squared operator is a weighted sum of bit-pair projectors
(qubit_projector_diag_oracle), and a binary-register Trotter step needs
n_b * (n_b + 1) / 2 synthesized Z / ZZ rotations.  Native d-level route:
the step's diagonal factors into d - 1 rotations on adjacent level pairs,
with angles twice the centered partial sums of the squared eigenvalues.
On the symmetric grid those sums are delta_phi^2 / 3 times an exact
integer cubic in the pair index, so the angles come from that closed form,
not from a running float sum (qudit_trotter_angles).  In the LCU the
entangling part of the selection oracle is free, leaving a diagonal phase
operator that splits into a clock-phase ladder on the index register and a
comparator-driven sign flip, which marks r >= (d + 1) / 2, the coefficient
sign rule the dft-oracle suite checks; the preparation oracle loads the
coefficient amplitudes with d - 1 embedded two-level Y rotations.
tests/oracles.py builds the binary step, the clock ladder and the direct
partial sums, which certify the counts and the cubic.

Level layout.  Every array of one d is indexed by level, n = 0 .. d-1,
and the levels of several d lie back to back, so one numpy call covers a
block of d.  The builders are elementwise formulas over broadcastable d
and n: d is one value, or the d of each level.  A pair's angle (and its
N_n) sits at the pair's upper level, the rotation on (n - 1, n) at level
n; level 0 holds an empty slot, 0, which is trivial and stops a ladder at
the edge of its run.  The preparation's d - 1 angles on the pairs (0, r)
are built for one d at a time.

Diagonals.  A sequence of phases p_n stands for diag(e^(i p_n)), so
composition is additive and equality up to a global phase reduces to
comparing phase differences anchored at level 0 (phase_error).  The
diagonal of a Z ladder (ladder_diagonal) and the state a preparation
reaches from |0> (fan_state) are O(dim) numpy; no dim x dim matrix is formed.

Blocks.  run_suites takes consecutive d in blocks of at most BLOCK_LEVELS
levels (a larger d alone), in the layout above.  The builders and the
checks are one numpy call per block: phases are anchored at each run's
level 0, and the maxima, counts and sign violations per d are reduceat
calls, independent of order.  A loop over the d of a block keeps what one
d fixes: the one-norm; the step angles, whose spacing is squared as a
Python float, which numpy's square does not always match; the preparation
check and the oracle's one-norm, ordered sums that np.add.reduceat would
round differently (fixed_encoding_select_schedule takes the selection
schedule's mean and running sum per d for that reason); and the FFT, one
length per call, written into the block.  The census gap comes from the
exact numerators mod 4d, taken once in int64, which also give the count.
So every error equals, bit for bit, the one that building each d on its
own gives (tests/oracles.py keeps that loop), and numpy's per-call
overhead, which set the cost of that loop, is paid per block.  No builder
checks what a suite checks: the builders leave every fault to the suites,
and a NaN error is its suite's worst and fails it.
"""

import math
import operator
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .costmodel import check_phi_max, clock_one_norm, register_width

ANGLE_PERIOD = 4.0 * np.pi

# A rotation is the identity when its angle lies in 4*pi*Z within this tolerance.
TRIVIAL_ANGLE_TOL = 1e-10

# Most levels, the sum of d, that one block of dimensions of run_suites holds.
BLOCK_LEVELS = 4096

# The times of the native step schedules that trotter-schedule checks.
STEP_TIMES = (0.1, 1.0, 3.7)

# Largest register accepted by the dense projector-diagonal enumeration.
MAX_ORACLE_WIDTH = 20

# Largest d whose selection numerators, below 4 d^2, are exact in int64.
MAX_NUMERATOR_D = math.isqrt((2**63 - 1) // 4)


def level_array(phi_max: float, d, n) -> np.ndarray:
    """The field eigenvalues -phi_max + n * delta_phi at the levels n.

    delta_phi = 2 * phi_max / (d - 1).  numpy forms each eigenvalue by the
    same IEEE operations as that scalar expression, so they equal it bit for
    bit; the tests keep a tuple-of-floats reference in tests/oracles.py.
    """
    return -phi_max + n * (2.0 * phi_max / (d - 1))


def beta_closed_form(phi_max: float, d, n) -> tuple[np.ndarray, np.ndarray]:
    """Expansion coefficients from the closed-form trigonometric expressions.

    Returns (betas, c_amps) at the levels n: the complex beta_n and the real
    amplitudes c_n with beta_n = c_n * e^(i pi n/d), c_n first, so c_amps
    needs no round trip through the complex phase; at n = 0 both are beta_0.
    Cosine and sine are taken at pi * min(n, d - n) / d <= pi/2, where their
    rounding stays relative, and the cosine is negated where 2n > d: n and
    d - n differ by exact negations alone, and c_n < 0 exactly where 2n > d.
    """
    p2 = phi_max**2
    nonzero = n > 0
    c_amps = np.full(np.shape(n), p2 * (d + 1) / (3.0 * (d - 1)))
    x = np.pi * np.minimum(n, d - n) / d
    cos, sin = np.cos(x), np.sin(x)
    np.negative(cos, out=cos, where=2 * n > d)
    np.divide(2.0 * p2 / (d - 1) ** 2 * cos, sin**2, out=c_amps, where=nonzero)
    betas = c_amps.astype(complex)
    np.multiply(c_amps, cos, out=betas.real, where=nonzero)
    np.multiply(c_amps, sin, out=betas.imag, where=nonzero)
    return betas, c_amps


def beta_dft_oracle(lam_sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Expansion coefficients by a numerical Fourier transform of the squared levels.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as the FFT of
    the d squared levels lam_sq of one d, O(d log d), into out if given
    (d's slice of a block; np.fft takes out from numpy 2.0), divided by d
    in place.  Verification oracle only: it shares no formula with the
    closed form.  np.fft is reached here, at call time, because numpy
    loads it lazily and the report commands never need it.  The tests
    certify the FFT against the direct O(d^2) sum.
    """
    return np.divide(np.fft.fft(lam_sq, out=out), len(lam_sq), out=out)


def irreducibility_floor(phi_max: float, d):
    """Amplitude at or below which a coefficient counts as vanishing, elementwise over d.

    Half the smallest exact |c_r|, which sits at r = (d - 1) / 2:
    2 phi_max^2 / (d - 1)^2 * sin(y) / cos^2(y) with y = pi / (2d), about
    pi phi_max^2 / d^3.  The computed c_r near that r carry a relative
    rounding error of order d * 1e-16, far below one half, so correct
    coefficients pass at every d, while a zero field (floor 0) fails.
    """
    y = np.pi / (2 * d)
    return phi_max**2 / (d - 1) ** 2 * np.sin(y) / np.cos(y) ** 2


def select_diag_phases(floor, d, n, c_amps: np.ndarray) -> np.ndarray:
    """Phases of the selection-oracle diagonal at the levels n.

    Level 0 carries phase 0; level n carries pi*n/d, shifted by pi wherever
    the real amplitude c_n (beta_closed_form) is negative, so that
    e^(i theta_n) equals beta_n / |beta_n|.  As pi*n/d < pi for n < d, every
    value lies in [0, 2*pi) without a reduction.  floor is the
    irreducibility floor of each level's d, which depends on d alone.

    Raises:
        ValueError: if any c_n with n > 0 sits at or below its floor; the
            first such n is named, with its d.
    """
    vanishing = np.flatnonzero((np.abs(c_amps) <= floor) & (n > 0))
    if vanishing.size:
        j = vanishing[0]
        raise ValueError(
            f"coefficient c_{n[j]} vanishes at d={np.broadcast_to(d, np.shape(n))[j]}; "
            "the expansion is not irreducible"
        )
    return np.pi * n / d + np.where(c_amps < 0, np.pi, 0.0)


def reduce_angles(angles: np.ndarray) -> np.ndarray:
    """Canonical mod-4*pi representatives in (-2*pi, 2*pi].

    fmod, odd and exact, is np.remainder of |angle| signed, whose cost,
    unlike libm's fmod, does not grow with the quotient.  Each shift by 4*pi
    past +-2*pi is exact (Sterbenz), so every value equals
    math.remainder(angle, 4*pi) with -2*pi moved to 2*pi, bit for bit.
    """
    r = np.copysign(np.remainder(np.abs(angles), ANGLE_PERIOD), angles)
    half = 0.5 * ANGLE_PERIOD
    return np.where(r > half, r - ANGLE_PERIOD, np.where(r <= -half, r + ANGLE_PERIOD, r))


def qudit_trotter_angles(phi_max: float, d, r, times) -> list[np.ndarray]:
    """Adjacent-pair Z ladder angles for one native d-level step at each of the times.

    Returns one row per time, the angles at the levels r (r = 1 .. d-1 for
    one d), on the pairs (k, k+1), k = r - 1.  With
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
        ValueError: if an unreduced angle is not finite, or so large that
            the float spacing there, math.ulp, reaches the 4*pi period and
            its reduction carries no information; either names phi_max and
            the first such t.  max |2 N_k| >= m(m + 1), so the angles
            overflow no later than the global phase would.
    """
    third = (2.0 * phi_max / (d - 1)) ** 2 / 3.0
    k = r - 1.0
    # three exact integer factors; their product is even
    numerator = (k + 1.0) * (2.0 * k - (d - 2)) * (k - (d - 1)) / 2.0
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            angles = (2.0 * t * third) * numerator
            peak = float(np.abs(angles).max())
            if not math.isfinite(peak):
                raise ValueError(
                    f"phi_max={phi_max} with t={t} is too large: "
                    "the step angles 2 t sum(lambda^2 - mu) overflow"
                )
            if math.ulp(peak) >= ANGLE_PERIOD:
                raise ValueError(
                    f"phi_max={phi_max} with t={t} is too large: the step angles "
                    f"2 t sum(lambda^2 - mu) reach {peak:.3g}, where the float spacing "
                    "is at least their 4 pi period"
                )
            rows.append(reduce_angles(angles))
    return rows


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

    thetas holds the per-level phases of each d in sizes, and the result
    has the same levels.  Built by the direct prefix-sum construction: with
    gamma the mean of one d's phases, the angle on pair (r - 1, r) is
    -2 * sum_{n<r} (theta_n - gamma), reduced to (-2*pi, 2*pi], up to the
    global phase gamma.  The mean and the running sum are taken per d,
    because their float bits depend on the summation order; the rest is
    elementwise.  The closed form (pi/d) * N_r (select_numerators) must
    agree mod 4*pi, and is never read here.
    """
    sums = np.zeros(len(thetas))
    lo = 0
    for d in sizes:
        phases = thetas[lo:lo + d]
        np.cumsum(phases[:-1] - np.add.reduce(phases) / d, out=sums[lo + 1:lo + d])
        lo += d
    return reduce_angles(-2.0 * sums)


def select_numerators(d, r) -> np.ndarray:
    """Integers N_r of the selection-schedule angles (pi/d) * N_r at the levels r.

    With m = (d - 1) / 2: N_r = r (4m - r + 1), minus 2d (r - 1 - m) once
    r - 1 exceeds m, and N_0 = 0 for the empty slot.  The values stay below
    4 d^2, exact in int64 up to d = MAX_NUMERATOR_D.
    """
    m = (d - 1) // 2
    return r * (4 * m - r + 1) - 2 * d * np.maximum(r - 1 - m, 0)


def select_nontrivial_count(residues: np.ndarray, starts) -> np.ndarray:
    """Number of nontrivial selection angles (pi/d) * N_r in each run of residues.

    residues holds N_r mod 4d (select_numerators), in runs that begin at
    the indices starts, one per d.  A rotation is trivial when its angle
    is 0 mod 4*pi, that is when its residue is 0 (N_0 = 0 is), which is
    exact integer arithmetic over all levels at once; dense states are
    never needed here, which keeps census scans over large d cheap.
    """
    return np.add.reduceat(residues != 0, starts)


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


def ladder_diagonal(angles: np.ndarray) -> np.ndarray:
    """Per-level phases of the diagonals that Z ladders' angles realize, along the last axis.

    angles[k], the rotation on the pair (k - 1, k), shifts level k by
    +angles[k]/2 and level k - 1 by -angles[k]/2.  Each d's empty level-0
    slot stops its ladder, so one call covers the ladders of several d.
    """
    half = 0.5 * np.asarray(angles)
    phases = half.copy()
    phases[..., :-1] -= half[..., 1:]
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


def phase_error(a: np.ndarray, b: np.ndarray, levels: Sequence[int]) -> np.ndarray:
    """Distance of two diagonals modulo one overall phase, per run of levels.

    The runs are the levels levels[i]:levels[i + 1] along the last axis.
    With delta_n the phase difference at level n minus that at its run's
    level 0, returns max_n 2 |sin(delta_n / 2)| per run, which equals
    |e^(i delta_n) - 1| in real arithmetic; NaN if any delta_n is NaN.
    """
    diff = np.subtract(a, b)
    starts = levels[:-1]
    delta = diff - np.repeat(diff[..., starts], np.diff(levels), axis=-1)
    return np.maximum.reduceat(np.abs(2.0 * np.sin(0.5 * delta)), starts, axis=-1)


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
    """Runs of consecutive ds whose levels, the sum of their d, stay within BLOCK_LEVELS; a larger d stands alone."""
    blocks, levels = [[]], 0
    for d in ds:
        if blocks[-1] and levels + d > BLOCK_LEVELS:
            blocks.append([])
            levels = 0
        blocks[-1].append(d)
        levels += d
    return blocks


def _spread(values, ds: list[int]):
    """values, one per d of ds, over the levels of each d; one d keeps its value, so factors of d stay one float."""
    return values[0] if len(ds) == 1 else np.repeat(values, ds)


def _block_index(ds: list[int]) -> tuple:
    """(d, n, levels) of the level layout of ds; the levels of ds[i] are levels[i]:levels[i + 1]."""
    levels = np.cumsum([0, *ds])
    return _spread(ds, ds), np.arange(levels[-1]) - _spread(levels[:-1], ds), levels


def run_suites(
    phi_max: float, dense_ds: Sequence[int], census_ds: Sequence[int], inject: float = 0.0
) -> list[SuiteResult]:
    """The six suites, from one closed form, phase list, ladder, one-norm and level array per d.

    dense_ds and census_ds are nonempty, strictly increasing sequences of
    odd d >= 3, up to MAX_NUMERATOR_D, where the exact numerators still fit
    int64; membership in a range is O(1).  inject, phi_max, both
    sequences and each d (costmodel.register_width, then that bound) are
    checked before any suite runs.  The d of both sequences run in blocks (see
    Blocks above).

    Over the d of dense_ds: trotter-schedule, native step schedules
    realize diag(e^(-i t lambda_n^2)) at three times; select-schedule, the
    selection schedule realizes the selection phases, and inject bends one
    angle of a copy that only this check reads, to show that the check
    detects it; prep-schedule, the preparation loads the amplitudes
    sqrt(|beta_r| / Lambda) from |0>.  A vanishing coefficient raises in
    select_diag_phases, before any schedule is built.

    Over the d of census_ds: dft-oracle compares the closed-form
    coefficients with the FFT oracle: values, one-norm and signs.  Per d,
    each a block formula: max |closed - oracle| relative to phi_max^2, the
    scale of every coefficient (bound 1e-12); the relative one-norm error
    (1e-10); and c_r < 0 exactly for 2r > d, which the selection phases
    read.  Through the FFT of the real levels, the value bound also holds
    the closed form's Hermiticity within about 2e-12.

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
    rotations (|angle| mod 4*pi above TRIVIAL_ANGLE_TOL).  The error is the
    gap to the closed form (pi/d) (N_j mod 4d) in [0, 4*pi), in (-6*pi, 2*pi]:
    one exact shift by 4*pi (Sterbenz) folds it into (-2*pi, 2*pi].
    The detail names the first d where the float and exact counts differ,
    and lists the offsets that occurred.

    Returns the results of trotter, select, prep, projector-diag
    (suite_projector), dft and census, in print order.

    Raises:
        ValueError: for a non-finite inject, a dense_ds or census_ds that
            is empty or not strictly increasing, a d that register_width
            rejects or that is above MAX_NUMERATOR_D, or a phi_max that
            puts a coefficient at the largest d checked outside the normal
            floats, where no verdict would hold: the smallest exact one,
            twice the irreducibility floor, below the smallest normal
            float, or beta_0's numerator phi_max^2 (d + 1) above the
            largest; and, from the pass, for step angles that
            qudit_trotter_angles rejects.
    """
    if not math.isfinite(inject):
        raise ValueError(f"--inject-angle-error must be finite, got {inject}")
    check_phi_max(phi_max)
    for name, ds in (("dense_ds", dense_ds), ("census_ds", census_ds)):
        # each suite's worst_d, cases and census offsets read ds in order, one entry per d
        if not len(ds) or not all(map(operator.lt, ds, ds[1:])):
            raise ValueError(f"{name} must be a nonempty, strictly increasing sequence of d")
    dims = sorted({*dense_ds, *census_ds})
    for d in dims:
        register_width(d)
    d = dims[-1]
    if d > MAX_NUMERATOR_D:
        raise ValueError(f"d={d} is too large: the selection numerators 4 d^2 overflow int64 above d = {MAX_NUMERATOR_D}")
    if 2.0 * irreducibility_floor(phi_max, d) < sys.float_info.min:
        raise ValueError(
            f"phi_max={phi_max} is too small for d={d}: its smallest coefficient "
            f"is below the smallest normal float {sys.float_info.min:.3g}"
        )
    if math.isinf(phi_max**2 * (d + 1)):
        raise ValueError(f"phi_max={phi_max} is too large for d={d}: beta_0's numerator phi_max^2 (d + 1) overflows")
    scale = phi_max * phi_max
    dense_errors, preps, census_errors, norms, counts, flips = [], [], [], [], [], []
    # Each block's arrays stay bound until the next block's replace them.
    # Freed all at once, a large d's pages would go back to the system and
    # fault in again at the next d, which costs more than its census.
    for block in _blocks(dims):
        d, n, levels = _block_index(block)
        starts = levels[:-1]
        betas, c_amps = beta_closed_form(phi_max, d, n)
        floor = _spread(irreducibility_floor(phi_max, np.array(block)), block)
        thetas = select_diag_phases(floor, d, n, c_amps)
        angles = fixed_encoding_select_schedule(thetas, block)
        lam_sq = level_array(phi_max, d, n) ** 2
        dense = [i for i, dim in enumerate(block) if dim in dense_ds]
        census = [i for i, dim in enumerate(block) if dim in census_ds]
        steps = np.zeros((len(STEP_TIMES), len(n))) if dense else None
        oracle = np.zeros(len(n), complex) if census else None
        for i, dim in enumerate(block):
            lo, hi = levels[i], levels[i + 1]
            norm = clock_one_norm(phi_max, dim)
            if dim in dense_ds:
                steps[:, lo + 1:hi] = qudit_trotter_angles(phi_max, dim, n[lo + 1:hi], STEP_TIMES)
                amps = np.sqrt(np.abs(betas[lo + 1:hi]) / norm)
                preps.append(np.linalg.norm(fan_state(prep_ry_schedule(amps)) - np.append(0.0, amps)))
            if dim in census_ds:
                beta_dft_oracle(lam_sq[lo:hi], out=oracle[lo:hi])
                norms.append((norm, np.add.reduce(np.abs(oracle[lo + 1:hi]))))
        if dense:
            bent = np.where(n == 1, angles + inject, angles)
            dense_errors.append(np.stack([
                phase_error(ladder_diagonal(steps), -np.outer(STEP_TIMES, lam_sq), levels).max(axis=0),
                phase_error(ladder_diagonal(bent), thetas, levels),
            ])[:, dense])
        if census:
            residues = select_numerators(d, n) % (4 * d)
            gap = angles - (np.pi / d) * residues
            gap = np.abs(np.where(gap <= -0.5 * ANGLE_PERIOD, gap + ANGLE_PERIOD, gap))
            census_errors.append(np.stack([
                np.maximum.reduceat(np.abs(betas - oracle), starts) / scale,
                np.maximum.reduceat(gap, starts),
            ])[:, census])
            counts.append(np.stack([
                select_nontrivial_count(residues, starts), nontrivial_count(angles, starts),
            ])[:, census])
            # c_n < 0 exactly for n >= (d + 1) / 2
            flips.append(np.logical_or.reduceat((c_amps < 0) != (2 * n > d), starts)[census])
    trotter, select = np.concatenate(dense_errors, axis=1)
    value, gaps = np.concatenate(census_errors, axis=1)
    norm, one_norm = np.transpose(norms)
    dft_errors = np.stack([value, np.abs(norm - one_norm) / one_norm])
    exact, floats = np.concatenate(counts, axis=1)
    signs_ok = not np.concatenate(flips).any()
    dft_ok = signs_ok and bool(np.all(dft_errors.max(axis=1) <= (1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    offsets = (np.subtract(census_ds, 1) - exact).tolist()
    expected = [2 ** (_distinct_prime_count(d) - 1) - 1 for d in census_ds]
    mismatch = np.flatnonzero(floats != exact)[:1]
    census_ok = not mismatch.size and offsets == expected
    notes = [f"count mismatch at d={census_ds[j]} (float {floats[j]}, exact {exact[j]})  " for j in mismatch]
    offsets_seen = "offsets d-1-s(d): {" + ", ".join(map(str, sorted(set(offsets)))) + "}"
    return [
        _result("trotter-schedule", dense_ds, trotter, 1e-10),
        _result("select-schedule", dense_ds, select, 1e-10),
        _result("prep-schedule", dense_ds, preps, 1e-10),
        suite_projector(phi_max),
        _result("dft-oracle", census_ds, dft_errors.max(axis=0), 1e-10, dft_ok, detail),
        _result("select-census", census_ds, gaps, 1e-9, census_ok, "".join(notes) + offsets_seen),
    ]
