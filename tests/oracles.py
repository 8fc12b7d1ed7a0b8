"""Paper constructions that certify the counts the tool prints.

No command builds these circuits; the tests build them and check them
against dense or direct evaluation, which certifies the rotation counts
that the library uses as closed forms:

* a grid record (`FieldGrid`, built by `make_grid`) that carries the
  spacing and register width of (phi_max, d) for the references below;
  the library passes the two numbers alone;
* the binary-register product-formula step, whose Z / ZZ term count is
  the n_b (n_b + 1) / 2 of `pf_thresholds`;
* the grid levels as a tuple of Python floats (`levels`), and their mean
  square by direct summation (`squared_mean`), the references for
  `pauli.level_array` and for the integer closed form of
  `trotter.qudit_trotter_angles`;
* the centered partial sums behind the native step angles, nonzero for
  every admissible k, and the global phase -t mu that the step's ladder
  leaves out (`ladder_global_phase`);
* the clock-phase ladder of the d-level selection oracle, the n_b
  rotations inside the hybrid per-call count;
* the binary-register preparation of the hybrid call, a Grover-Rudolph
  tree of uniformly controlled Y rotations (quant-ph/0208112), the
  2^n_b - 1 rotations per direction inside the same count;
* the direct O(d^2) Fourier sum of the squared grid levels, which
  certifies the FFT coefficient oracle `pauli.beta_dft_oracle`;
* trial division, which certifies the Miller-Rabin test `cli.is_prime`
  that `--primes` scans use;
* the bit-pair projector sum over every (r, s) pair, one register string
  at a time, which certifies the quadratic form of
  `lcu.qubit_projector_diag_oracle`;
* the per-d cost chain that the report passes of `costmodel` replaced,
  kept as it was: a grid, the query count, the qubit precision parameter
  and T count by their Toffoli breakdown, the qubit and hybrid chains, and
  one row function per report (`pf_row`, `scan_row`, `lcu_row`).  The
  passes print the same rows bit for bit and raise the same errors.

Angle convention as in `quditcost.trotter`: R_z(theta) = exp(-i theta Z / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from quditcost.costmodel import (
    DEFAULT_MODEL,
    MIN_CALL_BUDGET,
    LcuRow,
    PfRow,
    ResourceReport,
    SynthesisModel,
    break_even,
    check_finite,
    check_phi_max,
    clock_one_norm,
    register_width,
    rz_cost,
)
from quditcost.pauli import level_array


class FieldGrid(NamedTuple):
    """Symmetric amplitude truncation with d = 2M + 1 levels.

    Attributes:
        phi_max: largest field amplitude on the grid (grid endpoint).
        d: local dimension, i.e. number of grid points (odd).
        delta_phi: grid spacing, 2 * phi_max / (d - 1).
        n_b: qubit register width covering d levels, ceil(log2(d)).
    """

    phi_max: float
    d: int
    delta_phi: float
    n_b: int


def make_grid(phi_max: float, d: int) -> FieldGrid:
    """The grid of (phi_max, d), checked by check_phi_max and then register_width."""
    check_phi_max(phi_max)
    n_b = register_width(d)
    return FieldGrid(float(phi_max), d, 2.0 * phi_max / (d - 1), n_b)


def levels(grid: FieldGrid) -> tuple[float, ...]:
    """The d field eigenvalues of pauli.level_array, as Python floats."""
    return tuple(level_array(grid.phi_max, grid.d).tolist())


def squared_mean(grid: FieldGrid) -> float:
    """Mean of the squared eigenvalues, (1/d) * sum_n lambda_n^2, by direct summation.

    For the symmetric grid this equals phi_max^2 * (d + 1) / (3 * (d - 1)).
    """
    return sum(lam * lam for lam in levels(grid)) / grid.d


@dataclass(frozen=True)
class QubitTrotterExpansion:
    """Commuting Z / ZZ rotation terms of one binary-register step.

    p_shift and q_scale are the affine coefficients of the bit expansion
    phi = p_shift + q_scale * sum_m 2^m Z_m; identity_coefficient collects
    the constant part of the squared operator (it contributes only a
    global phase).  Angles already include the evolution time.
    """

    n_b: int
    t: float
    p_shift: float
    q_scale: float
    identity_coefficient: float
    linear_terms: tuple[tuple[int, float], ...]
    quad_terms: tuple[tuple[int, int, float], ...]

    @property
    def rz_count(self) -> int:
        return len(self.linear_terms) + len(self.quad_terms)

    def diagonal_phase(self, index: int) -> float:
        """Phase exponent of the step on |index>; the eigenvalue is exp(i * phase)."""
        z = [1 - 2 * ((index >> m) & 1) for m in range(self.n_b)]
        phase = -self.t * self.identity_coefficient
        for m, angle in self.linear_terms:
            phase -= 0.5 * angle * z[m]
        for m, mp, angle in self.quad_terms:
            phase -= 0.5 * angle * z[m] * z[mp]
        return phase


def qubit_trotter_terms(grid: FieldGrid, t: float) -> QubitTrotterExpansion:
    """Z and ZZ rotation terms implementing one binary-register step.

    The linear term on qubit m carries angle 2t * (2 P Q) * 2^m; the cross
    term on the pair (m, m') carries angle 2t * Q^2 * 2^(m + m') * 2, the
    trailing factor coming from the symmetric double sum over m != m'.
    """
    n_b = grid.n_b
    p = -grid.phi_max + 0.5 * grid.delta_phi * (2**n_b - 1)
    q = -0.5 * grid.delta_phi
    linear = tuple((m, 2.0 * t * (2.0 * p * q) * 2**m) for m in range(n_b))
    quad = tuple(
        (m, mp, 2.0 * t * q * q * 2 ** (m + mp) * 2.0)
        for m in range(n_b)
        for mp in range(m + 1, n_b)
    )
    identity = p * p + q * q * sum(4**m for m in range(n_b))
    return QubitTrotterExpansion(
        n_b=n_b,
        t=t,
        p_shift=p,
        q_scale=q,
        identity_coefficient=identity,
        linear_terms=linear,
        quad_terms=quad,
    )


def centered_partial_sum(grid: FieldGrid, k: int) -> float:
    """Closed form of sum_{n<=k} (lambda_n^2 - mu) on the symmetric grid.

    Equals phi_max^2 * (4 (k+1) / (3 (d-1)^2)) * (k - (d-2)/2) * (k - (d-1)).
    Because (d - 2) / 2 is a half-integer for odd d, the value is nonzero
    for every admissible k, which is what keeps all schedule angles
    nontrivial at generic t.
    """
    d = grid.d
    if not 0 <= k <= d - 2:
        raise ValueError(f"partial-sum index k={k} outside [0, {d - 2}]")
    return (
        grid.phi_max**2
        * (4.0 * (k + 1) / (3.0 * (d - 1) ** 2))
        * (k - (d - 2) / 2.0)
        * (k - (d - 1))
    )


def ladder_global_phase(grid: FieldGrid, t: float) -> float:
    """Global phase -t * mu by which the native step ladder misses diag(e^(-i t lambda_n^2)).

    The closed form -t (delta_phi^2 / 3) m (m + 1), m = (d - 1) / 2; its
    test compares it with the direct mean squared_mean.
    """
    m = (grid.d - 1) // 2
    return -t * (grid.delta_phi**2 / 3.0) * (m * (m + 1))


def dclock_angles(d: int) -> list[tuple[int, float]]:
    """Single-qubit phase coefficients realizing diag(e^(i pi r / d)) up to global phase.

    Each pair (m, a_m) encodes the factor exp(i * a_m * Z_m) on index qubit
    m, with a_m = -pi * 2^m / (2 d).
    """
    n_b = register_width(d)
    return [(m, -math.pi * 2**m / (2.0 * d)) for m in range(n_b)]


def dclock_realized_phases(d: int) -> list[float]:
    """Phase exponent accumulated by the clock ladder on each index state.

    Relative to index 0 the exponent on |r> is pi * r / d for every
    r in [0, 2^n_b); the common offset is the discarded global phase.
    """
    angles = dclock_angles(d)
    out = []
    for r in range(2 ** len(angles)):
        out.append(sum(a * (1 - 2 * ((r >> m) & 1)) for m, a in angles))
    return out


def binary_prep_angles(amps: np.ndarray) -> list[np.ndarray]:
    """Grover-Rudolph tree of uniformly controlled Y angles that loads amps from |0...0>.

    amps holds 2^n nonnegative amplitudes of unit norm, index r in binary,
    qubit 0 its most significant bit.  Level k = 0 .. n - 1 holds 2^k
    angles, one R_y on qubit k per value j of qubits 0 .. k - 1: it splits
    the squared mass of the indices with prefix j between the two halves,
    theta = 2 atan2(sqrt(upper), sqrt(lower)), and a block without mass
    takes theta = 0.  2^n - 1 angles in all.
    """
    mass = np.square(amps)
    levels = []
    for k in range(len(amps).bit_length() - 1):
        halves = mass.reshape(2 ** (k + 1), -1).sum(axis=1)
        levels.append(2.0 * np.arctan2(np.sqrt(halves[1::2]), np.sqrt(halves[0::2])))
    return levels


def binary_prep_state(levels: list[np.ndarray]) -> np.ndarray:
    """State that the tree's levels reach from |0...0>, one uniformly controlled R_y at a time.

    The R_y(theta) = exp(-i theta Y / 2) of level k acts on qubit k of every
    block whose qubits 0 .. k - 1 read j, with the angle levels[k][j].
    """
    state = np.zeros(2 ** len(levels))
    state[0] = 1.0
    for k, angles in enumerate(levels):
        blocks = state.reshape(2**k, 2, -1)
        cos, sin = np.cos(angles / 2.0)[:, None], np.sin(angles / 2.0)[:, None]
        lower, upper = blocks[:, 0], blocks[:, 1]
        state = np.stack([cos * lower - sin * upper, sin * lower + cos * upper], axis=1).ravel()
    return state


def direct_dft_coefficients(grid: FieldGrid) -> np.ndarray:
    """beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as an explicit matrix-vector sum.

    O(d^2) time and memory.  The exponent r n is reduced mod d in integers
    first, so every kernel entry is e^(-2 pi i j/d) with 0 <= j < d.
    """
    d = grid.d
    indices = np.arange(d)
    kernel = np.exp(-2j * np.pi * (np.outer(indices, indices) % d) / d)
    return kernel @ (level_array(grid.phi_max, d) ** 2) / d


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division with every odd factor up to sqrt(n); O(sqrt(n))."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def projector_pair_sum(grid: FieldGrid) -> list[float]:
    """delta_phi^2 * sum_{r,s} 2^(r+s) * l_r * l_s per register string, pair by pair."""
    n_b = grid.n_b
    dphi2 = grid.delta_phi**2
    values = []
    for v in range(2**n_b):
        bits = [(v >> r) & 1 for r in range(n_b - 1)]
        acc = 0
        for r in range(n_b - 1):
            for s in range(n_b - 1):
                acc += (1 << (r + s)) * bits[r] * bits[s]
        values.append(dphi2 * acc)
    return values


# ------------------------------------------------- the per-d cost chain

# Fault-tolerant conversion convention: one Toffoli costs four T gates.
TOFFOLI_T_COST = 4


def pf_row(d: int, eps: float, model: SynthesisModel = DEFAULT_MODEL) -> PfRow:
    """Product-formula break-even prefactors at step accuracy eps.

    One step of each route is one query: the d - 1 rotation native step
    against the n_b (n_b + 1) / 2 rotation binary-register step, both
    under uniform per-rotation error allocation.  favorable is
    a_max_pf > a_rz_pf.
    """
    n_b = register_width(d)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"target accuracy must lie in (0, 1), got {eps}")
    if eps < MIN_CALL_BUDGET:
        raise ValueError(f"target accuracy eps={eps} is below {MIN_CALL_BUDGET:g}")
    l_qb = n_b * (n_b + 1) // 2
    qubit_cost = l_qb * rz_cost(eps, l_qb, d, model)
    a_max, a_rz = break_even(qubit_cost, 1, d - 1, eps, d, None, eps, model)
    return PfRow(d, a_max, a_rz, a_max > a_rz)


def query_count(alpha: float, t: float, eps_sim: float) -> float:
    """Block-encoding queries needed: alpha * t + log2(1 / eps_sim).

    Deliberately a real number.  Q must exceed eps_sim, so that the
    per-call budget eps_sim / Q of both cost chains lies below 1, and the
    budget must not fall below MIN_CALL_BUDGET.
    """
    if alpha < 0:
        raise ValueError(f"normalization must be nonnegative, got {alpha}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time t must be finite and nonnegative, got {t}")
    if not 0.0 < eps_sim < 1.0:
        raise ValueError(f"simulation accuracy eps_sim must lie in (0, 1), got {eps_sim}")
    q = alpha * t + math.log2(1.0 / eps_sim)
    if q <= eps_sim:
        raise ValueError(
            f"eps_sim={eps_sim} is too large: the per-call budget eps_sim/Q "
            f"with Q={q:.6g} queries is not below 1"
        )
    if eps_sim / q < MIN_CALL_BUDGET:
        raise ValueError(
            f"per-call budget eps_sim/Q below {MIN_CALL_BUDGET:g}: evolution time "
            f"t={t} and eps_sim={eps_sim} give Q={q:.6g} queries"
        )
    return q


def qubit_normalization(grid: FieldGrid) -> float:
    """Block-encoding normalization of the qubit route, delta_phi^2 * (2^(n_b-1) - 1)^2."""
    return grid.delta_phi**2 * (2 ** (grid.n_b - 1) - 1) ** 2


def precision_parameter(eps: float) -> int:
    """Amplitude-rotation precision b_r = ceil(0.5 * log2(9 pi^2 / (2 eps)))."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"per-call accuracy must lie in (0, 1), got {eps}")
    return math.ceil(0.5 * math.log2(9.0 * math.pi**2 / (2.0 * eps)))


def qubit_blockencoding_cost(grid: FieldGrid, eps: float) -> int:
    """T count of one qubit block-encoding call at per-call accuracy eps.

    Each preparation direction (paid twice) costs 4 b_r + 2 n_b - 16
    Toffolis, the selector 2 (n_b - 1) Toffolis plus 20 direct T gates; at
    4 T per Toffoli the total is 32 b_r + 24 n_b - 116.
    """
    n_b = grid.n_b
    prep_toffoli = 4 * precision_parameter(eps) + 2 * n_b - 16
    return TOFFOLI_T_COST * (2 * prep_toffoli + 2 * (n_b - 1)) + 20


class CostChain(NamedTuple):
    """One encoding's chain: normalization, queries, per-call budget, per-call cost, total."""

    alpha: float
    queries: float
    eps_be: float
    per_call: float
    total: float


def total_cost_qubit(grid: FieldGrid, t: float, eps_sim: float) -> CostChain:
    """Qubit baseline chain: normalization -> queries -> budget -> per call -> total."""
    alpha = qubit_normalization(grid)
    q = query_count(alpha, t, eps_sim)
    eps_be = eps_sim / q
    per_call = float(qubit_blockencoding_cost(grid, eps_be))
    return CostChain(alpha, q, eps_be, per_call, q * per_call)


def total_cost_qudit_hybrid(
    grid: FieldGrid, t: float, eps_sim: float, model: SynthesisModel = DEFAULT_MODEL
) -> CostChain:
    """Hybrid d-level chain with the per-call rotation budget split uniformly.

    The hybrid call pairs binary-register preparation with the d-level
    selection.  Per call: L * (synthesis cost at eps_be / L) + 4 n_b direct
    T gates (the comparator of the selection's sign flip), with
    L = 2 (2^n_b - 1) + n_b synthesized rotations: both preparation
    directions (2^n_b - 1 each) plus the n_b rotations of the selection's
    clock-phase ladder.
    """
    alpha = clock_one_norm(grid.phi_max, grid.d)
    q = query_count(alpha, t, eps_sim)
    eps_be = eps_sim / q
    n_b = grid.n_b
    rotations = 2 * (2**n_b - 1) + n_b
    per_call = rotations * rz_cost(eps_be, rotations, grid.d, model) + 4 * n_b
    return CostChain(alpha, q, eps_be, per_call, q * per_call)


def scan_row(
    phi_max: float,
    d: int,
    t: float,
    eps_sim: float,
    k: int = 2,
    model: SynthesisModel = DEFAULT_MODEL,
) -> ResourceReport:
    """Build the full report: totals, ratio, absolute saving, per-switch budget.

    k is the number of directional encoding switches per query (two for the
    hybrid round trip).  The switch count Q_qd * k must be a finite float,
    or the budget would read 0; the budget, like the totals, must be
    finite.  ratio > 1, delta_tot > 0, and a positive budget are all
    equivalent statements that the d-level route is cheaper.
    """
    if k < 1:
        raise ValueError(f"switch count must be at least 1, got {k}")
    grid = make_grid(phi_max, d)
    qb = total_cost_qubit(grid, t, eps_sim)
    qd = total_cost_qudit_hybrid(grid, t, eps_sim, model)
    delta = qb.total - qd.total
    switches = qd.queries * k
    if not math.isfinite(switches):
        raise ValueError(f"k={k:.6g} is too large: the {qd.queries:.6g} queries at d={d} make {switches} switches")
    budget = delta / switches
    check_finite(d, t, eps_sim, qb.total, qd.total, budget)
    return ResourceReport(
        d=d,
        n_b=grid.n_b,
        alpha_qb=qb.alpha,
        alpha_qd=qd.alpha,
        q_qb=qb.queries,
        q_qd=qd.queries,
        per_call_qb=qb.per_call,
        per_call_qd=qd.per_call,
        t_tot_qb=qb.total,
        t_tot_qd=qd.total,
        ratio=qb.total / qd.total,
        delta_tot=delta,
        budget_per_switch=budget,
    )


def lcu_row(
    phi_max: float,
    d: int,
    t: float,
    eps_sim: float,
    model: SynthesisModel = DEFAULT_MODEL,
) -> LcuRow:
    """Fixed-encoding break-even prefactors for the block-encoding route.

    The qubit total against Q_qd queries of the fixed encoding, which
    splits the per-call budget eps_sim / Q_qd uniformly over 3d - 3
    rotations: one selection bound of d - 1 plus two preparations of
    d - 1 each.  The bound holds even where the realized selection count,
    lcu.select_nontrivial_count(lcu.select_numerators(d)), is smaller.  No
    hybrid call is priced.
    """
    grid = make_grid(phi_max, d)
    qb = total_cost_qubit(grid, t, eps_sim)
    q_qd = query_count(clock_one_norm(grid.phi_max, d), t, eps_sim)
    return LcuRow(d, *break_even(qb.total, q_qd, 3 * d - 3, eps_sim / q_qd, d, t, eps_sim, model))
