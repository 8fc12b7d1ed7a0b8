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
  `simverify.level_array` and for the integer closed form of
  `simverify.qudit_trotter_angles`;
* the centered partial sums behind the native step angles, nonzero for
  every admissible k, and the global phase -t mu that the step's ladder
  leaves out (`ladder_global_phase`);
* the clock-phase ladder of the d-level selection oracle, the n_b
  rotations inside the hybrid per-call count;
* the binary-register preparation of the hybrid call, a Grover-Rudolph
  tree of uniformly controlled Y rotations (quant-ph/0208112), the
  2^n_b - 1 rotations per direction inside the same count;
* the comparator of the selection's sign flip, a gate list of X, CNOT
  and temporary logical-AND gates (arXiv:1709.06648), with the bit-array
  simulator that runs it on every input, whose T gates the 4 n_b direct
  T gates of the same count bound;
* the direct O(d^2) Fourier sum of the squared grid levels, which
  certifies the FFT coefficient oracle `simverify.beta_dft_oracle`;
* the series in 1/d of the qudit one-norm, derived at 40 digits by
  power-series arithmetic in mpmath, which certifies the coefficients of
  `costmodel.ONE_NORM_SERIES`, and the same expansion evaluated at one d
  with mpmath's trigamma, which checks the one-norm up to MAX_D;
* trial division, which certifies the Miller-Rabin test `cli.is_prime`
  that `--primes` scans use;
* the bit-pair projector sum over every (r, s) pair, one register string
  at a time, which certifies the quadratic form of
  `simverify.qubit_projector_diag_oracle`, and the one-norm of those pair
  coefficients, which certifies the qubit normalization `alpha_qb`;
* the per-d verify loop that the block pass of `simverify.run_suites`
  replaced, kept as it was with the per-d builders it called
  (`per_dimension_run_suites`).  The block pass returns the same results,
  every error bit for bit, and the loop's one-d `ladder_diagonal` and
  `phase_error` are what the schedule tests read a single ladder with;
* the per-d cost chain that the report passes of `costmodel` replaced,
  kept as it was: a grid, the query count, the qubit precision parameter
  and T count by their Toffoli breakdown, the qubit and hybrid chains, and
  one row function per report (`pf_row`, `scan_row`, `lcu_row`).  The
  passes print the same rows bit for bit and raise the same errors.

Angle convention as in `quditcost.simverify`: R_z(theta) = exp(-i theta Z / 2).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
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
from quditcost.simverify import (
    TRIVIAL_ANGLE_TOL,
    SuiteResult,
    _distinct_prime_count,
    _result,
    beta_dft_oracle,
    fan_state,
    prep_ry_schedule,
    reduce_angles,
    suite_projector,
)


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
    """The d field eigenvalues of simverify.level_array, as Python floats."""
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


def sign_comparator_gates(d: int) -> list[tuple]:
    """Gate list that writes [x >= (d + 1)/2] of the n_b-bit index x to a flag wire.

    The comparison behind the sign flip of the hybrid selection: c_r < 0
    exactly for r >= (d + 1)/2.  Wires 0 .. n_b - 1 hold x, least
    significant bit first; then one carry wire per temporary logical-AND;
    the flag wire is last.  x >= c exactly when x + (2^n_b - c) carries out
    of n_b bits, and the carries of a constant addend k need no Toffoli:
    c_(i+1) = x_i AND c_i where bit i of k is 0, x_i OR c_i (an AND between
    X gates) where it is 1.  Below the lowest set bit of k the carry is 0,
    and just above it the carry is x at that bit, so n_b - 1 - j ANDs
    compute the chain, j the lowest set bit of c (and of k).  A CNOT copies
    the last carry to the flag, and the chain is uncomputed in reverse.
    Gates: ("x", w), ("cx", control, target), ("and", a, b, target) into a
    fresh wire, 4 T, and ("unand", a, b, target), its uncomputation by
    measurement and a Clifford correction, 0 T (Gidney, arXiv:1709.06648).
    """
    n_b = register_width(d)
    k = 2**n_b - (d + 1) // 2
    j = (k & -k).bit_length() - 1
    carry, wire, compute = j, n_b, []
    for i in range(j + 1, n_b):
        if (k >> i) & 1:
            # x_i OR c_i = NOT (NOT x_i AND NOT c_i)
            flips = [("x", i), ("x", carry)]
            compute += [*flips, ("and", i, carry, wire), *flips, ("x", wire)]
        else:
            compute.append(("and", i, carry, wire))
        carry, wire = wire, wire + 1
    uncompute = [("unand", *gate[1:]) if gate[0] == "and" else gate for gate in reversed(compute)]
    return [*compute, ("cx", carry, wire), *uncompute]


def run_bit_circuit(gates: list[tuple], n_inputs: int) -> np.ndarray:
    """Every basis input of an X / CNOT / logical-AND circuit at once, as bit arrays.

    Column x of the returned (wires, 2^n_inputs) bool array is the basis
    state that input x, on wires 0 .. n_inputs - 1, ends in; the other wires
    start at 0.  Such circuits permute basis states, so this is their whole
    action.  An "and" must find its target at 0 and an "unand" must find
    it holding the AND it clears, on every input.
    """
    wires = 1 + max(max(gate[1:]) for gate in gates)
    bits = np.zeros((max(wires, n_inputs), 2**n_inputs), dtype=bool)
    inputs = np.arange(2**n_inputs)
    for w in range(n_inputs):
        bits[w] = (inputs >> w) & 1
    for name, *w in gates:
        if name == "x":
            bits[w[0]] ^= True
        elif name == "cx":
            bits[w[1]] ^= bits[w[0]]
        else:
            product = bits[w[0]] & bits[w[1]]
            expected = np.zeros_like(product) if name == "and" else product
            if not np.array_equal(bits[w[2]], expected):
                raise ValueError(f"{name} on wire {w[2]} does not find the state it needs")
            bits[w[2]] = product if name == "and" else False
    return bits


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


def projector_one_norm(grid: FieldGrid) -> float:
    """delta_phi^2 * sum_{r,s} |2^(r+s)|, the one-norm of the bit-pair projector coefficients.

    The (n_b - 1)^2 coefficients are added one pair at a time as an exact
    integer, which is scaled once.
    """
    acc = 0
    for r in range(grid.n_b - 1):
        for s in range(grid.n_b - 1):
            acc += 1 << (r + s)
    return grid.delta_phi**2 * acc


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
    equivalent statements that the d-level route is cheaper.  k is an
    integer from 1 to the largest float.
    """
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"switch count k must be an integer, got {k!r}")
    k = int(k)
    if not -sys.float_info.max <= k <= sys.float_info.max:
        raise ValueError(f"switch count k has {k.bit_length()} bits, past the largest float {sys.float_info.max:.6g}")
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
    d - 1 each.  The bound holds even where the realized selection count
    (simverify.select_nontrivial_count of simverify.select_numerators) is
    smaller.  No hybrid call is priced.
    """
    grid = make_grid(phi_max, d)
    qb = total_cost_qubit(grid, t, eps_sim)
    q_qd = query_count(clock_one_norm(grid.phi_max, d), t, eps_sim)
    return LcuRow(d, *break_even(qb.total, q_qd, 3 * d - 3, eps_sim / q_qd, d, t, eps_sim, model))


# ------------------------------------------------- the qudit one-norm at 40 digits


def _series_product(a: list, b: list) -> list:
    """Product of two power series truncated to len(a) coefficients."""
    return [mpmath.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_reciprocal(a: list) -> list:
    """1 / a(u) as a power series truncated to len(a) coefficients; a[0] != 0."""
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-mpmath.fsum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def one_norm_series(terms: int) -> list:
    """g_0 .. g_(terms - 1) of g(u) = 4 W / (d - 1)^2 at u = 1/d, at the working precision.

    W = sum_{r<=(d-1)/2} cos x_r / sin^2 x_r, x_r = pi r/d, from the
    expansion that costmodel.clock_one_norm states.  With h = pi u,
    X = (d - 1) h / 2 = (pi/2)(1 - u) and z = (d + 1)/2:

        W = (d/pi)^2 (pi^2/6 - psi'(z)) + (1/X - 1/sin X)/h + (f(X) + 1/6)/2
            + sum_k B_2k / (2k)! h^(2k-1) f^(2k-1)(X),

    psi'(z) = 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1) with 1/z = 2u / (1 + u),
    f = cos x / sin^2 x - 1/x^2, and for odd j f^(j)(X) = -csc^(j+1)(X)
    + (j + 1)! / X^(j+2).  As X = pi/2 - y with y = pi u / 2, sin X = cos y,
    cos X = sin y and csc^(j+1)(X) = sec^(j+1)(y).  Each piece of
    4 u^2 W is so a power series in u, here a truncated list of mpf, and
    g is their sum over (1 - u)^2.  The Bernoulli term k first enters at
    u^(2k+1), so the sums over k stop at 2k + 1 = terms - 1.
    """
    n = terms + 8  # the eighth derivative of sec, the highest taken, loses 8 coefficients
    pi = mpmath.pi
    bernoulli = range(1, (terms - 2) // 2 + 1)

    def series(*head):
        return [mpmath.mpf(c) for c in head] + [mpmath.mpf(0)] * (n - len(head))

    def scaled(a, c, shift=0):
        """c u^shift a(u)."""
        return [mpmath.mpf(0)] * shift + [c * x for x in a[: n - shift]]

    def power(a, p):
        out = series(1)
        for _ in range(p):
            out = _series_product(out, a)
        return out

    def at_y(a):
        """a(y) at y = pi u / 2."""
        return [c * (pi / 2) ** k for k, c in enumerate(a)]

    def derivative(a, times):
        for _ in range(times):
            a = [k * a[k] for k in range(1, n)] + [mpmath.mpf(0)]
        return a

    def minus(a, b):
        return [x - y for x, y in zip(a, b)]

    sin_y = [(-1) ** (k // 2) / mpmath.factorial(k) if k % 2 else 0 for k in range(n)]
    sec_y = _series_reciprocal([(-1) ** (k // 2) / mpmath.factorial(k) if k % 2 == 0 else 0 for k in range(n)])
    inv_x = scaled(_series_reciprocal(series(1, -1)), 2 / pi)
    inv_z = scaled(_series_reciprocal(series(1, 1)), 2, 1)
    trigamma = [inv_z, scaled(power(inv_z, 2), mpmath.mpf(1) / 2)]
    trigamma += [scaled(power(inv_z, 2 * k + 1), mpmath.bernoulli(2 * k)) for k in bernoulli]
    f_x = minus(_series_product(at_y(sin_y), power(at_y(sec_y), 2)), power(inv_x, 2))
    parts = [
        series(mpmath.mpf(2) / 3),  # 4 / pi^2 times zeta(2) = pi^2 / 6
        *(scaled(term, -4 / pi**2) for term in trigamma),
        scaled(minus(inv_x, at_y(sec_y)), 4 / pi, 1),
        scaled(f_x, 2, 2),
        scaled(series(mpmath.mpf(1) / 6), 2, 2),
    ]
    for k in bernoulli:
        j = 2 * k - 1
        f_j = minus(scaled(power(inv_x, j + 2), mpmath.factorial(j + 1)), at_y(derivative(sec_y, j + 1)))
        parts.append(scaled(f_j, 4 * mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * pi**j, j + 2))
    scaled_weights = [mpmath.fsum(column) for column in zip(*parts)]
    return _series_product(scaled_weights, _series_reciprocal(power(series(1, -1), 2)))[:terms]


def one_norm_weight(d: int) -> mpmath.mpf:
    """4 W / (d - 1)^2 at 40 digits for d >= 101, by mpmath.psi(1, .) and Euler-Maclaurin.

    The one-norm is phi_max^2 times this.  The expansion of
    one_norm_series, evaluated at d rather than expanded in 1/d: the
    trigamma exact, the Euler-Maclaurin terms through B_8 with the
    derivatives of f by mpmath.diff.  It lies within 8e-21 relative of the
    40-digit half sum at d = 101.  O(1) in d, so it reaches MAX_D.
    """
    with mpmath.workdps(40):
        pi = mpmath.pi
        h = pi / d
        x = (d - 1) * h / 2

        def f(x):
            return mpmath.cos(x) / mpmath.sin(x) ** 2 - 1 / x**2

        weights = (d / pi) ** 2 * (pi**2 / 6 - mpmath.psi(1, mpmath.mpf(d + 1) / 2))
        weights += (1 / x - 1 / mpmath.sin(x)) / h + (f(x) + mpmath.mpf(1) / 6) / 2
        for k in range(1, 5):
            j = 2 * k - 1
            weights += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * h**j * mpmath.diff(f, x, j)
        return 4 * weights / (d - 1) ** 2


# The verify builders as they were before simverify ran blocks of d: each
# takes one d and builds its arrays, and the loop below calls them per d.


def level_array(phi_max: float, d: int) -> np.ndarray:
    """The d field eigenvalues -phi_max + n * delta_phi, n = 0 .. d-1."""
    return -phi_max + np.arange(d) * (2.0 * phi_max / (d - 1))


def beta_closed_form(phi_max: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(betas, c_amps): all d beta_r, and the c_r of r = 1 .. d-1 (c_amps[r - 1]).

    Cosine and sine at pi * min(r, d - r) / d, the cosine negated where 2r > d.
    """
    p2 = phi_max**2
    r = np.arange(1, d)
    x = np.pi * np.minimum(r, d - r) / d
    cos = np.where(2 * r > d, -np.cos(x), np.cos(x))
    c_amps = 2.0 * p2 / (d - 1) ** 2 * cos / np.sin(x) ** 2
    betas = np.empty(d, dtype=complex)
    betas[0] = p2 * (d + 1) / (3.0 * (d - 1))
    betas.real[1:] = c_amps * cos
    betas.imag[1:] = c_amps * np.sin(x)
    return betas, c_amps


def irreducibility_floor(phi_max: float, d: int) -> float:
    """Half the smallest exact |c_r|, in scalar math."""
    y = math.pi / (2 * d)
    return phi_max**2 / (d - 1) ** 2 * math.sin(y) / math.cos(y) ** 2


def select_diag_phases(phi_max: float, c_amps: np.ndarray) -> np.ndarray:
    """The d selection phases, d = len(c_amps) + 1; raises on a vanishing c_r."""
    d = len(c_amps) + 1
    vanishing = np.flatnonzero(np.abs(c_amps) <= irreducibility_floor(phi_max, d))
    if vanishing.size:
        raise ValueError(
            f"coefficient c_{vanishing[0] + 1} vanishes; the expansion is not irreducible"
        )
    thetas = np.zeros(d)
    thetas[1:] = np.pi * np.arange(1, d) / d + np.where(c_amps < 0, np.pi, 0.0)
    return thetas % (2.0 * np.pi)


def fixed_encoding_select_schedule(thetas: np.ndarray) -> np.ndarray:
    """The d - 1 reduced selection angles of one d's phases."""
    return reduce_angles(-2.0 * np.cumsum(thetas[:-1] - thetas.mean()))


def select_numerators(d: int) -> np.ndarray:
    """N_k, k = 0 .. d - 2, of one d."""
    register_width(d)
    k = np.arange(d - 1, dtype=np.int64)
    m = (d - 1) // 2
    return (k + 1) * (4 * m - k) - 2 * d * np.maximum(k - m, 0)


def select_nontrivial_count(numerators: np.ndarray) -> int:
    """Pairs of one d whose N_k 4d does not divide."""
    return int(np.count_nonzero(numerators % (4 * (len(numerators) + 1))))


def qudit_trotter_angles(phi_max: float, d: int, t: float) -> np.ndarray:
    """The d - 1 reduced step angles of one d at one time."""
    third = (2.0 * phi_max / (d - 1)) ** 2 / 3.0
    k = np.arange(d - 1.0)
    numerator = (k + 1.0) * (2.0 * k - (d - 2)) * (k - (d - 1)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        angles = (2.0 * t * third) * numerator
    if not np.isfinite(angles).all():
        raise ValueError(
            f"phi_max={phi_max} with t={t} is too large: "
            "the step angles 2 t sum(lambda^2 - mu) overflow"
        )
    return reduce_angles(angles)


def ladder_diagonal(angles: np.ndarray) -> np.ndarray:
    half = 0.5 * angles
    return np.append(0.0, half) - np.append(half, 0.0)


def nontrivial_count(angles: np.ndarray) -> int:
    return len(angles) - int(np.count_nonzero(np.abs(angles) <= TRIVIAL_ANGLE_TOL))


def phase_error(a, b) -> float:
    diff = np.subtract(a, b)
    return float(np.max(np.abs(2.0 * np.sin(0.5 * (diff - diff[0])))))


def per_dimension_run_suites(phi_max, dense_ds, census_ds, inject=0.0) -> list[SuiteResult]:
    """simverify.run_suites as one loop over d that builds each d's arrays on its own."""
    if not math.isfinite(inject):
        raise ValueError(f"--inject-angle-error must be finite, got {inject}")
    check_phi_max(phi_max)
    d = max(dense_ds[-1], census_ds[-1])
    if 2.0 * irreducibility_floor(phi_max, d) < sys.float_info.min:
        raise ValueError(
            f"phi_max={phi_max} is too small for d={d}: its smallest coefficient "
            f"is below the smallest normal float {sys.float_info.min:.3g}"
        )
    dense_errors, dft_errors, census_errors = [], [], []
    scale = phi_max * phi_max
    signs_ok = census_ok = True
    offsets = set()
    mismatch = ""
    for d in sorted({*dense_ds, *census_ds}):
        betas, c_amps = beta_closed_form(phi_max, d)
        thetas = select_diag_phases(phi_max, c_amps)
        angles = fixed_encoding_select_schedule(thetas)
        lambda_norm = clock_one_norm(phi_max, d)
        lam_sq = level_array(phi_max, d) ** 2
        if d in dense_ds:
            amps = np.sqrt(np.abs(betas[1:]) / lambda_norm)
            dense_errors.append((
                np.max([
                    phase_error(ladder_diagonal(qudit_trotter_angles(phi_max, d, t)), -t * lam_sq)
                    for t in (0.1, 1.0, 3.7)
                ]),
                phase_error(ladder_diagonal(np.append(angles[0] + inject, angles[1:])), thetas),
                np.linalg.norm(fan_state(prep_ry_schedule(amps)) - np.append(0.0, amps)),
            ))
        if d in census_ds:
            oracle = beta_dft_oracle(lam_sq)
            one_norm = np.abs(oracle[1:]).sum()
            r = np.arange(1, d)
            dft_errors.append((
                np.max(np.abs(betas - oracle)) / scale,
                abs(lambda_norm - one_norm) / one_norm,
            ))
            signs_ok = signs_ok and np.array_equal(c_amps < 0, r >= (d + 1) // 2)

            # N_k mod 4d feeds the count and the closed-form angles in [0, 4 pi)
            residues = select_numerators(d) % (4 * d)
            count = select_nontrivial_count(residues)
            offsets.add(d - 1 - count)
            if d - 1 - count != 2 ** (_distinct_prime_count(d) - 1) - 1:
                census_ok = False
            floats = nontrivial_count(angles)
            if floats != count:
                census_ok = False
                mismatch = mismatch or f"count mismatch at d={d} (float {floats}, exact {count})  "
            # the gap lies in (-6 pi, 2 pi]; one exact shift folds it into (-2 pi, 2 pi]
            gap = angles - (np.pi / d) * residues
            census_errors.append(np.max(np.abs(np.where(gap <= -2 * np.pi, gap + 4 * np.pi, gap))))

    dense_errors, dft_errors = np.array(dense_errors), np.array(dft_errors)
    dft_ok = signs_ok and bool(np.all(dft_errors.max(axis=0) <= (1e-12, 1e-10)))
    detail = "" if signs_ok else "sign-threshold equivalence violated"
    offsets_seen = "offsets d-1-s(d): {" + ", ".join(str(o) for o in sorted(offsets)) + "}"
    return [
        _result("trotter-schedule", dense_ds, dense_errors[:, 0], 1e-10),
        _result("select-schedule", dense_ds, dense_errors[:, 1], 1e-10),
        _result("prep-schedule", dense_ds, dense_errors[:, 2], 1e-10),
        suite_projector(phi_max),
        _result("dft-oracle", census_ds, dft_errors.max(axis=1), 1e-10, dft_ok, detail),
        _result("select-census", census_ds, census_errors, 1e-9, census_ok, mismatch + offsets_seen),
    ]
