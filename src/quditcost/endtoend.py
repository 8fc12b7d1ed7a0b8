"""End-to-end query-weighted totals, crossover ratios, and switching budgets.

Cost chain, identical for both encodings: the coefficient one-norm alpha
fixes the query count Q = alpha * t + log2(1 / eps_sim); the per-call
accuracy budget is eps_be = eps_sim / Q; the per-call non-Clifford count
evaluated at that budget, times Q, gives the total.  The ratio of the two
totals exceeds one exactly when the d-level route is cheaper, and the
saving divided by (qudit queries * switches per query) bounds the
affordable per-switch conversion overhead.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .costmodel import (
    DEFAULT_MODEL,
    MIN_CALL_BUDGET,
    SynthesisModel,
    break_even,
    rotation_budget,
    rz_cost,
)
from .grid import FieldGrid, make_grid
from .lcu import (
    fixed_encoding_call_rotations,
    qubit_blockencoding_cost,
    qubit_normalization,
    qudit_hybrid_call_cost,
)
from .pauli import clock_one_norm

class CostChain(NamedTuple):
    """One encoding's chain: normalization, queries, per-call budget, per-call cost, total."""

    alpha: float
    queries: float
    eps_be: float
    per_call: float
    total: float


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


def total_cost_qubit(grid: FieldGrid, t: float, eps_sim: float) -> CostChain:
    """Qubit baseline chain: normalization -> queries -> budget -> per call -> total."""
    alpha = qubit_normalization(grid)
    q = query_count(alpha, t, eps_sim)
    eps_be = eps_sim / q
    per_call = float(qubit_blockencoding_cost(grid, eps_be).t_count_per_call)
    return CostChain(alpha, q, eps_be, per_call, q * per_call)


def total_cost_qudit_hybrid(
    grid: FieldGrid, t: float, eps_sim: float, model: SynthesisModel = DEFAULT_MODEL
) -> CostChain:
    """Hybrid d-level chain with the per-call rotation budget split uniformly.

    Per call: L * (synthesis cost at eps_be / L) + 4 n_b direct T gates,
    with L = 2 (2^n_b - 1) + n_b synthesized rotations.
    """
    alpha = clock_one_norm(grid.phi_max, grid.d)
    q = query_count(alpha, t, eps_sim)
    eps_be = eps_sim / q
    hybrid = qudit_hybrid_call_cost(grid.d)
    rotations = hybrid.rz_rotations_per_call
    per_call = rotations * rz_cost(rotation_budget(eps_be, rotations, grid.d), model) + hybrid.t_gates
    return CostChain(alpha, q, eps_be, per_call, q * per_call)


class ResourceReport(NamedTuple):
    """One scan-ratio row: side-by-side costs for one local dimension."""

    d: int
    n_b: int
    alpha_qb: float
    alpha_qd: float
    q_qb: float
    q_qd: float
    per_call_qb: float
    per_call_qd: float
    t_tot_qb: float
    t_tot_qd: float
    ratio: float
    delta_tot: float
    budget_per_switch: float


def ratio_and_budget(
    phi_max: float,
    d: int,
    t: float,
    eps_sim: float,
    k: int = 2,
    model: SynthesisModel = DEFAULT_MODEL,
) -> ResourceReport:
    """Build the full report: totals, ratio, absolute saving, per-switch budget.

    k is the number of directional encoding switches per query (two for the
    hybrid round trip).  ratio > 1, delta_tot > 0, and a positive budget
    are all equivalent statements that the d-level route is cheaper.
    """
    if k < 1:
        raise ValueError(f"switch count must be at least 1, got {k}")
    grid = make_grid(phi_max, d)
    qb = total_cost_qubit(grid, t, eps_sim)
    qd = total_cost_qudit_hybrid(grid, t, eps_sim, model)
    delta = qb.total - qd.total
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
        budget_per_switch=delta / (qd.queries * k),
    )


class LcuRow(NamedTuple):
    """One lcu-table row: break-even prefactors of the fixed encoding."""

    d: int
    a_max_lcu: float
    a_rz_lcu: float


def lcu_fixed_encoding_thresholds(
    phi_max: float,
    d: int,
    t: float,
    eps_sim: float,
    model: SynthesisModel = DEFAULT_MODEL,
) -> LcuRow:
    """Fixed-encoding break-even prefactors for the block-encoding route.

    The qubit total against the qudit queries, each with the uniform
    rotation bound L = 3d - 3 at the qudit per-call budget eps_be_qd.
    """
    grid = make_grid(phi_max, d)
    qb = total_cost_qubit(grid, t, eps_sim)
    qd = total_cost_qudit_hybrid(grid, t, eps_sim, model)
    rotations = fixed_encoding_call_rotations(d)
    return LcuRow(d, *break_even(qb.total, qd.queries, rotations, qd.eps_be, d, model))
