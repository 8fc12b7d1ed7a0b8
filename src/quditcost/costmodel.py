"""Logarithmic synthesis cost models and product-formula break-even thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .grid import register_width

# Smallest accuracy budget a cost takes log2 of: the step accuracy eps of
# a product formula or the per-call budget eps_sim / Q of a block
# encoding.  Above it the reciprocals 9 pi^2 / (2 eps) of the qubit
# preparation and L / eps of L synthesized rotations stay finite for
# every L below 1e8.
MIN_CALL_BUDGET = 1e-300


@dataclass(frozen=True)
class SynthesisModel:
    """Per-rotation non-Clifford synthesis cost parameters.

    A qubit Z rotation synthesized to accuracy delta costs
    rz_slope * log2(1/delta) + rz_intercept non-Clifford gates; an embedded
    two-level rotation on a d-level system is modeled as
    qudit_prefactor * log2(1/delta).  All three must be finite; the qubit
    parameters nonnegative and not both zero, so that every rotation costs
    more than nothing; the qudit prefactor positive.
    """

    rz_slope: float = 0.57
    rz_intercept: float = 8.83
    qudit_prefactor: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("rz_slope", "rz_intercept"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.rz_slope == 0 and self.rz_intercept == 0:
            raise ValueError("rz_slope and rz_intercept are both zero: rotations would cost nothing")
        if self.qudit_prefactor <= 0:
            raise ValueError(f"qudit_prefactor must be positive, got {self.qudit_prefactor}")


DEFAULT_MODEL = SynthesisModel()


def rz_cost(delta: float, model: SynthesisModel = DEFAULT_MODEL) -> float:
    """Synthesis cost of one qubit Z rotation to accuracy delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"synthesis accuracy must lie in (0, 1), got {delta}")
    return model.rz_slope * math.log2(1.0 / delta) + model.rz_intercept


def break_even(
    qubit_cost: float,
    queries: float,
    rotations: int,
    budget: float,
    model: SynthesisModel = DEFAULT_MODEL,
) -> tuple[float, float]:
    """Break-even synthesis prefactors (a_max, a_rz) of the d-level route.

    The d-level route makes `queries` calls of `rotations` embedded
    rotations each and splits the accuracy `budget` of a call uniformly,
    so it costs queries * rotations * a * log2(rotations / budget) at
    prefactor a.  a_max is the prefactor at which that equals qubit_cost;
    a_rz is the effective prefactor of qubit Z-rotation synthesis at the
    same primitive precision budget / rotations.  a_max > a_rz means the
    d-level route tolerates synthesis no better than the qubit baseline.
    """
    log_term = math.log2(rotations / budget)
    a_max = qubit_cost / (queries * rotations * log_term)
    a_rz = rz_cost(budget / rotations, model) / log_term
    return a_max, a_rz


class PfRow(NamedTuple):
    """One pf-thresholds row: break-even prefactors of the native step."""

    d: int
    a_max_pf: float
    a_rz_pf: float
    favorable: bool


def pf_thresholds(d: int, eps: float, model: SynthesisModel = DEFAULT_MODEL) -> PfRow:
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
    a_max, a_rz = break_even(l_qb * rz_cost(eps / l_qb, model), 1, d - 1, eps, model)
    return PfRow(d, a_max, a_rz, a_max > a_rz)
