"""Logarithmic synthesis cost models and product-formula break-even thresholds."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .grid import register_width

# Smallest accuracy budget a cost takes log2 of: the step accuracy eps of
# a product formula or the per-call budget eps_sim / Q of a block
# encoding.  Above it the reciprocal 9 pi^2 / (2 eps) of the qubit
# preparation stays finite.
MIN_CALL_BUDGET = 1e-300

# Smallest share of a budget split uniformly over L synthesized rotations:
# the smallest normal float.  At or above it the share keeps full
# precision, and the reciprocals 1 / delta and L / budget that rz_cost and
# break_even take log2 of stay finite, for every L.
MIN_ROTATION_BUDGET = sys.float_info.min


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
    if not MIN_ROTATION_BUDGET <= delta < 1.0:
        raise ValueError(
            f"synthesis accuracy must lie in [{MIN_ROTATION_BUDGET:.3g}, 1), got {delta}"
        )
    return model.rz_slope * math.log2(1.0 / delta) + model.rz_intercept


def rotation_budget(budget: float, rotations: int, d: int) -> float:
    """Share budget / rotations of each of the rotations that split a budget uniformly.

    d is the local dimension the rotation count belongs to; the error
    names it.

    Raises:
        ValueError: if the share is below MIN_ROTATION_BUDGET.
    """
    delta = budget / rotations
    if delta < MIN_ROTATION_BUDGET:
        raise ValueError(
            f"d={d} is too large for the accuracy budget {budget:.6g}: split over "
            f"{rotations} rotations it leaves {delta!r} per rotation, below the "
            f"smallest normal float {MIN_ROTATION_BUDGET!r}"
        )
    return delta


def break_even(
    qubit_cost: float,
    queries: float,
    rotations: int,
    budget: float,
    d: int,
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
    The rotations belong to dimension d.
    """
    delta = rotation_budget(budget, rotations, d)
    log_term = math.log2(rotations / budget)
    a_max = qubit_cost / (queries * rotations * log_term)
    a_rz = rz_cost(delta, model) / log_term
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
    qubit_cost = l_qb * rz_cost(rotation_budget(eps, l_qb, d), model)
    a_max, a_rz = break_even(qubit_cost, 1, d - 1, eps, d, model)
    return PfRow(d, a_max, a_rz, a_max > a_rz)
