"""Logarithmic synthesis cost models and product-formula break-even thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import register_width


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


def pf_thresholds(
    d: int, eps: float, model: SynthesisModel = DEFAULT_MODEL
) -> tuple[float, float]:
    """Product-formula break-even prefactors (a_max, a_rz) at step accuracy eps.

    a_max is the largest per-rotation synthesis prefactor at which the
    d - 1 rotation native step costs no more than the binary-register step
    under uniform per-rotation error allocation; a_rz is the effective
    prefactor reproducing qubit Z-rotation synthesis at the same primitive
    precision.  a_max > a_rz means the native route tolerates synthesis no
    better than the qubit baseline.
    """
    n_b = register_width(d)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"target accuracy must lie in (0, 1), got {eps}")
    l_qb = n_b * (n_b + 1) // 2
    l_qd = d - 1
    log_qd = math.log2(l_qd / eps)
    a_max = l_qb * rz_cost(eps / l_qb, model) / (l_qd * log_qd)
    a_rz = rz_cost(eps / l_qd, model) / log_qd
    return a_max, a_rz
