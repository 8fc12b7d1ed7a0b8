"""Symmetric uniform discretization of a bounded field amplitude.

The on-site field operator is diagonal on a grid of d = 2M + 1 equally
spaced eigenvalues spanning [-phi_max, +phi_max].  Every other module
consumes this grid, so construction validates the structural invariants
up front: odd local dimension, positive amplitude bound, and the exact
spacing relation delta_phi = 2 * phi_max / (d - 1).  The levels are built
with numpy, by the same IEEE operations as the scalar expression
-phi_max + n * delta_phi, so they equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FieldGrid:
    """Symmetric amplitude truncation with d = 2M + 1 levels.

    Attributes:
        phi_max: largest field amplitude on the grid (grid endpoint).
        d: local dimension, i.e. number of grid points (odd).
        delta_phi: grid spacing, 2 * phi_max / (d - 1).
        lambdas: the d field eigenvalues, -phi_max + n * delta_phi.
        n_b: qubit register width covering d levels, ceil(log2(d)).
    """

    phi_max: float
    d: int
    delta_phi: float
    lambdas: tuple[float, ...]
    n_b: int


def register_width(d: int) -> int:
    """Qubit register width n_b = ceil(log2 d) covering d levels.

    The one check of the local dimension that every module relies on.

    Raises:
        ValueError: unless d is odd and at least 3.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"symmetric truncation requires odd d >= 3, got {d}")
    # exact ceil(log2 d); odd d is never a power of two
    return (d - 1).bit_length()


def check_phi_max(phi_max: float) -> None:
    """Raise ValueError unless the amplitude bound is positive, finite and not too large.

    Both block-encoding normalizations, and every intermediate of their
    evaluation, lie at or below 4 phi_max^2, so that bound must be finite.  It
    is formed by products, which overflow to inf rather than raise.
    """
    if not (math.isfinite(phi_max) and phi_max > 0):
        raise ValueError(f"phi_max must be positive and finite, got {phi_max}")
    if not math.isfinite(4.0 * phi_max * phi_max):
        raise ValueError(f"phi_max={phi_max} is too large: the normalization bound 4 phi_max^2 overflows")


def make_grid(phi_max: float, d: int) -> FieldGrid:
    """Build and validate the symmetric field-amplitude grid.

    Args:
        phi_max: amplitude bound, as check_phi_max accepts.
        d: local dimension, must be odd and at least 3.

    Raises:
        ValueError: for even d, d < 3, or a phi_max that check_phi_max
            rejects.
    """
    check_phi_max(phi_max)
    n_b = register_width(d)
    delta_phi = 2.0 * phi_max / (d - 1)
    lambdas = tuple((-phi_max + np.arange(d) * delta_phi).tolist())
    return FieldGrid(
        phi_max=float(phi_max),
        d=d,
        delta_phi=delta_phi,
        lambdas=lambdas,
        n_b=n_b,
    )


def squared_mean(grid: FieldGrid) -> float:
    """Mean of the squared eigenvalues, (1/d) * sum_n lambda_n^2.

    Computed by direct summation; for the symmetric grid this equals
    phi_max^2 * (d + 1) / (3 * (d - 1)), which the tests cross-check.
    """
    return sum(lam * lam for lam in grid.lambdas) / grid.d
