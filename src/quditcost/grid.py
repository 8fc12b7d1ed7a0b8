"""Symmetric uniform discretization of a bounded field amplitude.

The on-site field operator is diagonal on a grid of d = 2M + 1 equally
spaced eigenvalues spanning [-phi_max, +phi_max].  Every other module
consumes this grid, so construction validates the structural invariants
up front: odd local dimension, positive amplitude bound, and the exact
spacing relation delta_phi = 2 * phi_max / (d - 1).  A grid is O(1) in d.
The report commands build none: they check phi_max and d with the same two
functions, once per report and once per row.  The module is stdlib only,
as is everything the report commands import; the d levels themselves are
built by pauli.level_array, on the verify side, with numpy.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

# Largest local dimension: the coefficient scale 2 phi_max^2 / (d - 1)^2
# needs (d - 1)^2 as a finite float.  It is about 1.3e154.
MAX_D = math.isqrt(int(sys.float_info.max)) + 1

# Default caps of `verify`: the largest d of the dense schedule suites, and
# of the coefficient and census suites.
DIM_CAP = 64
CENSUS_CAP = 513


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


def register_width(d: int) -> int:
    """Qubit register width n_b = ceil(log2 d) covering d levels.

    The one check of the local dimension that every module relies on.

    Raises:
        ValueError: unless d is odd, at least 3 and at most MAX_D.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"symmetric truncation requires odd d >= 3, got {d}")
    if d > MAX_D:
        raise ValueError(f"d={d} is too large: (d - 1)^2 overflows a float above d = {MAX_D:.3g}")
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
    return FieldGrid(
        phi_max=float(phi_max),
        d=d,
        delta_phi=2.0 * phi_max / (d - 1),
        n_b=n_b,
    )
