"""Clock-power expansion of the squared field operator.

Any diagonal operator on d levels expands uniquely over the diagonal
unitaries diag(omega^(r*j)) with omega = exp(2*pi*i/d).  For the squared
field on the symmetric grid the coefficients have the closed form

    beta_0 = phi_max^2 * (d + 1) / (3 * (d - 1))
    beta_r = (2 * phi_max^2 / (d - 1)^2) * e^(i pi r/d) * cos(pi r/d) / sin^2(pi r/d)

for r = 1 .. d-1.  Each nonzero-r coefficient factors as c_r * e^(i pi r/d)
with real c_r, positive for r below the midpoint (d + 1) / 2 and negative
from the midpoint upward, antisymmetric under r -> d - r.  The one-norm
needs no coefficient list: with x_r = pi r/d,

    sum_{r>=1} |beta_r| = phi_max^2 * 2 / (d - 1)^2 * sum_{r=1}^{d-1} |cos x_r| / sin^2 x_r.

The module also provides an independent discrete-Fourier-transform oracle,
computed by direct O(d^2) summation over the eigenvalues, used to
cross-check the closed form, plus the selection-oracle phase list
assembled from the coefficient signs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldGrid

# Relative floor (times phi_max^2) below which a coefficient amplitude is
# treated as vanishing; absolute rather than exact-zero so that floating
# point evaluation of cos/sin near pi/2 cannot trip the guard.
IRREDUCIBILITY_FLOOR = 1e-12


@dataclass(frozen=True)
class PauliExpansion:
    """Clock-power expansion data for the squared field on d levels.

    Attributes:
        d: local dimension.
        phi_max: amplitude bound of the originating grid.
        betas: all d complex coefficients, index r = 0 .. d-1.
        c_amps: real amplitudes c_r with betas[r] = c_r * e^(i pi r/d),
            stored for r = 1 .. d-1 (c_amps[r - 1]).
        lambda_norm: one-norm of the nonidentity coefficients,
            sum_{r>=1} |beta_r|; the identity term is excluded because it
            only shifts the evolution by a global phase.
    """

    d: int
    phi_max: float
    betas: tuple[complex, ...]
    c_amps: tuple[float, ...]
    lambda_norm: float


def clock_one_norm(phi_max: float, d: int) -> float:
    """One-norm sum_{r>=1} |beta_r| of the closed-form coefficients, O(d) numpy work.

    The weights are symmetric under r -> d - r, so the sum runs over the
    half x_r <= pi/2 and is doubled.  Above pi/2 the rounding of x_r near
    pi would cost sin x_r up to d * 1e-16 of relative accuracy.
    """
    x = np.pi * np.arange(1, (d + 1) // 2) / d
    return float(phi_max**2 * 4.0 / (d - 1) ** 2 * (np.cos(x) / np.sin(x) ** 2).sum())


def _expansion_from_betas(
    d: int, phi_max: float, betas: list[complex], lambda_norm: float
) -> PauliExpansion:
    """Derive the real-amplitude view from a coefficient list."""
    c_amps = [(betas[r] * cmath.exp(-1j * math.pi * r / d)).real for r in range(1, d)]
    return PauliExpansion(
        d=d,
        phi_max=phi_max,
        betas=tuple(betas),
        c_amps=tuple(c_amps),
        lambda_norm=lambda_norm,
    )


def beta_closed_form(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients from the closed-form trigonometric expressions."""
    d = grid.d
    p2 = grid.phi_max**2
    betas: list[complex] = [complex(p2 * (d + 1) / (3.0 * (d - 1)))]
    scale = 2.0 * p2 / (d - 1) ** 2
    for r in range(1, d):
        x = math.pi * r / d
        c = scale * math.cos(x) / math.sin(x) ** 2
        betas.append(c * cmath.exp(1j * x))
    return _expansion_from_betas(d, grid.phi_max, betas, clock_one_norm(grid.phi_max, d))


def beta_dft_oracle(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients by direct Fourier summation over the eigenvalues.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as an explicit
    O(d^2) matrix-vector sum, and its one-norm as the sum of the moduli of
    those coefficients.  Verification oracle only: it shares no code path
    with the closed form.
    """
    d = grid.d
    lam_sq = np.asarray(grid.lambdas, dtype=float) ** 2
    indices = np.arange(d)
    kernel = np.exp(-2j * np.pi * np.outer(indices, indices) / d)
    betas = [complex(b) for b in kernel @ lam_sq / d]
    return _expansion_from_betas(d, grid.phi_max, betas, sum(abs(b) for b in betas[1:]))


def select_diag_phases(expansion: PauliExpansion) -> list[float]:
    """Phases of the selection-oracle diagonal, one per level.

    Level 0 carries phase 0; level r carries pi*r/d, shifted by pi wherever
    the real amplitude c_r is negative, so that e^(i theta_r) equals
    beta_r / |beta_r|.  All values lie in [0, 2*pi).

    Raises:
        ValueError: if any c_r sits below the irreducibility floor.
    """
    d = expansion.d
    floor = IRREDUCIBILITY_FLOOR * expansion.phi_max**2
    out = [0.0]
    for r in range(1, d):
        c = expansion.c_amps[r - 1]
        if abs(c) <= floor:
            raise ValueError(
                f"coefficient c_{r} vanishes; the expansion is not irreducible"
            )
        theta = math.pi * r / d + (math.pi if c < 0 else 0.0)
        out.append(theta % (2.0 * math.pi))
    return out
