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

    sum_{r>=1} |beta_r| = phi_max^2 * 2 / (d - 1)^2 * sum_{r=1}^{d-1} |cos x_r| / sin^2 x_r,

which costmodel.clock_one_norm evaluates in O(1) without numpy, for the
report commands.  This module is the verify side: it builds the d grid
levels as one array (level_array; the tests keep a tuple-of-floats
reference in tests/oracles.py) and the coefficient arrays with numpy: the
closed form, which forms the real c_r first and beta_r from them, and an
independent discrete-Fourier-transform oracle, a numpy FFT of the squared
levels in O(d log d) that recovers c_r by taking the phase off (the tests
certify the FFT against the direct O(d^2) sum).  It also assembles the
selection-oracle phase list from the coefficient signs, and holds the
irreducibility floor, half the smallest exact |c_r|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import clock_one_norm
from .grid import FieldGrid


@dataclass(frozen=True)
class PauliExpansion:
    """Clock-power expansion data for the squared field on d levels.

    The coefficients are held as numpy arrays.

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
    betas: np.ndarray
    c_amps: np.ndarray
    lambda_norm: float


def level_array(grid: FieldGrid) -> np.ndarray:
    """The d field eigenvalues -phi_max + n * delta_phi, n = 0 .. d-1.

    numpy forms each by the same IEEE operations as that scalar expression,
    so they equal it bit for bit.
    """
    return -grid.phi_max + np.arange(grid.d) * grid.delta_phi


def beta_closed_form(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients from the closed-form trigonometric expressions.

    The real amplitudes c_r come first and beta_r = c_r * e^(i pi r/d)
    from them, so c_amps needs no round trip through the complex phase.
    """
    d = grid.d
    p2 = grid.phi_max**2
    x = np.pi * np.arange(1, d) / d
    c_amps = 2.0 * p2 / (d - 1) ** 2 * np.cos(x) / np.sin(x) ** 2
    betas = np.empty(d, dtype=complex)
    betas[0] = p2 * (d + 1) / (3.0 * (d - 1))
    betas[1:] = c_amps * np.exp(1j * x)
    return PauliExpansion(d, grid.phi_max, betas, c_amps, clock_one_norm(grid.phi_max, d))


def beta_dft_oracle(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients by a numerical Fourier transform of the eigenvalues.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as the FFT of
    the squared grid levels, O(d log d), its one-norm as the sum of the
    moduli of those coefficients, and the real amplitudes c_r by taking the
    phase e^(i pi r/d) off each beta_r.  Verification oracle only: it shares
    no formula with the closed form.  np.fft is reached here, at call time,
    because numpy loads it lazily and the report commands never need it.
    """
    d = grid.d
    betas = np.fft.fft(level_array(grid) ** 2) / d
    c_amps = (betas[1:] * np.exp(-1j * np.pi * np.arange(1, d) / d)).real
    return PauliExpansion(d, grid.phi_max, betas, c_amps, float(np.abs(betas[1:]).sum()))


def irreducibility_floor(phi_max: float, d: int) -> float:
    """Amplitude at or below which a coefficient counts as vanishing.

    Half the smallest exact |c_r|, which sits at r = (d - 1) / 2:
    2 phi_max^2 / (d - 1)^2 * sin(y) / cos^2(y) with y = pi / (2d), about
    pi phi_max^2 / d^3.  The computed c_r near that r carry a relative
    rounding error of order d * 1e-16, far below one half, so correct
    coefficients pass at every d, while a zero field (floor 0) fails.
    """
    y = math.pi / (2 * d)
    return phi_max**2 / (d - 1) ** 2 * math.sin(y) / math.cos(y) ** 2


def select_diag_phases(expansion: PauliExpansion) -> np.ndarray:
    """Phases of the selection-oracle diagonal, one per level.

    Level 0 carries phase 0; level r carries pi*r/d, shifted by pi wherever
    the real amplitude c_r is negative, so that e^(i theta_r) equals
    beta_r / |beta_r|.  All values lie in [0, 2*pi).

    Raises:
        ValueError: if any c_r sits at or below the irreducibility floor.
    """
    d = expansion.d
    c = expansion.c_amps
    vanishing = np.flatnonzero(np.abs(c) <= irreducibility_floor(expansion.phi_max, d))
    if vanishing.size:
        raise ValueError(
            f"coefficient c_{vanishing[0] + 1} vanishes; the expansion is not irreducible"
        )
    thetas = np.zeros(d)
    thetas[1:] = np.pi * np.arange(1, d) / d + np.where(c < 0, np.pi, 0.0)
    return thetas % (2.0 * np.pi)
