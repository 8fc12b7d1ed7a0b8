"""Clock-power expansion of the squared field operator.

Any diagonal operator on d levels expands uniquely over the diagonal
unitaries diag(omega^(r*j)) with omega = exp(2*pi*i/d).  For the squared
field on the symmetric grid the coefficients have the closed form

    beta_0 = phi_max^2 * (d + 1) / (3 * (d - 1))
    beta_r = (2 * phi_max^2 / (d - 1)^2) * e^(i pi r/d) * cos(pi r/d) / sin^2(pi r/d)

for r = 1 .. d-1.  Each nonzero-r coefficient factors as c_r * e^(i pi r/d)
with real c_r, positive for r below the midpoint (d + 1) / 2 and negative
from the midpoint upward, antisymmetric under r -> d - r.  The one-norm
leaves out the identity term beta_0, which only shifts the evolution by a
global phase, and needs no coefficient list: with x_r = pi r/d,

    sum_{r>=1} |beta_r| = phi_max^2 * 2 / (d - 1)^2 * sum_{r=1}^{d-1} |cos x_r| / sin^2 x_r,

which costmodel.clock_one_norm evaluates in O(1) without numpy, for the
report commands.  This module is the verify side: from (phi_max, d) it
builds plain numpy arrays, the d levels (level_array; the tests keep a
tuple-of-floats reference in tests/oracles.py) and the coefficients: the
closed form, which forms the real c_r first and beta_r from them, and an
independent discrete-Fourier-transform oracle, a numpy FFT of the squared
level array in O(d log d) (the tests certify the FFT against the direct
O(d^2) sum).  It also assembles the selection-oracle phase list from the c_r
signs, and holds the irreducibility floor, half the smallest exact |c_r|.
"""

from __future__ import annotations

import math

import numpy as np


def level_array(phi_max: float, d: int) -> np.ndarray:
    """The d field eigenvalues -phi_max + n * delta_phi, n = 0 .. d-1.

    delta_phi = 2 * phi_max / (d - 1).  numpy forms each eigenvalue by the
    same IEEE operations as that scalar expression, so they equal it bit
    for bit.
    """
    return -phi_max + np.arange(d) * (2.0 * phi_max / (d - 1))


def beta_closed_form(phi_max: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Expansion coefficients from the closed-form trigonometric expressions.

    Returns (betas, c_amps): all d complex coefficients beta_r, r = 0 .. d-1,
    and the real amplitudes c_r of r = 1 .. d-1 (c_amps[r - 1]).  The c_r
    come first and beta_r = c_r * e^(i pi r/d) from them, so c_amps needs
    no round trip through the complex phase.
    """
    p2 = phi_max**2
    x = np.pi * np.arange(1, d) / d
    c_amps = 2.0 * p2 / (d - 1) ** 2 * np.cos(x) / np.sin(x) ** 2
    betas = np.empty(d, dtype=complex)
    betas[0] = p2 * (d + 1) / (3.0 * (d - 1))
    betas[1:] = c_amps * np.exp(1j * x)
    return betas, c_amps


def beta_dft_oracle(lam_sq: np.ndarray) -> np.ndarray:
    """Expansion coefficients by a numerical Fourier transform of the squared levels.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as the FFT of
    lam_sq = level_array(phi_max, d) ** 2, O(d log d).  Verification oracle
    only: it shares no formula with the closed form.  np.fft is reached
    here, at call time, because numpy loads it lazily and the report
    commands never need it.
    """
    return np.fft.fft(lam_sq) / len(lam_sq)


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


def select_diag_phases(phi_max: float, c_amps: np.ndarray) -> np.ndarray:
    """Phases of the selection-oracle diagonal, one per level, d = len(c_amps) + 1.

    Level 0 carries phase 0; level r carries pi*r/d, shifted by pi wherever
    the real amplitude c_r is negative, so that e^(i theta_r) equals
    beta_r / |beta_r|.  All values lie in [0, 2*pi).

    Raises:
        ValueError: if any c_r sits at or below the irreducibility floor.
    """
    d = len(c_amps) + 1
    vanishing = np.flatnonzero(np.abs(c_amps) <= irreducibility_floor(phi_max, d))
    if vanishing.size:
        raise ValueError(
            f"coefficient c_{vanishing[0] + 1} vanishes; the expansion is not irreducible"
        )
    thetas = np.zeros(d)
    thetas[1:] = np.pi * np.arange(1, d) / d + np.where(c_amps < 0, np.pi, 0.0)
    return thetas % (2.0 * np.pi)
