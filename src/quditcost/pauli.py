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

and from d = ONE_NORM_CLOSED_FORM_D on that sum has an O(1) closed form
(see clock_one_norm), so a report row costs the same at every d.

The module also provides an independent discrete-Fourier-transform oracle,
a numpy FFT of the squared grid levels in O(d log d), used to cross-check
the closed form (the tests certify the FFT against the direct O(d^2) sum),
plus the selection-oracle phase list assembled from the coefficient signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FieldGrid, levels

# Smallest d at which clock_one_norm takes its closed form.  Below it the
# truncated trigamma series and Euler-Maclaurin tail lose digits (2.6e-14
# relative at d = 41), and the direct sum is cheap anyway.
ONE_NORM_CLOSED_FORM_D = 101


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


def clock_one_norm(phi_max: float, d: int) -> float:
    """One-norm sum_{r>=1} |beta_r| of the closed-form coefficients, O(1) in d.

    The weights are symmetric under r -> d - r, so the sum runs over the
    half x_r <= pi/2 and is doubled; above pi/2 the rounding of x_r near pi
    would cost sin x_r up to d * 1e-16 of relative accuracy.  Below
    ONE_NORM_CLOSED_FORM_D the half sum is one numpy reduction.  From there
    on, with h = pi/d, X = (d - 1) h / 2, s = sin X and c = cos X, the
    weight cos x / sin^2 x splits into 1/x^2 and an even smooth part f:

    * sum_{r<=(d-1)/2} 1/x_r^2 = (d/pi)^2 (pi^2/6 - psi'((d + 1)/2)), with
      the trigamma psi' from its asymptotic series (z >= 51);
    * f sums by Euler-Maclaurin to (1/X - 1/s)/h + (f(X) + 1/6)/2
      + (h/12) f1 - (h^3/720) f3 + (h^5/30240) f5, where fk is the k-th
      derivative of f at X; the odd derivatives vanish at 0, and
      f(0) = -1/6.

    Both forms lie within 5e-16 of a 40-digit sum.
    """
    if d < ONE_NORM_CLOSED_FORM_D:
        x = np.pi * np.arange(1, (d + 1) // 2) / d
        weights = float((np.cos(x) / np.sin(x) ** 2).sum())
    else:
        z = (d + 1) / 2
        w = 1.0 / (z * z)
        trigamma = 1 / z + w / 2 + w / z * (1 / 6 + w * (-1 / 30 + w * (1 / 42 - w / 30)))
        h = math.pi / d
        X = (d - 1) * h / 2
        s, c = math.sin(X), math.cos(X)
        f = c / s**2 - 1 / X**2
        f1 = 1 / s - 2 / s**3 + 2 / X**3
        f3 = -1 / s + 20 / s**3 - 24 / s**5 + 24 / X**5
        f5 = -719 / s + 1978 / s**3 - 1320 / s**5 - 720 * c**6 / s**7 + 720 / X**7
        weights = (d / math.pi) ** 2 * (math.pi**2 / 6 - trigamma) + (
            (1 / X - 1 / s) / h
            + (f + 1 / 6) / 2
            + h / 12 * f1
            - h**3 / 720 * f3
            + h**5 / 30240 * f5
        )
    return phi_max**2 * 4.0 / (d - 1) ** 2 * weights


def _expansion_from_betas(
    d: int, phi_max: float, betas: np.ndarray, lambda_norm: float
) -> PauliExpansion:
    """Derive the real-amplitude view from the coefficient array."""
    c_amps = (betas[1:] * np.exp(-1j * np.pi * np.arange(1, d) / d)).real
    return PauliExpansion(
        d=d, phi_max=phi_max, betas=betas, c_amps=c_amps, lambda_norm=lambda_norm
    )


def beta_closed_form(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients from the closed-form trigonometric expressions."""
    d = grid.d
    p2 = grid.phi_max**2
    x = np.pi * np.arange(1, d) / d
    betas = np.empty(d, dtype=complex)
    betas[0] = p2 * (d + 1) / (3.0 * (d - 1))
    betas[1:] = 2.0 * p2 / (d - 1) ** 2 * np.cos(x) / np.sin(x) ** 2 * np.exp(1j * x)
    return _expansion_from_betas(d, grid.phi_max, betas, clock_one_norm(grid.phi_max, d))


def beta_dft_oracle(grid: FieldGrid) -> PauliExpansion:
    """Expansion coefficients by a numerical Fourier transform of the eigenvalues.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as the FFT of
    the squared grid levels, O(d log d), and its one-norm as the sum of the
    moduli of those coefficients.  Verification oracle only: it shares no
    formula with the closed form.  np.fft is reached here, at call time,
    because numpy loads it lazily and the report commands never need it.
    """
    d = grid.d
    betas = np.fft.fft(np.asarray(levels(grid)) ** 2) / d
    return _expansion_from_betas(d, grid.phi_max, betas, float(np.abs(betas[1:]).sum()))


def irreducibility_floor(expansion: PauliExpansion) -> float:
    """Amplitude at or below which a coefficient counts as vanishing.

    Half the smallest exact |c_r|, which sits at r = (d - 1) / 2:
    2 phi_max^2 / (d - 1)^2 * sin(y) / cos^2(y) with y = pi / (2d), about
    pi phi_max^2 / d^3.  The computed c_r near that r carry a relative
    rounding error of order d * 1e-16, far below one half, so correct
    coefficients pass at every d, while a zero field (floor 0) fails.
    """
    d = expansion.d
    y = math.pi / (2 * d)
    return expansion.phi_max**2 / (d - 1) ** 2 * math.sin(y) / math.cos(y) ** 2


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
    vanishing = np.flatnonzero(np.abs(c) <= irreducibility_floor(expansion))
    if vanishing.size:
        raise ValueError(
            f"coefficient c_{vanishing[0] + 1} vanishes; the expansion is not irreducible"
        )
    thetas = np.zeros(d)
    thetas[1:] = np.pi * np.arange(1, d) / d + np.where(c < 0, np.pi, 0.0)
    return thetas % (2.0 * np.pi)
