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
report commands.  This module is the verify side.  Its builders are
elementwise numpy formulas over broadcastable d and level index n, so one
call covers the levels n = 0 .. d-1 of one d or of several d back to back
(simverify runs blocks of d that way): the levels (level_array; the tests
keep a tuple-of-floats reference in tests/oracles.py), the closed-form
coefficients, which form the real c_n first and beta_n from them, the
selection-oracle phases from the c_n signs, and the irreducibility floor,
half the smallest exact |c_r|.  The independent discrete-Fourier-transform
oracle is a numpy FFT of one d's squared levels in O(d log d) (the tests
certify the FFT against the direct O(d^2) sum).
"""

from __future__ import annotations

import numpy as np


def level_array(phi_max: float, d, n) -> np.ndarray:
    """The field eigenvalues -phi_max + n * delta_phi at the level indices n.

    delta_phi = 2 * phi_max / (d - 1); d and n broadcast, so one call covers
    the levels n = 0 .. d-1 of one d or of several back to back.  numpy forms
    each eigenvalue by the same IEEE operations as that scalar expression, so
    they equal it bit for bit.
    """
    return -phi_max + n * (2.0 * phi_max / (d - 1))


def beta_closed_form(phi_max: float, d, n) -> tuple[np.ndarray, np.ndarray]:
    """Expansion coefficients from the closed-form trigonometric expressions.

    Returns (betas, c_amps) at the indices n, elementwise over broadcastable
    d and n (n = 0 .. d-1 for all d coefficients of one d): the complex
    beta_n and the real amplitudes c_n with beta_n = c_n * e^(i pi n/d).
    The c_n come first and beta_n from them, so c_amps needs no round trip
    through the complex phase.  At n = 0 both are beta_0, which is real.
    """
    p2 = phi_max**2
    x = np.pi * n / d
    nonzero = n > 0
    # as for a Python float, an overflowing beta_0 is inf without a warning
    with np.errstate(over="ignore"):
        c_amps = np.full(np.shape(n), p2 * (d + 1) / (3.0 * (d - 1)))
    cos, sin = np.cos(x), np.sin(x)
    np.divide(2.0 * p2 / (d - 1) ** 2 * cos, sin**2, out=c_amps, where=nonzero)
    # c_n e^(i x) from the same cosine and sine: numpy's complex exp gives
    # them bit for bit, and the real factor needs no complex product
    betas = c_amps.astype(complex)
    np.multiply(c_amps, cos, out=betas.real, where=nonzero)
    np.multiply(c_amps, sin, out=betas.imag, where=nonzero)
    return betas, c_amps


def beta_dft_oracle(lam_sq: np.ndarray) -> np.ndarray:
    """Expansion coefficients by a numerical Fourier transform of the squared levels.

    Computes beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as the FFT of
    the d squared levels lam_sq of one d, O(d log d).  Verification oracle
    only: it shares no formula with the closed form.  np.fft is reached
    here, at call time, because numpy loads it lazily and the report
    commands never need it.
    """
    return np.fft.fft(lam_sq) / len(lam_sq)


def irreducibility_floor(phi_max: float, d):
    """Amplitude at or below which a coefficient counts as vanishing, elementwise over d.

    Half the smallest exact |c_r|, which sits at r = (d - 1) / 2:
    2 phi_max^2 / (d - 1)^2 * sin(y) / cos^2(y) with y = pi / (2d), about
    pi phi_max^2 / d^3.  The computed c_r near that r carry a relative
    rounding error of order d * 1e-16, far below one half, so correct
    coefficients pass at every d, while a zero field (floor 0) fails.
    """
    y = np.pi / (2 * d)
    return phi_max**2 / (d - 1) ** 2 * np.sin(y) / np.cos(y) ** 2


def select_diag_phases(floor, d, n, c_amps: np.ndarray) -> np.ndarray:
    """Phases of the selection-oracle diagonal at the levels n, elementwise over floor, d, n and c_amps.

    Level 0 carries phase 0; level n carries pi*n/d, shifted by pi wherever
    the real amplitude c_n (beta_closed_form) is negative, so that
    e^(i theta_n) equals beta_n / |beta_n|.  As pi*n/d < pi for n < d, every
    value lies in [0, 2*pi) without a reduction.  floor is the
    irreducibility floor of each level's d, which depends on d alone.

    Raises:
        ValueError: if any c_n with n > 0 sits at or below its floor; the
            first such n is named, with its d.
    """
    vanishing = np.flatnonzero((np.abs(c_amps) <= floor) & (n > 0))
    if vanishing.size:
        j = vanishing[0]
        raise ValueError(
            f"coefficient c_{n[j]} vanishes at d={np.broadcast_to(d, np.shape(n))[j]}; "
            "the expansion is not irreducible"
        )
    return np.pi * n / d + np.where(c_amps < 0, np.pi, 0.0)
