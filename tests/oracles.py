"""Paper constructions that certify the counts the tool prints.

No command builds these circuits; the tests build them and check them
against dense or direct evaluation, which certifies the rotation counts
that the library uses as closed forms:

* the binary-register product-formula step, whose Z / ZZ term count is
  the n_b (n_b + 1) / 2 of `pf_thresholds`;
* the grid levels as a tuple of Python floats (`levels`), and their mean
  square by direct summation (`squared_mean`), the references for
  `pauli.level_array` and for the integer closed form of
  `trotter.qudit_trotter_angles`;
* the centered partial sums behind the native step angles, nonzero for
  every admissible k;
* the clock-phase ladder of the d-level selection oracle, the n_b
  rotations inside the hybrid per-call count;
* the direct O(d^2) Fourier sum of the squared grid levels, which
  certifies the FFT coefficient oracle `pauli.beta_dft_oracle`;
* trial division, which certifies the Miller-Rabin test `cli.is_prime`
  that `--primes` scans use;
* the bit-pair projector sum over every (r, s) pair, one register string
  at a time, which certifies the quadratic form of
  `lcu.qubit_projector_diag_oracle`.

Angle convention as in `quditcost.trotter`: R_z(theta) = exp(-i theta Z / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from quditcost.grid import FieldGrid, register_width
from quditcost.pauli import level_array


def levels(grid: FieldGrid) -> tuple[float, ...]:
    """The d field eigenvalues of pauli.level_array, as Python floats."""
    return tuple(level_array(grid).tolist())


def squared_mean(grid: FieldGrid) -> float:
    """Mean of the squared eigenvalues, (1/d) * sum_n lambda_n^2, by direct summation.

    For the symmetric grid this equals phi_max^2 * (d + 1) / (3 * (d - 1)).
    """
    return sum(lam * lam for lam in levels(grid)) / grid.d


@dataclass(frozen=True)
class QubitTrotterExpansion:
    """Commuting Z / ZZ rotation terms of one binary-register step.

    p_shift and q_scale are the affine coefficients of the bit expansion
    phi = p_shift + q_scale * sum_m 2^m Z_m; identity_coefficient collects
    the constant part of the squared operator (it contributes only a
    global phase).  Angles already include the evolution time.
    """

    n_b: int
    t: float
    p_shift: float
    q_scale: float
    identity_coefficient: float
    linear_terms: tuple[tuple[int, float], ...]
    quad_terms: tuple[tuple[int, int, float], ...]

    @property
    def rz_count(self) -> int:
        return len(self.linear_terms) + len(self.quad_terms)

    def diagonal_phase(self, index: int) -> float:
        """Phase exponent of the step on |index>; the eigenvalue is exp(i * phase)."""
        z = [1 - 2 * ((index >> m) & 1) for m in range(self.n_b)]
        phase = -self.t * self.identity_coefficient
        for m, angle in self.linear_terms:
            phase -= 0.5 * angle * z[m]
        for m, mp, angle in self.quad_terms:
            phase -= 0.5 * angle * z[m] * z[mp]
        return phase


def qubit_trotter_terms(grid: FieldGrid, t: float) -> QubitTrotterExpansion:
    """Z and ZZ rotation terms implementing one binary-register step.

    The linear term on qubit m carries angle 2t * (2 P Q) * 2^m; the cross
    term on the pair (m, m') carries angle 2t * Q^2 * 2^(m + m') * 2, the
    trailing factor coming from the symmetric double sum over m != m'.
    """
    n_b = grid.n_b
    p = -grid.phi_max + 0.5 * grid.delta_phi * (2**n_b - 1)
    q = -0.5 * grid.delta_phi
    linear = tuple((m, 2.0 * t * (2.0 * p * q) * 2**m) for m in range(n_b))
    quad = tuple(
        (m, mp, 2.0 * t * q * q * 2 ** (m + mp) * 2.0)
        for m in range(n_b)
        for mp in range(m + 1, n_b)
    )
    identity = p * p + q * q * sum(4**m for m in range(n_b))
    return QubitTrotterExpansion(
        n_b=n_b,
        t=t,
        p_shift=p,
        q_scale=q,
        identity_coefficient=identity,
        linear_terms=linear,
        quad_terms=quad,
    )


def centered_partial_sum(grid: FieldGrid, k: int) -> float:
    """Closed form of sum_{n<=k} (lambda_n^2 - mu) on the symmetric grid.

    Equals phi_max^2 * (4 (k+1) / (3 (d-1)^2)) * (k - (d-2)/2) * (k - (d-1)).
    Because (d - 2) / 2 is a half-integer for odd d, the value is nonzero
    for every admissible k, which is what keeps all schedule angles
    nontrivial at generic t.
    """
    d = grid.d
    if not 0 <= k <= d - 2:
        raise ValueError(f"partial-sum index k={k} outside [0, {d - 2}]")
    return (
        grid.phi_max**2
        * (4.0 * (k + 1) / (3.0 * (d - 1) ** 2))
        * (k - (d - 2) / 2.0)
        * (k - (d - 1))
    )


def dclock_angles(d: int) -> list[tuple[int, float]]:
    """Single-qubit phase coefficients realizing diag(e^(i pi r / d)) up to global phase.

    Each pair (m, a_m) encodes the factor exp(i * a_m * Z_m) on index qubit
    m, with a_m = -pi * 2^m / (2 d).
    """
    n_b = register_width(d)
    return [(m, -math.pi * 2**m / (2.0 * d)) for m in range(n_b)]


def dclock_realized_phases(d: int) -> list[float]:
    """Phase exponent accumulated by the clock ladder on each index state.

    Relative to index 0 the exponent on |r> is pi * r / d for every
    r in [0, 2^n_b); the common offset is the discarded global phase.
    """
    angles = dclock_angles(d)
    out = []
    for r in range(2 ** len(angles)):
        out.append(sum(a * (1 - 2 * ((r >> m) & 1)) for m, a in angles))
    return out


def direct_dft_coefficients(grid: FieldGrid) -> np.ndarray:
    """beta_r = (1/d) * sum_n lambda_n^2 * omega^(-r n) as an explicit matrix-vector sum.

    O(d^2) time and memory.  The exponent r n is reduced mod d in integers
    first, so every kernel entry is e^(-2 pi i j/d) with 0 <= j < d.
    """
    d = grid.d
    indices = np.arange(d)
    kernel = np.exp(-2j * np.pi * (np.outer(indices, indices) % d) / d)
    return kernel @ (level_array(grid) ** 2) / d


def is_prime_trial_division(n: int) -> bool:
    """Primality by trial division with every odd factor up to sqrt(n); O(sqrt(n))."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def projector_pair_sum(grid: FieldGrid) -> list[float]:
    """delta_phi^2 * sum_{r,s} 2^(r+s) * l_r * l_s per register string, pair by pair."""
    n_b = grid.n_b
    dphi2 = grid.delta_phi**2
    values = []
    for v in range(2**n_b):
        bits = [(v >> r) & 1 for r in range(n_b - 1)]
        acc = 0
        for r in range(n_b - 1):
            for s in range(n_b - 1):
                acc += (1 << (r + s)) * bits[r] * bits[s]
        values.append(dphi2 * acc)
    return values
