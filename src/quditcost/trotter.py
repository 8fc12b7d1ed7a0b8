"""Single-step product-formula circuits for the diagonal evolution exp(-i t phi^2).

Two constructions at matched accuracy:

* binary register: writing phi = P + Q * sum_m 2^m Z_m turns the squared
  operator into commuting one-qubit Z and two-qubit ZZ rotations,
  n_b * (n_b + 1) / 2 synthesized rotations in total;
* native d-level system: the diagonal factors into d - 1 rotations on
  adjacent level pairs, with angles given by twice the centered partial
  sums of the squared eigenvalues.

Rotation angle conventions are fixed here once (R_z(theta) = exp(-i theta Z / 2),
so theta = 2 * coefficient * t) and validated against the dense simulation
oracle rather than by convention agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .grid import FieldGrid, squared_mean

AXES = ("X", "Y", "Z")

# Two-level rotations are 4*pi periodic; triviality is membership of the
# angle in 4*pi*Z within this tolerance.
ANGLE_PERIOD = 4.0 * math.pi
TRIVIAL_ANGLE_TOL = 1e-10


def is_trivial_angle(angle: float, tol: float = TRIVIAL_ANGLE_TOL) -> bool:
    """True when the rotation is the identity, i.e. angle = 0 mod 4*pi."""
    return abs(math.remainder(angle, ANGLE_PERIOD)) <= tol


def reduce_angle(angle: float) -> float:
    """Canonical mod-4*pi representative in (-2*pi, 2*pi]."""
    r = math.remainder(angle, ANGLE_PERIOD)
    if r <= -2.0 * math.pi:
        r += ANGLE_PERIOD
    return r


@dataclass(frozen=True)
class Rotation:
    """One embedded two-level rotation: exp(-i * angle / 2 * G) on levels (b, c)."""

    axis: str
    levels: tuple[int, int]
    angle: float


@dataclass(frozen=True)
class RotationSchedule:
    """Ordered list of embedded two-level rotations plus a global phase.

    The represented unitary is e^(i * global_phase) times the product of
    the rotations, applied to states in sequence order (rotations[0] first).
    """

    dim: int
    rotations: tuple[Rotation, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        for rot in self.rotations:
            if rot.axis not in AXES:
                raise ValueError(f"unknown rotation axis {rot.axis!r}")
            b, c = rot.levels
            if not 0 <= b < c < self.dim:
                raise ValueError(
                    f"level pair {rot.levels} invalid for dimension {self.dim}"
                )

    @cached_property
    def nontrivial_count(self) -> int:
        """Number of rotations whose angle is not 0 mod 4*pi."""
        return sum(1 for rot in self.rotations if not is_trivial_angle(rot.angle))


def rz_rotation_count(n_b: int) -> int:
    """Synthesized rotations in one binary-register step: n_b * (n_b + 1) / 2."""
    if n_b < 1:
        raise ValueError(f"register width must be positive, got {n_b}")
    return n_b * (n_b + 1) // 2


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


def qudit_trotter_angles(grid: FieldGrid, t: float) -> RotationSchedule:
    """Adjacent-pair Z rotation schedule for one native d-level step.

    Angles are twice the running centered partial sums
    theta_k = 2 * sum_{n<=k} (t * lambda_n^2 - t * mu), reduced to
    (-2*pi, 2*pi]; the recorded global phase is -t * mu, so that
    e^(i * global_phase) times the rotation product equals
    diag(e^(-i t lambda_n^2)) exactly.
    """
    mu = squared_mean(grid)
    rotations = []
    acc = 0.0
    for k in range(grid.d - 1):
        acc += t * grid.lambdas[k] ** 2 - t * mu
        rotations.append(Rotation("Z", (k, k + 1), reduce_angle(2.0 * acc)))
    return RotationSchedule(
        dim=grid.d, rotations=tuple(rotations), global_phase=-t * mu
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
