"""Every cost the report commands print, from the synthesis model to the rows.

Cost chain, identical for both block encodings: the coefficient one-norm
alpha fixes the query count Q = alpha * t + log2(1 / eps_sim); the per-call
accuracy budget is eps_be = eps_sim / Q; the per-call non-Clifford count
evaluated at that budget, times Q, gives the total.  The ratio of the two
totals exceeds one exactly when the d-level route is cheaper, and the
saving divided by (qudit queries * switches per query) bounds the
affordable per-switch conversion overhead.  A report is one pass over its
dimensions: it checks ds first (_dimensions), then its scalar inputs once,
then each row checks d once, through register_width, and evaluates each
formula it prints once.  The qudit alpha is the clock-power one-norm
(clock_one_norm), O(1) in d.  Every pass prices each of its d from
scratch, and the module keeps no state between passes.
Like everything the report commands import, the module is stdlib only.

The field grid, d = 2M + 1 levels spaced delta_phi = 2 phi_max / (d - 1) on
[-phi_max, +phi_max], is fixed by (phi_max, d); register_width and
check_phi_max are the checks of those two numbers that every module uses.
"""

import math
import operator
import sys
from typing import Callable, Iterable, NamedTuple

# Largest local dimension: the coefficient scale 2 phi_max^2 / (d - 1)^2
# needs (d - 1)^2 as a finite float.  It is about 1.3e154.
MAX_D = math.isqrt(int(sys.float_info.max)) + 1

# Smallest accuracy budget a cost takes log2 of: the step accuracy eps of
# a product formula or the per-call budget eps_sim / Q of a block
# encoding.  Above it the reciprocal 9 pi^2 / (2 eps) of the qubit
# preparation stays finite.
MIN_CALL_BUDGET = 1e-300

# Smallest share of a budget split uniformly over L synthesized rotations:
# the smallest normal float.  At or above it the share keeps full
# precision, and the reciprocals 1 / delta and L / budget that rz_cost and
# break_even take log2 of stay finite, for every L.
MIN_ROTATION_BUDGET = sys.float_info.min

# Smallest d at which clock_one_norm takes its series in 1/d.  Below it the
# first omitted term grows fast (2.5e-16 relative at d = 41), and the
# direct sum is cheap anyway.
ONE_NORM_SERIES_D = 101

# 9 pi^2 / 2, over the per-call budget, in the qubit precision parameter b_r
NINE_PI_SQUARED = 9.0 * math.pi**2

# g_10 .. g_0 of g(u) = sum_k g_k u^k, the one-norm weight 4 W / (d - 1)^2
# at u = 1/d (clock_one_norm), highest power first for Horner's rule.  Each
# is the double nearest the 40-digit coefficient; tests/oracles.py derives them.
ONE_NORM_SERIES = (
    -20.613750380679466, -8.77757618696035, 3.0585980067587673, 1.1698198066132062,
    -0.7189583935323552, -0.21569284397153743, 0.28757270558928033, 0.03721347472614415,
    -0.21314575613699205, 0.06009378859817065, 2 / 3,
)

# W(3), W(5), .., W(99): the half sum W(d) = sum_{r=1}^{(d-1)/2} cos x_r / sin^2 x_r,
# x_r = pi r/d, of each odd d below ONE_NORM_SERIES_D (clock_one_norm), at
# index d // 2 - 1.  Each is the float of the numpy sum the outputs were first
# computed with; tests/test_pauli.py derives and checks them.
ONE_NORM_HALF_SUMS = (
    0.666666666666667, 2.683281572999748, 6.040013498471556, 10.732839803366966,
    16.76035322091247, 24.121956489396062, 32.8173566309718, 42.846393981434666,
    54.208974389386086, 66.90503884274385, 80.93454851571632, 96.29747683584692,
    112.99380501250815, 131.02351938712897, 150.38660979557253, 171.08306851917976,
    193.11288959184105, 216.47606832980597, 241.17260100502386, 267.20248461341527,
    294.56571670739964, 323.26229527282334, 353.2922186371464, 384.6554854000046,
    417.35209438003926, 451.3820445737157, 486.7453351230932, 523.4419652903567,
    561.4719344375125, 600.8352420100643, 641.5318875237922, 683.561870553964,
    726.9251907264755, 771.6218477105276, 817.6518412125374, 865.0151709710497,
    913.7118367524604, 963.7418383474042, 1015.1051755676929, 1067.8018482437021,
    1121.8318562221389, 1177.1951993641235, 1233.8918775435336, 1291.9218906455728,
    1351.2852385655276, 1411.981921207685, 1474.0119384843838, 1537.375290315189,
    1602.071976626158,
)


def _index(d) -> int:
    """d as an int (operator.index); a TypeError names any other d, such as 3.0."""
    try:
        return operator.index(d)
    except TypeError:
        raise TypeError(f"d must be an integer, got {d!r}") from None


def _dimensions(ds: Iterable[int]) -> range | tuple[int, ...]:
    """A pass's ds: a range, whose last d past MAX_D raises before any row, or else a tuple of _index(d)."""
    if not isinstance(ds, range):
        return tuple(map(_index, ds))
    if ds and ds[-1] > MAX_D:
        register_width(ds[-1])
    return ds


def register_width(d: int) -> int:
    """Qubit register width n_b = ceil(log2 d) covering d levels.

    The one check of the local dimension that every module relies on.

    Raises:
        TypeError: unless d is an integer (_index), such as 3.0.
        ValueError: unless d is odd, at least 3 and at most MAX_D.
    """
    # an int skips the call: every report checks each of its d here
    if d.__class__ is not int:
        d = _index(d)
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


class _SynthesisFields(NamedTuple):
    rz_slope: float
    rz_intercept: float


class SynthesisModel(_SynthesisFields):
    """Per-rotation non-Clifford synthesis cost parameters.

    A qubit Z rotation synthesized to accuracy delta costs
    rz_slope * log2(1/delta) + rz_intercept non-Clifford gates.  Both must
    be finite, nonnegative and not both zero, so that every rotation costs
    more than nothing; _make checks this, and __new__ and _replace build
    through it.  The d-level routes are priced by their break-even
    prefactors instead, which need no model parameter.
    """

    __slots__ = ()

    # a NamedTuple class may not define __new__, so the fields sit on a base
    def __new__(cls, rz_slope: float = 0.57, rz_intercept: float = 8.83) -> "SynthesisModel":
        return cls._make((rz_slope, rz_intercept))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "SynthesisModel":
        self = super()._make(iterable)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.rz_slope == 0 and self.rz_intercept == 0:
            raise ValueError("rz_slope and rz_intercept are both zero: rotations would cost nothing")
        return self


DEFAULT_MODEL = SynthesisModel()


def rz_cost(budget: float, rotations: int, d: int, model: SynthesisModel = DEFAULT_MODEL) -> float:
    """Synthesis cost of each of the qubit Z rotations that split an accuracy budget uniformly.

    Each rotation is synthesized to accuracy budget / rotations.  d is the
    local dimension the rotation count belongs to; the error names it.

    Raises:
        ValueError: if the share is below MIN_ROTATION_BUDGET, or not below 1.
    """
    delta = budget / rotations
    if delta < MIN_ROTATION_BUDGET:
        raise ValueError(
            f"d={d} is too large for the accuracy budget {budget:.6g}: split over "
            f"{rotations} rotations it leaves {delta!r} per rotation, below the "
            f"smallest normal float {MIN_ROTATION_BUDGET!r}"
        )
    if not delta < 1.0:
        raise ValueError(
            f"synthesis accuracy must lie in [{MIN_ROTATION_BUDGET:.3g}, 1), got {delta}"
        )
    return model.rz_slope * math.log2(1.0 / delta) + model.rz_intercept


def check_finite(d: int, t: float | None, eps: float, *values: float) -> None:
    """Raise ValueError naming d, t and the accuracy eps unless every value is finite.

    Cost totals and break-even terms are float products, which overflow to
    inf rather than raise.  t is None for a product-formula step.
    """
    if not all(map(math.isfinite, values)):
        inputs = f"d={d} and eps={eps}" if t is None else f"d={d}, t={t} and eps_sim={eps}"
        raise ValueError(f"the cost at {inputs} overflows a float")


def break_even(
    qubit_cost: float,
    queries: float,
    rotations: int,
    budget: float,
    d: int,
    t: float | None,
    eps: float,
    model: SynthesisModel = DEFAULT_MODEL,
) -> tuple[float, float]:
    """Break-even synthesis prefactors (a_max, a_rz) of the d-level route.

    The d-level route makes `queries` calls of `rotations` embedded
    rotations each and splits the accuracy `budget` of a call uniformly,
    so it costs queries * rotations * a * log2(rotations / budget) at
    prefactor a.  a_max is the prefactor at which that equals qubit_cost;
    a_rz is the effective prefactor of qubit Z-rotation synthesis at the
    same primitive precision budget / rotations.  a_max > a_rz means the
    d-level route tolerates synthesis no better than the qubit baseline.
    The rotations belong to dimension d; t and eps are the row's evolution
    time and accuracy, which an overflow error names with d.
    """
    rz = rz_cost(budget, rotations, d, model)
    log_term = math.log2(rotations / budget)
    denominator = queries * rotations * log_term
    # the sum is finite if all three are; check_finite lets three finite terms whose sum overflows pass
    if not math.isfinite(qubit_cost + denominator + rz):
        check_finite(d, t, eps, qubit_cost, denominator, rz)
    return qubit_cost / denominator, rz / log_term


class PfRow(NamedTuple):
    """One pf-thresholds row: break-even prefactors of the native step."""

    d: int
    a_max_pf: float
    a_rz_pf: float
    favorable: bool


def pf_thresholds(
    ds: Iterable[int], eps: float, model: SynthesisModel = DEFAULT_MODEL, row: Callable = PfRow
) -> list:
    """Product-formula break-even prefactors at step accuracy eps, one row per d in ds.

    One step of each route is one query: the d - 1 rotation native step
    against the n_b (n_b + 1) / 2 rotation binary-register step, both
    under uniform per-rotation error allocation.  favorable is
    a_max_pf > a_rz_pf.  Each row is row(d, a_max_pf, a_rz_pf, favorable),
    with d an int.  It checks ds first (_dimensions), then eps.
    """
    ds = _dimensions(ds)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"target accuracy must lie in (0, 1), got {eps}")
    if eps < MIN_CALL_BUDGET:
        raise ValueError(f"target accuracy eps={eps} is below {MIN_CALL_BUDGET:g}")
    rows = []
    for d in ds:
        n_b = register_width(d)
        l_qb = n_b * (n_b + 1) // 2
        qubit_cost = l_qb * rz_cost(eps, l_qb, d, model)
        a_max, a_rz = break_even(qubit_cost, 1, d - 1, eps, d, None, eps, model)
        rows.append(row(d, a_max, a_rz, a_max > a_rz))
    return rows


def clock_one_norm(phi_max: float, d: int) -> float:
    """One-norm sum_{r>=1} |beta_r| of the clock-power coefficients, O(1) in d.

    The nonzero-r coefficients (simverify.beta_closed_form) have moduli
    2 phi_max^2 / (d - 1)^2 |cos x_r| / sin^2 x_r with x_r = pi r/d.  These
    weights are symmetric under r -> d - r, so the sum runs over the half
    x_r <= pi/2 and is doubled; above pi/2 the rounding of x_r near pi
    would cost sin x_r up to d * 1e-16 of relative accuracy.  Below
    ONE_NORM_SERIES_D the half sum W of an odd d (register_width) is the
    literal ONE_NORM_HALF_SUMS[d // 2 - 1], so no platform sin or cos runs.
    From there on the one-norm is phi_max^2 g(1/d),
    with g(u) = 4 W / (d - 1)^2 = sum_{k=0}^{10} g_k u^k (ONE_NORM_SERIES)
    by Horner's rule.  g is the asymptotic expansion of W, re-expanded in
    u = 1/d: with h = pi/d and X = (d - 1) h / 2, the weight cos x / sin^2 x
    splits into 1/x^2 and an even smooth part f, f(0) = -1/6, and

    * sum_{r<=(d-1)/2} 1/x_r^2 = (d/pi)^2 (pi^2/6 - psi'((d + 1)/2)), with
      the trigamma psi'(z) = 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1);
    * f sums by Euler-Maclaurin to (1/X - 1/sin X)/h + (f(X) + 1/6)/2
      + sum_k B_2k / (2k)! h^(2k-1) f^(2k-1)(X), as odd derivatives vanish at 0.

    The Bernoulli term k first enters at u^(2k+1), so B_2 .. B_8 fix
    g_0 .. g_10.  The first omitted term, g_11 = 93.06 at u^11, is 1.3e-20
    relative at d = 101 and falls with d.  No intermediate lies below
    phi_max^2, so no scale (d - 1)^-2 underflows near MAX_D.  Below 101 the
    omitted term grows fast (2.5e-16 relative at d = 41), and the half sums
    keep the bits the outputs were first computed with.  The series lies
    within 2.4e-16 of a 40-digit sum, the half sums within 5e-16.

    Raises:
        TypeError, ValueError: as register_width(d), for any d it refuses.
    """
    # a checked int skips the call: each report row checks its d once, in _query_counts
    if not (d.__class__ is int and d % 2 and 3 <= d <= MAX_D):
        register_width(d)
    if d < ONE_NORM_SERIES_D:
        return phi_max**2 * 4.0 / (d - 1) ** 2 * ONE_NORM_HALF_SUMS[d // 2 - 1]
    u = 1 / d
    g10, g9, g8, g7, g6, g5, g4, g3, g2, g1, g0 = ONE_NORM_SERIES
    g = ((((g10 * u + g9) * u + g8) * u + g7) * u + g6) * u + g5
    return phi_max**2 * (((((g * u + g4) * u + g3) * u + g2) * u + g1) * u + g0)


def _log_term(phi_max: float, t: float, eps_sim: float) -> float:
    """log2(1 / eps_sim), once the inputs that every block-encoding row shares are checked."""
    check_phi_max(phi_max)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time t must be finite and nonnegative, got {t}")
    if not 0.0 < eps_sim < 1.0:
        raise ValueError(f"simulation accuracy eps_sim must lie in (0, 1), got {eps_sim}")
    return math.log2(1.0 / eps_sim)


def _query_counts(phi_max: float, d: int, t: float, eps_sim: float, log_term: float) -> tuple:
    """Both block-encoding chains at d up to their query counts, after _log_term.

    Returns (n_b, alpha_qb, q_qb, per_call_qb, t_tot_qb, alpha_qd, q_qd).
    The normalizations are delta_phi^2 (2^(n_b-1) - 1)^2 for the qubit
    route and clock_one_norm for the qudit route, with
    delta_phi = 2 phi_max / (d - 1).  Q = alpha t + log2(1 / eps_sim) is a
    real number, and it must leave a per-call budget eps_sim / Q below 1
    and not below MIN_CALL_BUDGET.  One qubit call costs 32 b_r + 24 n_b
    - 116 T gates at b_r = ceil(0.5 log2(9 pi^2 / (2 eps_sim / Q))): each
    preparation direction (paid twice) 4 b_r + 2 n_b - 16 Toffolis, the
    selector 2 (n_b - 1) Toffolis, 4 T per Toffoli, plus 20 direct T gates.
    """
    n_b = register_width(d)
    alpha_qb = (2.0 * phi_max / (d - 1)) ** 2 * (2 ** (n_b - 1) - 1) ** 2
    alpha_qd = clock_one_norm(phi_max, d)
    q_qb = alpha_qb * t + log_term
    q_qd = alpha_qd * t + log_term
    for q in (q_qb, q_qd):
        if q <= eps_sim:
            raise ValueError(
                f"eps_sim={eps_sim} is too large: the per-call budget eps_sim/Q "
                f"with Q={q:.6g} queries is not below 1"
            )
        if eps_sim / q < MIN_CALL_BUDGET:
            raise ValueError(
                f"per-call budget eps_sim/Q below {MIN_CALL_BUDGET:g}: evolution time "
                f"t={t} and eps_sim={eps_sim} give Q={q:.6g} queries"
            )
    b_r = math.ceil(0.5 * math.log2(NINE_PI_SQUARED / (2.0 * (eps_sim / q_qb))))
    per_call_qb = float(32 * b_r + 24 * n_b - 116)
    return n_b, alpha_qb, q_qb, per_call_qb, q_qb * per_call_qb, alpha_qd, q_qd


class ResourceReport(NamedTuple):
    """One scan-ratio row: side-by-side costs for one local dimension."""

    d: int
    n_b: int
    alpha_qb: float
    alpha_qd: float
    q_qb: float
    q_qd: float
    per_call_qb: float
    per_call_qd: float
    t_tot_qb: float
    t_tot_qd: float
    ratio: float
    delta_tot: float
    budget_per_switch: float


def ratio_and_budget(
    phi_max: float,
    ds: Iterable[int],
    t: float,
    eps_sim: float,
    k: int = 2,
    model: SynthesisModel = DEFAULT_MODEL,
    row: Callable = ResourceReport,
) -> list:
    """Totals, ratio, absolute saving and per-switch budget, one row per d in ds.

    The hybrid d-level call pairs binary-register preparation with the
    d-level selection.  Per call: L * (synthesis cost at eps_sim / (Q L))
    + 4 n_b direct T gates (the comparator of the selection's sign flip),
    with L = 2 (2^n_b - 1) + n_b synthesized rotations: both preparation
    directions (2^n_b - 1 each) plus the n_b rotations of the selection's
    clock-phase ladder.  k is the number of directional encoding switches
    per query (two for the hybrid round trip), an integer from 1 to the
    largest float.  The switch count Q_qd * k must be a finite float, or
    the budget would read 0; the budget, like the totals, must be finite.
    ratio > 1, delta_tot > 0 and a positive budget each say that the
    d-level route is cheaper.  Each row is
    row(*columns), in the order of ResourceReport.  It checks ds first
    (_dimensions), then k, then phi_max, t and eps_sim.
    """
    ds = _dimensions(ds)
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"switch count k must be an integer, got {k!r}") from None
    # past the float range k converts to no float, and its digits may be too many to print
    if abs(k) > sys.float_info.max:
        raise ValueError(f"switch count k has {k.bit_length()} bits, past the largest float {sys.float_info.max:.6g}")
    if k < 1:
        raise ValueError(f"switch count must be at least 1, got {k}")
    log_term = _log_term(phi_max, t, eps_sim)
    rows = []
    for d in ds:
        n_b, alpha_qb, q_qb, per_call_qb, total_qb, alpha_qd, q_qd = _query_counts(phi_max, d, t, eps_sim, log_term)
        rotations = 2 * (2**n_b - 1) + n_b
        per_call_qd = rotations * rz_cost(eps_sim / q_qd, rotations, d, model) + 4 * n_b
        total_qd = q_qd * per_call_qd
        delta = total_qb - total_qd
        switches = q_qd * k
        if not math.isfinite(switches):
            raise ValueError(f"k={k:.6g} is too large: the {q_qd:.6g} queries at d={d} make {switches} switches")
        budget = delta / switches
        # finite only if both totals are: an infinite total makes delta infinite or nan
        if not math.isfinite(budget):
            check_finite(d, t, eps_sim, budget)
        rows.append(row(
            d, n_b, alpha_qb, alpha_qd, q_qb, q_qd, per_call_qb, per_call_qd,
            total_qb, total_qd, total_qb / total_qd, delta, budget,
        ))
    return rows


class LcuRow(NamedTuple):
    """One lcu-table row: break-even prefactors of the fixed encoding."""

    d: int
    a_max_lcu: float
    a_rz_lcu: float


def lcu_fixed_encoding_thresholds(
    phi_max: float,
    ds: Iterable[int],
    t: float,
    eps_sim: float,
    model: SynthesisModel = DEFAULT_MODEL,
    row: Callable = LcuRow,
) -> list:
    """Fixed-encoding break-even prefactors for the block-encoding route, one row per d in ds.

    The qubit total against Q_qd queries of the fixed encoding, which
    splits the per-call budget eps_sim / Q_qd uniformly over 3d - 3
    rotations: one selection bound of d - 1 plus two preparations of
    d - 1 each.  The bound holds even where the realized selection count
    (simverify.select_nontrivial_count) is smaller; no hybrid call is priced.
    Each row is row(d, a_max_lcu, a_rz_lcu).  It checks ds first (_dimensions).
    """
    ds = _dimensions(ds)
    log_term = _log_term(phi_max, t, eps_sim)
    rows = []
    for d in ds:
        _, _, _, _, total_qb, _, q_qd = _query_counts(phi_max, d, t, eps_sim, log_term)
        rows.append(row(d, *break_even(total_qb, q_qd, 3 * d - 3, eps_sim / q_qd, d, t, eps_sim, model)))
    return rows
