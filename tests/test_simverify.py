import itertools
import math

import numpy as np
import pytest
from oracles import per_dimension_run_suites

from quditcost import simverify
from quditcost.simverify import (
    fan_state,
    ladder_diagonal,
    phase_error,
    run_suites,
)


def odd(cap):
    """The odd d from 3 to cap, the range that `verify` passes for a cap."""
    return range(3, cap + 1, 2)


def named(name, results):
    """The result of the suite called name among the results."""
    return {result.name: result for result in results}[name]


def combine(a, b):
    """Compose two diagonal unitaries; exponents add."""
    assert len(a) == len(b)
    return tuple(pa + pb for pa, pb in zip(a, b))


def test_basis_state():
    # a fan of zero angles leaves the start state |0>
    s = fan_state(np.zeros(4))
    assert s.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_y_half_turn():
    s = fan_state([math.pi])
    assert np.allclose(s, [0.0, 1.0], atol=1e-15)


def test_y_equal_split_on_nonadjacent_pair():
    s = fan_state([0.0, math.pi / 2])
    inv_sqrt2 = 1 / math.sqrt(2)
    assert np.allclose(s, [inv_sqrt2, 0.0, inv_sqrt2], atol=1e-15)


def test_z_phases_on_state():
    # the Z rotation on the pair (1, 2) by 0.8, applied to |1>
    state = np.exp(1j * ladder_diagonal(np.array([0.0, 0.8]))) * [0, 1, 0]
    assert state[1] == pytest.approx(np.exp(-0.4j))


def test_norm_preserved_under_random_rotations():
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = fan_state(rng.uniform(-7, 7, size=7))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_ladder_diagonal_empty():
    assert ladder_diagonal(np.zeros(0)).tolist() == [0.0]
    assert ladder_diagonal(np.zeros(3)).tolist() == [0.0] * 4


def test_ladder_diagonal_single_rotation():
    diagonal = ladder_diagonal(np.array([math.pi, 0.0]))
    assert diagonal == pytest.approx([-math.pi / 2, math.pi / 2, 0.0])


def test_schedule_composition_is_additive():
    first = np.array([0.4, 0.0])
    second = np.array([0.0, -0.9])
    assert ladder_diagonal(first + second) == pytest.approx(
        combine(ladder_diagonal(first), ladder_diagonal(second))
    )


def embedded(dim, pair, block):
    """The dim x dim identity with a 2x2 block on the level pair."""
    matrix = np.eye(dim, dtype=complex)
    matrix[np.ix_(pair, pair)] = block
    return matrix


def test_fan_state_matches_the_dense_rotation_product():
    angles = np.random.default_rng(11).uniform(-7, 7, size=6)
    state = np.eye(7)[0]
    for r, angle in enumerate(angles, 1):
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        state = embedded(7, [0, r], [[c, -s], [s, c]]) @ state
    assert np.allclose(fan_state(angles), state, rtol=0, atol=1e-14)


def test_ladder_diagonal_matches_the_dense_rotation_product():
    angles = np.random.default_rng(12).uniform(-7, 7, size=6)
    unitary = np.eye(7, dtype=complex)
    for k, angle in enumerate(angles):
        phases = np.diag(np.exp([-0.5j * angle, 0.5j * angle]))
        unitary = embedded(7, [k, k + 1], phases) @ unitary
    expected = np.diag(np.exp(1j * ladder_diagonal(angles)))
    assert np.allclose(unitary, expected, rtol=0, atol=1e-14)


def test_equal_up_to_global_phase_reflexive():
    a = (0.1, -0.4, 2.0)
    assert phase_error(a, a) == 0.0


def test_equal_up_to_global_phase_uniform_offset():
    a = (0.1, -0.4, 2.0)
    b = (0.8, 0.3, 2.7)  # uniform +0.7
    assert phase_error(a, b) < 1e-12


def test_equal_up_to_global_phase_single_level_offset():
    a = (0.1, -0.4, 2.0)
    b = (0.1, 0.3, 2.0)  # +0.7 on one level only
    assert phase_error(a, b) == pytest.approx(abs(np.exp(0.7j) - 1.0), rel=1e-15)


def test_phase_error_is_the_modulus_of_the_aligned_phase_factor_minus_one():
    # 2 |sin(delta / 2)| = |e^(i delta) - 1| for every delta, whatever its winding
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.uniform(-50, 50, size=(2, 9))
        delta = (a - b) - (a[0] - b[0])
        expected = np.max(np.abs(np.exp(1j * delta) - 1.0))
        assert phase_error(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_equal_up_to_global_phase_propagates_nan():
    assert math.isnan(phase_error((0.1, math.nan, 2.0), (0.1, -0.4, 2.0)))


def test_equal_up_to_global_phase_dim_mismatch():
    # phase_error checks no lengths: numpy refuses to broadcast 2 levels against 3
    with pytest.raises(ValueError):
        phase_error((0.0, 0.0), (0.0,) * 3)


def test_census_suite_passes_above_1155():
    # 1155 = 3 5 7 11 is the first odd d with four distinct primes, offset 7
    result = named("select-census", run_suites(1.0, odd(3), odd(1155)))
    assert result.ok
    assert result.detail == "offsets d-1-s(d): {0, 1, 3, 7}"


@pytest.mark.parametrize("dense_cap,census_cap", [(9, 15), (15, 9), (15, 15)])
def test_run_suites_yields_six_named_results(dense_cap, census_cap):
    results = run_suites(1.0, odd(dense_cap), odd(census_cap))
    assert isinstance(results, list)
    assert [r.name for r in results] == [
        "trotter-schedule",
        "select-schedule",
        "prep-schedule",
        "projector-diag",
        "dft-oracle",
        "select-census",
    ]
    assert all(r.ok for r in results)
    # each suite counts the odd d up to its own cap
    dense, projector, census = results[:3], results[3], results[4:]
    assert [(r.cases, r.worst_d <= dense_cap) for r in dense] == [((dense_cap - 1) // 2, True)] * 3
    assert [(r.cases, r.worst_d <= census_cap) for r in census] == [((census_cap - 1) // 2, True)] * 2
    assert projector.cases == 14


def test_run_suites_checks_each_suite_on_its_own_sequence():
    # neither sequence is a prefix of the odd d, nor holds a d of the other
    results = run_suites(1.0, [9, 33], [15, 1155])
    singles = [run_suites(1.0, [d], [census_d]) for d, census_d in ((9, 15), (33, 1155))]
    for i, result in enumerate(results):
        # max keeps the first of equal errors, as the suites' argmax does
        worst = max((single[i] for single in singles), key=lambda single: single.worst)
        assert result.ok and result.cases == (14 if result.name == "projector-diag" else 2)
        assert (result.name, result.worst, result.worst_d) == (worst.name, worst.worst, worst.worst_d)
    # 15 = 3 5 and 1155 = 3 5 7 11; the dense d = 9 would add the offset 0
    assert results[-1].detail == "offsets d-1-s(d): {1, 7}"


@pytest.mark.parametrize(
    "phi_max,dense_cap,census_cap,cap",
    [
        # the smallest coefficient at d = 513 is subnormal below phi_max = 9.8e-151
        (1e-155, 64, 513, "513"),
        (1e-200, 64, 513, "513"),
        # the largest d of either pass sets the threshold
        (5e-150, 2001, 513, "2001"),
        (5e-150, 9, 2001, "2001"),
    ],
)
def test_run_suites_rejects_a_phi_max_with_subnormal_coefficients(
    phi_max, dense_cap, census_cap, cap
):
    with pytest.raises(ValueError, match=rf"phi_max={phi_max} is too small for d={cap}:"):
        run_suites(phi_max, odd(dense_cap), odd(census_cap))


@pytest.mark.parametrize("inject", [math.nan, math.inf, -math.inf])
def test_run_suites_rejects_a_nonfinite_inject(inject, monkeypatch):
    # checked before any suite runs, so no closed form is built
    monkeypatch.setattr(simverify, "beta_closed_form", None)
    with pytest.raises(ValueError, match="--inject-angle-error must be finite"):
        run_suites(1.0, odd(9), odd(15), inject)


def closed_form_with(monkeypatch, change):
    """Make the suites see the closed form at (d, n) as change(d, n, betas, c_amps) returns it."""
    closed = simverify.beta_closed_form
    monkeypatch.setattr(
        simverify, "beta_closed_form", lambda phi_max, d, n: change(d, n, *closed(phi_max, d, n))
    )


def at_index(d, n, index, only_d):
    """The entries of level index `index`, at every d or only at only_d."""
    return (n == index) if only_d is None else (n == index) & (d == only_d)


def with_beta(r, value, only_d=None):
    """A change that moves beta_r by value (at every d, or only at only_d)."""

    def change(d, n, betas, c_amps):
        betas = betas.copy()
        betas[at_index(d, n, r, only_d)] += value
        return betas, c_amps

    return change


def flip_sign(level, only_d=None):
    """A change that flips the sign of c_n at n = level(d) (at every d, or only at only_d)."""

    def change(d, n, betas, c_amps):
        c_amps = c_amps.copy()
        flipped = at_index(d, n, level(d), only_d)
        c_amps[flipped] = -c_amps[flipped]
        return betas, c_amps

    return change


# c_n < 0 exactly for 2n > d: the first level on each side of that
# threshold, and the last level
FLIPPED_LEVELS = {"1": lambda d: 1, "(d+1)/2": lambda d: (d + 1) // 2, "d-1": lambda d: d - 1}


def test_dft_suite_fails_on_a_perturbed_coefficient(monkeypatch):
    phi_max = 2.5
    closed_form_with(monkeypatch, with_beta(1, 1e-9 * phi_max**2))
    result = named("dft-oracle", run_suites(phi_max, odd(3), odd(15)))
    assert not result.ok
    # the coefficient errors are relative to phi_max^2
    assert result.worst >= 1e-9


@pytest.mark.parametrize("phi_max", [0.1, 1e4])
def test_dft_suite_errors_are_relative_to_phi_max_squared(phi_max):
    # at phi_max = 1 the worst error up to d = 65 is about 3e-15
    result = named("dft-oracle", run_suites(phi_max, odd(3), odd(65)))
    assert result.ok
    assert result.worst < 1e-13


def test_dft_suite_names_the_dimension_of_its_worst_error(monkeypatch):
    closed_form_with(monkeypatch, with_beta(2, 1e-9, only_d=7))
    result = named("dft-oracle", run_suites(1.0, odd(3), odd(15)))
    assert not result.ok
    assert (result.cases, result.worst_d) == (7, 7)


def test_dft_suite_fails_on_a_nan_coefficient(monkeypatch):
    closed_form_with(monkeypatch, with_beta(1, math.nan))
    result = named("dft-oracle", run_suites(1.0, odd(3), odd(15)))
    assert not result.ok
    assert math.isnan(result.worst)
    assert result.worst_d == 3


def test_dft_suite_detects_a_flipped_sign(monkeypatch):
    for (name, level), only_d in itertools.product(FLIPPED_LEVELS.items(), (None, 7)):
        with monkeypatch.context() as patch:
            closed_form_with(patch, flip_sign(level, only_d))
            result = named("dft-oracle", run_suites(1.0, odd(3), odd(15)))
        assert not result.ok, (name, only_d)
        assert result.detail == "sign-threshold equivalence violated"
        # the coefficients themselves still agree with the oracle
        assert result.worst <= 1e-10


def test_census_reads_the_closed_form_that_the_dft_check_reads(monkeypatch):
    for (name, level), only_d in itertools.product(FLIPPED_LEVELS.items(), (None, 7)):
        with monkeypatch.context() as patch:
            closed_form_with(patch, flip_sign(level, only_d))
            *_, dft, census = run_suites(1.0, odd(3), odd(15))
        assert not dft.ok and dft.detail == "sign-threshold equivalence violated"
        # the flipped sign bends the float selection ladder, at d = 7 only
        # when only d = 7 flips
        assert not census.ok, (name, only_d)
        assert census.worst_d == only_d or only_d is None, (name, census.worst_d)


def test_census_suite_fails_on_an_off_by_one_count(monkeypatch):
    count = simverify.select_nontrivial_count
    monkeypatch.setattr(
        simverify,
        "select_nontrivial_count",
        lambda d, numerators, starts: count(d, numerators, starts) + 1,
    )
    result = named("select-census", run_suites(1.0, odd(3), odd(15)))
    assert not result.ok
    # the first d where the float schedule and the exact count disagree
    assert result.detail.startswith("count mismatch at d=3 (float 2, exact 3)")


def test_census_suite_fails_on_a_corrupted_exact_numerator(monkeypatch):
    # one N_k array feeds the exact count and the closed-form angles; the
    # float schedule never reads it, so bending it shows as an angle gap
    numerators = simverify.select_numerators

    def bent(d, r):
        n = numerators(d, r)
        n[r == d - 1] += 1
        return n

    monkeypatch.setattr(simverify, "select_numerators", bent)
    result = named("select-census", run_suites(1.0, odd(3), odd(15)))
    assert not result.ok
    # the gap is pi/d, largest at d = 3
    assert result.worst == pytest.approx(math.pi / 3, rel=1e-12)
    assert result.worst_d == 3


def test_census_suite_passes_up_to_5733():
    # the float count first departs from the exact one at d = 5735, where an
    # exactly trivial angle lands 1.06e-10 from 0 mod 4 pi, past the 1e-10
    # triviality tolerance
    result = named("select-census", run_suites(1.0, odd(3), odd(5733)))
    assert result.ok, result
    assert result.worst <= 1e-9


def test_select_suite_fails_on_a_nan_angle(monkeypatch):
    schedule = simverify.fixed_encoding_select_schedule

    def bent(thetas, sizes):
        angles = schedule(thetas, sizes)
        # index 0 is the empty slot of level 0; index 1 the first rotation
        angles[1] = math.nan
        return angles

    monkeypatch.setattr(simverify, "fixed_encoding_select_schedule", bent)
    select = named("select-schedule", run_suites(1.0, odd(9), odd(15)))
    assert not select.ok
    assert math.isnan(select.worst)


def test_prep_suite_fails_on_a_nan_angle(monkeypatch):
    prep = simverify.prep_ry_schedule

    def bent(amps):
        angles = prep(amps)
        angles[0] = math.nan
        return angles

    monkeypatch.setattr(simverify, "prep_ry_schedule", bent)
    result = named("prep-schedule", run_suites(1.0, odd(9), odd(3)))
    assert not result.ok
    assert math.isnan(result.worst)


def same_results(got, want):
    """Every field equal, the worst errors bit for bit."""
    assert [r.name for r in got] == [r.name for r in want]
    for g, w in zip(got, want):
        assert (g.ok, g.cases, g.worst_d, g.detail) == (w.ok, w.cases, w.worst_d, w.detail), g.name
        assert float(g.worst).hex() == float(w.worst).hex(), g.name


@pytest.mark.parametrize(
    "phi_max,dense_ds,census_ds,inject",
    [
        # the shipped caps: many blocks, dense and census d in the first ones
        (1.0, odd(64), odd(513), 0.0),
        (2.5, odd(64), odd(513), 0.0),
        (0.37, odd(33), odd(1155), 0.0),
        (1.0, odd(64), odd(513), 1e-6),
        # sequences that are not prefixes of the odd d
        (1.0, [9, 33], [15, 1155], 0.0),
        # dense-only blocks, then census blocks of a few d each
        (1.0, odd(99), range(1001, 1301, 2), 0.0),
        # d above BLOCK_LEVELS run one at a time
        (1.0, [9, 2049], [15, 2051, 4097], 0.0),
        # the first count mismatch, named in the detail
        (1.0, [3], [5735], 0.0),
        # two mismatching d, float 5732 and 13452 against exact 5731 and 13451;
        # the detail names the first
        (1.0, [3], [5735, 13453], 0.0),
        # dense-only, census-only and shared d in one block
        (1.0, [5, 9, 13], [3, 7, 11, 13], 0.0),
    ],
)
def test_run_suites_equals_the_per_dimension_loop(phi_max, dense_ds, census_ds, inject):
    assert 2049 > simverify.BLOCK_LEVELS >= 99
    got = run_suites(phi_max, dense_ds, census_ds, inject)
    same_results(got, per_dimension_run_suites(phi_max, dense_ds, census_ds, inject))
