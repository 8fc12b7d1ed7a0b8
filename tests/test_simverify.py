import math
from dataclasses import replace

import numpy as np
import pytest

from quditcost import simverify
from quditcost.simverify import (
    census_pass,
    dense_pass,
    equal_up_to_global_phase,
    fan_state,
    ladder_diagonal,
    run_suites,
)
from quditcost.trotter import ZLadder


def named(name, results):
    """The result of the suite called name among a pass's results."""
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
    state = np.exp(1j * ladder_diagonal(ZLadder(np.array([0.0, 0.8]), 0.0))) * [0, 1, 0]
    assert state[1] == pytest.approx(np.exp(-0.4j))


def test_norm_preserved_under_random_rotations():
    rng = np.random.default_rng(7)
    for _ in range(200):
        state = fan_state(rng.uniform(-7, 7, size=7))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_ladder_diagonal_empty():
    assert ladder_diagonal(ZLadder(np.zeros(0), 0.0)).tolist() == [0.0]
    assert ladder_diagonal(ZLadder(np.zeros(3), 0.0)).tolist() == [0.0] * 4


def test_ladder_diagonal_single_rotation():
    diagonal = ladder_diagonal(ZLadder(np.array([math.pi, 0.0]), 0.0))
    assert diagonal == pytest.approx([-math.pi / 2, math.pi / 2, 0.0])


def test_schedule_composition_is_additive():
    first = ZLadder(np.array([0.4, 0.0]), 0.2)
    second = ZLadder(np.array([0.0, -0.9]), -0.5)
    merged = ZLadder(first.angles + second.angles, first.global_phase + second.global_phase)
    assert ladder_diagonal(merged) == pytest.approx(
        combine(ladder_diagonal(first), ladder_diagonal(second))
    )


def test_ladder_diagonal_includes_global_phase():
    assert ladder_diagonal(ZLadder(np.zeros(1), 0.7)).tolist() == [0.7, 0.7]


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
    ladder = ZLadder(np.random.default_rng(12).uniform(-7, 7, size=6), 0.3)
    unitary = np.exp(0.3j) * np.eye(7)
    for k, angle in enumerate(ladder.angles):
        phases = np.diag(np.exp([-0.5j * angle, 0.5j * angle]))
        unitary = embedded(7, [k, k + 1], phases) @ unitary
    expected = np.diag(np.exp(1j * ladder_diagonal(ladder)))
    assert np.allclose(unitary, expected, rtol=0, atol=1e-14)


def test_equal_up_to_global_phase_reflexive():
    a = (0.1, -0.4, 2.0)
    ok, err = equal_up_to_global_phase(a, a)
    assert ok and err == 0.0


def test_equal_up_to_global_phase_uniform_offset():
    a = (0.1, -0.4, 2.0)
    b = (0.8, 0.3, 2.7)  # uniform +0.7
    ok, err = equal_up_to_global_phase(a, b)
    assert ok and err < 1e-12


def test_equal_up_to_global_phase_single_level_offset():
    a = (0.1, -0.4, 2.0)
    b = (0.1, 0.3, 2.0)  # +0.7 on one level only
    ok, err = equal_up_to_global_phase(a, b, tol=1e-6)
    assert not ok
    assert err == pytest.approx(abs(np.exp(0.7j) - 1.0))


def test_equal_up_to_global_phase_propagates_nan():
    ok, err = equal_up_to_global_phase((0.1, math.nan, 2.0), (0.1, -0.4, 2.0))
    assert not ok
    assert math.isnan(err)


def test_equal_up_to_global_phase_dim_mismatch():
    with pytest.raises(ValueError):
        equal_up_to_global_phase((0.0, 0.0), (0.0,) * 3)


def test_census_suite_passes_above_1155():
    # 1155 = 3 5 7 11 is the first odd d with four distinct primes, offset 7
    result = named("select-census", census_pass(1.0, 1155))
    assert result.ok
    assert result.detail == "offsets d-1-s(d): {0, 1, 3, 7}"


def test_run_suites_yields_six_named_results():
    results = list(run_suites(1.0, 9, 15))
    assert [r.name for r in results] == [
        "trotter-schedule",
        "select-schedule",
        "prep-schedule",
        "projector-diag",
        "dft-oracle",
        "select-census",
    ]
    assert all(r.ok for r in results)


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
    with pytest.raises(ValueError, match=rf"phi_max={phi_max} .* cap {cap}"):
        next(run_suites(phi_max, dense_cap, census_cap))


@pytest.mark.parametrize("dense_cap,census_cap", [(2, 15), (9, 1)])
def test_run_suites_rejects_caps(dense_cap, census_cap):
    with pytest.raises(ValueError):
        next(run_suites(1.0, dense_cap, census_cap))


def closed_form_with(monkeypatch, change):
    """Make the suites see the closed-form expansion as change(grid, expansion) returns it."""
    closed = simverify.beta_closed_form
    monkeypatch.setattr(
        simverify, "beta_closed_form", lambda grid: change(grid, closed(grid))
    )


def with_beta(r, value, only_d=None):
    """A change that moves beta_r by value (at every d, or only at only_d)."""

    def change(grid, expansion):
        if only_d not in (None, grid.d):
            return expansion
        betas = expansion.betas.copy()
        betas[r] += value
        return replace(expansion, betas=betas)

    return change


def test_dft_suite_fails_on_a_perturbed_coefficient(monkeypatch):
    phi_max = 2.5
    closed_form_with(monkeypatch, with_beta(1, 1e-9 * phi_max**2))
    result = named("dft-oracle", census_pass(phi_max, 15))
    assert not result.ok
    # the coefficient errors are relative to phi_max^2
    assert result.worst >= 1e-9


@pytest.mark.parametrize("phi_max", [0.1, 1e4])
def test_dft_suite_errors_are_relative_to_phi_max_squared(phi_max):
    # at phi_max = 1 the worst error up to d = 65 is about 3e-15
    result = named("dft-oracle", census_pass(phi_max, 65))
    assert result.ok
    assert result.worst < 1e-13


def test_dft_suite_names_the_dimension_of_its_worst_error(monkeypatch):
    closed_form_with(monkeypatch, with_beta(2, 1e-9, only_d=7))
    result = named("dft-oracle", census_pass(1.0, 15))
    assert not result.ok
    assert (result.cases, result.worst_d) == (7, 7)


def test_dft_suite_fails_on_a_nan_coefficient(monkeypatch):
    closed_form_with(monkeypatch, with_beta(1, math.nan))
    result = named("dft-oracle", census_pass(1.0, 15))
    assert not result.ok
    assert math.isnan(result.worst)
    assert result.worst_d == 3


def test_dft_suite_detects_a_flipped_sign(monkeypatch):
    def flip(grid, expansion):
        c_amps = expansion.c_amps.copy()
        c_amps[0] = -c_amps[0]
        return replace(expansion, c_amps=c_amps)

    closed_form_with(monkeypatch, flip)
    result = named("dft-oracle", census_pass(1.0, 15))
    assert not result.ok
    assert result.detail == "sign-threshold equivalence violated"
    # the coefficients themselves still agree with the oracle
    assert result.worst <= 1e-10


def test_census_reads_the_closed_form_that_the_dft_check_reads(monkeypatch):
    def flip_at_7(grid, expansion):
        if grid.d != 7:
            return expansion
        c_amps = expansion.c_amps.copy()
        c_amps[0] = -c_amps[0]
        return replace(expansion, c_amps=c_amps)

    closed_form_with(monkeypatch, flip_at_7)
    dft, census = census_pass(1.0, 15)
    assert not dft.ok and dft.detail == "sign-threshold equivalence violated"
    # the flipped sign bends the float selection ladder at d = 7 only
    assert not census.ok
    assert census.worst_d == 7


def test_census_suite_fails_on_an_off_by_one_count(monkeypatch):
    count = simverify.select_nontrivial_count
    monkeypatch.setattr(simverify, "select_nontrivial_count", lambda d: count(d) + 1)
    result = named("select-census", census_pass(1.0, 15))
    assert not result.ok
    # the first d where the float schedule and the exact count disagree
    assert result.detail.startswith("count mismatch at d=3 (float 2, exact 3)")


def test_census_suite_passes_up_to_5733():
    # the float count first departs from the exact one at d = 5735, where an
    # exactly trivial angle lands 1.06e-10 from 0 mod 4 pi, past the 1e-10
    # triviality tolerance
    result = named("select-census", census_pass(1.0, 5733))
    assert result.ok, result
    assert result.worst <= 1e-9


def test_select_suite_fails_on_a_nan_angle():
    select = next(r for r in run_suites(1.0, 9, 15, math.nan) if r.name == "select-schedule")
    assert not select.ok
    assert math.isnan(select.worst)


def test_prep_suite_fails_on_a_nan_angle(monkeypatch):
    prep = simverify.prep_ry_schedule

    def bent(expansion):
        angles = prep(expansion)
        angles[0] = math.nan
        return angles

    monkeypatch.setattr(simverify, "prep_ry_schedule", bent)
    result = named("prep-schedule", dense_pass(1.0, 9))
    assert not result.ok
    assert math.isnan(result.worst)
