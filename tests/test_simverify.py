import math
import random
from dataclasses import replace

import numpy as np
import pytest

from quditcost import simverify
from quditcost.simverify import (
    apply_rotation_to_state,
    apply_schedule_to_state,
    apply_z_schedule,
    basis_state,
    equal_up_to_global_phase,
    run_suites,
    suite_census,
    suite_dft,
)
from quditcost.trotter import Rotation, RotationSchedule


def combine(a, b):
    """Compose two diagonal unitaries; exponents add."""
    assert len(a) == len(b)
    return tuple(pa + pb for pa, pb in zip(a, b))


def test_basis_state():
    s = basis_state(5, 2)
    assert s[2] == 1.0
    assert np.linalg.norm(s) == 1.0
    with pytest.raises(ValueError, match="cap"):
        basis_state(65)
    with pytest.raises(ValueError):
        basis_state(3, 5)


def test_y_half_turn():
    s = apply_rotation_to_state(basis_state(2), "Y", (0, 1), math.pi)
    assert np.allclose(s, [0.0, 1.0], atol=1e-15)


def test_y_equal_split_on_nonadjacent_pair():
    s = apply_rotation_to_state(basis_state(3), "Y", (0, 2), math.pi / 2)
    inv_sqrt2 = 1 / math.sqrt(2)
    assert np.allclose(s, [inv_sqrt2, 0.0, inv_sqrt2], atol=1e-15)


def test_z_phases_on_state():
    s = apply_rotation_to_state(basis_state(3, 1), "Z", (1, 2), 0.8)
    assert s[1] == pytest.approx(np.exp(-0.4j))


def test_rotation_leaves_input_state_untouched():
    s = basis_state(3)
    apply_rotation_to_state(s, "Y", (0, 1), 1.0)
    apply_rotation_to_state(s, "Z", (0, 1), 1.0)
    assert s.tolist() == [1.0, 0.0, 0.0]


def test_rotation_validation():
    with pytest.raises(ValueError, match="level pair"):
        apply_rotation_to_state(basis_state(3), "Y", (2, 1), 1.0)
    with pytest.raises(ValueError, match="axis"):
        apply_rotation_to_state(basis_state(3), "W", (0, 1), 1.0)
    # no schedule builds an X rotation, so the oracle has none
    with pytest.raises(ValueError, match="axis"):
        apply_rotation_to_state(basis_state(3), "X", (0, 1), 1.0)


@pytest.mark.parametrize("axis", ["Y", "Z"])
def test_nan_angle_raises(axis):
    with pytest.raises(ValueError, match="norm"):
        apply_rotation_to_state(basis_state(3), axis, (0, 1), math.nan)


def test_norm_preserved_under_random_rotations():
    rng = random.Random(7)
    state = basis_state(8)
    for _ in range(200):
        axis = rng.choice(["Y", "Z"])
        b = rng.randrange(0, 7)
        c = rng.randrange(b + 1, 8)
        state = apply_rotation_to_state(state, axis, (b, c), rng.uniform(-7, 7))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_apply_z_schedule_empty():
    sched = RotationSchedule(dim=4, rotations=())
    assert apply_z_schedule(sched) == (0.0,) * 4


def test_apply_z_schedule_single_rotation():
    sched = RotationSchedule(dim=3, rotations=(Rotation("Z", (0, 1), math.pi),))
    assert apply_z_schedule(sched) == pytest.approx([-math.pi / 2, math.pi / 2, 0.0])


def test_apply_z_schedule_rejects_other_axes():
    sched = RotationSchedule(dim=3, rotations=(Rotation("Y", (0, 1), 1.0),))
    with pytest.raises(ValueError, match="non-Z"):
        apply_z_schedule(sched)


def test_z_schedule_order_independent():
    rotations = [
        Rotation("Z", (0, 1), 0.3),
        Rotation("Z", (1, 2), -1.7),
        Rotation("Z", (0, 3), 2.2),
        Rotation("Z", (2, 3), 0.9),
    ]
    forward = apply_z_schedule(RotationSchedule(dim=4, rotations=tuple(rotations)))
    shuffled = apply_z_schedule(
        RotationSchedule(dim=4, rotations=tuple(reversed(rotations)))
    )
    assert forward == pytest.approx(shuffled, abs=1e-12)


def test_schedule_composition_is_additive():
    first = RotationSchedule(
        dim=3, rotations=(Rotation("Z", (0, 1), 0.4),), global_phase=0.2
    )
    second = RotationSchedule(
        dim=3, rotations=(Rotation("Z", (1, 2), -0.9),), global_phase=-0.5
    )
    merged = RotationSchedule(
        dim=3,
        rotations=first.rotations + second.rotations,
        global_phase=first.global_phase + second.global_phase,
    )
    assert apply_z_schedule(merged) == pytest.approx(
        combine(apply_z_schedule(first), apply_z_schedule(second))
    )


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


def test_apply_schedule_to_state_includes_global_phase():
    sched = RotationSchedule(dim=2, rotations=(), global_phase=0.7)
    s = apply_schedule_to_state(basis_state(2), sched)
    assert s[0] == pytest.approx(np.exp(0.7j))


def test_apply_schedule_to_state_dim_mismatch():
    sched = RotationSchedule(dim=3, rotations=())
    with pytest.raises(ValueError):
        apply_schedule_to_state(basis_state(4), sched)


def test_census_suite_passes_above_1155():
    # 1155 = 3 5 7 11 is the first odd d with four distinct primes, offset 7
    result = suite_census(1.0, 1155)
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


@pytest.mark.parametrize("dense_cap,census_cap", [(65, 15), (2, 15), (9, 1)])
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
    result = suite_dft(phi_max, 15)
    assert not result.ok
    assert result.worst >= 1e-9 * phi_max**2


def test_dft_suite_names_the_dimension_of_its_worst_error(monkeypatch):
    closed_form_with(monkeypatch, with_beta(2, 1e-9, only_d=7))
    result = suite_dft(1.0, 15)
    assert not result.ok
    assert (result.cases, result.worst_d) == (7, 7)


def test_dft_suite_fails_on_a_nan_coefficient(monkeypatch):
    closed_form_with(monkeypatch, with_beta(1, math.nan))
    result = suite_dft(1.0, 15)
    assert not result.ok
    assert math.isnan(result.worst)
    assert result.worst_d == 3


def test_dft_suite_detects_a_flipped_sign(monkeypatch):
    def flip(grid, expansion):
        c_amps = expansion.c_amps.copy()
        c_amps[0] = -c_amps[0]
        return replace(expansion, c_amps=c_amps)

    closed_form_with(monkeypatch, flip)
    result = suite_dft(1.0, 15)
    assert not result.ok
    assert result.detail == "sign-threshold equivalence violated"
    # the coefficients themselves still agree with the oracle
    assert result.worst <= 1e-10


def test_census_suite_fails_on_an_off_by_one_count(monkeypatch):
    count = simverify.select_nontrivial_count
    monkeypatch.setattr(simverify, "select_nontrivial_count", lambda d: count(d) + 1)
    assert not suite_census(1.0, 15).ok


def test_select_suite_fails_on_a_nan_angle():
    select = next(r for r in run_suites(1.0, 9, 15, math.nan) if r.name == "select-schedule")
    assert not select.ok
    assert math.isnan(select.worst)
