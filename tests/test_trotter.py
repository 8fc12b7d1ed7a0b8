import math

import numpy as np
import pytest
from oracles import (
    FieldGrid,
    centered_partial_sum,
    ladder_diagonal,
    ladder_global_phase,
    levels,
    make_grid,
    phase_error,
    qubit_trotter_terms,
    squared_mean,
)
from oracles import qudit_trotter_angles as single_time_angles

from quditcost.costmodel import SynthesisModel, pf_thresholds
from quditcost.simverify import level_array, nontrivial_count, qudit_trotter_angles, reduce_angles


def step_angles(phi_max, d, t):
    """The native step angles of one d at one time."""
    (angles,) = qudit_trotter_angles(phi_max, d, np.arange(1, d), [t])
    return angles


def phi_eigenvalue(exp, index):
    """Field value reconstructed from the bit expansion on basis state |index>."""
    acc = 0.0
    for m in range(exp.n_b):
        acc += 2**m * (1 - 2 * ((index >> m) & 1))
    return exp.p_shift + exp.q_scale * acc


def test_rz_rotation_count_formula():
    # pf_thresholds prices the binary-register step at the oracle's term
    # count: under a flat unit-cost model a_max = L_qb / (L_qd log2(L_qd / eps))
    flat = SynthesisModel(rz_slope=0.0, rz_intercept=1.0)
    for d, count in ((3, 3), (5, 6), (9, 10), (17, 15), (31, 15), (513, 55)):
        assert qubit_trotter_terms(make_grid(1.0, d), 1.0).rz_count == count
        a_max = pf_thresholds([d], 1e-6, flat)[0].a_max_pf
        assert a_max * (d - 1) * math.log2((d - 1) / 1e-6) == pytest.approx(count, rel=1e-12)


def test_angle_helpers():
    assert reduce_angles(np.array([5 * math.pi])) == pytest.approx([math.pi])
    assert reduce_angles(np.array([-2 * math.pi])) == pytest.approx([2 * math.pi])
    assert -2 * math.pi < reduce_angles(np.array([123.456]))[0] <= 2 * math.pi
    # nontrivial_count reads reduced angles
    assert nontrivial_count(reduce_angles(np.array([0.0])), [0])[0] == 0
    assert nontrivial_count(reduce_angles(np.array([4 * math.pi])), [0])[0] == 0
    assert nontrivial_count(reduce_angles(np.array([-8 * math.pi + 1e-12])), [0])[0] == 0
    # a half-turn pair is not the identity
    assert nontrivial_count(reduce_angles(np.array([2 * math.pi])), [0])[0] == 1
    assert nontrivial_count(reduce_angles(np.array([1e-6])), [0])[0] == 1


def remainder_fold(angle):
    """The scalar canonical representative: math.remainder, with -2*pi moved to 2*pi."""
    r = math.remainder(angle, 4 * math.pi)
    return r + 4 * math.pi if r <= -2 * math.pi else r


def test_reduce_angles_equals_the_remainder_fold_bit_for_bit():
    two_pi, four_pi = 2 * math.pi, 4 * math.pi
    k = np.arange(-10**5, 10**5 + 1)
    # whole turns and half-turn pairs, where the remainder sits on or next to 0 or +-2 pi
    turns = np.concatenate([k * two_pi, k * four_pi])
    rng = np.random.default_rng(2026)
    # every exponent from the smallest subnormal up to 2^56, where
    # qudit_trotter_angles starts to reject, with both signs
    log_uniform = np.exp2(rng.uniform(-1074, 56, 10**5)) * rng.choice([-1.0, 1.0], 10**5)
    angles = np.concatenate([
        [two_pi, -two_pi, 0.0, -0.0, 2.0**56, -(2.0**56)],
        turns, np.nextafter(turns, math.inf), np.nextafter(turns, -math.inf),
        log_uniform, rng.uniform(-1e6, 1e6, 10**5),
    ])
    expected = np.array([remainder_fold(a) for a in angles.tolist()])
    assert reduce_angles(angles).tobytes() == expected.tobytes()


def test_reduce_angles_keeps_the_sign_of_zero_and_maps_the_non_finite_to_nan():
    assert np.signbit(reduce_angles(np.array([0.0, -0.0]))).tolist() == [False, True]
    with pytest.warns(RuntimeWarning, match="invalid value"):
        reduced = reduce_angles(np.array([math.inf, -math.inf]))
    assert np.isnan(reduced).all()
    assert np.isnan(reduce_angles(np.array([math.nan, -math.nan]))).all()


def test_nontrivial_count():
    angles = np.array([0.0, 4 * math.pi, 2 * math.pi, 0.3])
    assert nontrivial_count(reduce_angles(angles), [0])[0] == 2
    # it does not reduce them again: an unreduced full turn counts as a rotation
    assert nontrivial_count(angles, [0])[0] == 3
    assert nontrivial_count(np.array([math.nan]), [0])[0] == 1


def test_qubit_terms_d3():
    exp = qubit_trotter_terms(make_grid(1.0, 3), 0.7)
    assert exp.n_b == 2
    assert exp.rz_count == 3
    assert len(exp.linear_terms) == 2
    assert len(exp.quad_terms) == 1


@pytest.mark.parametrize("d", [3, 5, 9, 17, 33])
def test_qubit_term_count_formula(d):
    exp = qubit_trotter_terms(make_grid(1.0, d), 1.0)
    assert exp.rz_count == exp.n_b * (exp.n_b + 1) // 2


def test_qubit_affine_coefficients():
    for d in (3, 5, 9):
        g = make_grid(1.0, d)
        exp = qubit_trotter_terms(g, 1.0)
        assert exp.p_shift == pytest.approx(
            -g.phi_max + 0.5 * g.delta_phi * (2**g.n_b - 1), rel=1e-15
        )
        assert exp.q_scale == pytest.approx(-0.5 * g.delta_phi, rel=1e-15)


def test_qubit_field_reconstruction():
    # the bit expansion must reproduce -phi_max + n * delta_phi on the whole
    # register, including the unused strings above d - 1
    for d in (3, 5, 9, 31):
        g = make_grid(1.0, d)
        exp = qubit_trotter_terms(g, 0.31)
        for n in range(2**g.n_b):
            assert phi_eigenvalue(exp, n) == pytest.approx(
                -g.phi_max + n * g.delta_phi, abs=1e-12
            )


def test_qubit_diagonal_against_direct_square():
    # angle bookkeeping validated against the simulated diagonal, never by
    # convention agreement: exp(i * diagonal_phase(n)) must equal
    # exp(-i t lambda(n)^2) on every string
    for d in (3, 5, 9, 17):
        for t in (0.0, 0.1, 3.7):
            g = make_grid(1.0, d)
            exp = qubit_trotter_terms(g, t)
            for n in range(2**g.n_b):
                lam = -g.phi_max + n * g.delta_phi
                gap = exp.diagonal_phase(n) - (-t * lam**2)
                assert abs(math.remainder(gap, 2 * math.pi)) < 1e-10


def test_qubit_t_zero_is_identity():
    exp = qubit_trotter_terms(make_grid(1.0, 5), 0.0)
    assert all(angle == 0.0 for _, angle in exp.linear_terms)
    assert all(angle == 0.0 for _, _, angle in exp.quad_terms)


def test_qudit_angles_d3():
    assert step_angles(1.0, 3, 1.0) == pytest.approx([2 / 3, -2 / 3])


def test_qudit_angles_t_zero():
    assert nontrivial_count(step_angles(1.0, 9, 0.0), [0])[0] == 0


def test_qudit_schedule_adjacent_and_generically_nontrivial():
    # one angle per adjacent pair (k, k+1), none of them the identity
    for d in (3, 7, 33):
        angles = step_angles(1.0, d, 0.37)
        assert len(angles) == d - 1
        assert nontrivial_count(angles, [0])[0] == d - 1


def test_qudit_angles_build_one_row_per_time_bit_for_bit():
    # N_k is built once; each row equals the per-time builder that verify
    # called before, bit for bit, at every d and time
    times = [0.1, 1.0, 3.7]
    for phi_max in (1.0, 2.5, 150.0):
        for d in (3, 5, 65, 513, 6145):
            rows = qudit_trotter_angles(phi_max, d, np.arange(1, d), times)
            assert len(rows) == len(times)
            for row, t in zip(rows, times):
                assert row.tobytes() == single_time_angles(phi_max, d, t).tobytes(), (phi_max, d, t)


def test_qudit_angles_name_the_first_overflowing_time():
    # t = 0 leaves every angle 0; a positive t below 3.7 would already stop
    # at the float spacing limit, before any angle overflows
    with pytest.raises(ValueError, match="phi_max=6e\\+153 with t=3.7 is too large: .* overflow"):
        qudit_trotter_angles(6e153, 9, np.arange(1, 9), [0.0, 3.7, 5.0])


@pytest.mark.parametrize("d", [3, 9, 65, 513])
def test_qudit_angles_stop_where_the_float_spacing_reaches_the_period(d):
    # the largest unreduced angle at phi_max = 1 and t = 1, and the phi_max
    # where it reaches 2^56, the first float whose spacing (16) is at least 4 pi
    k = np.arange(d - 1.0)
    numerator = (k + 1.0) * (2.0 * k - (d - 2)) * (k - (d - 1)) / 2.0
    peak = np.abs(2.0 * (2.0 / (d - 1)) ** 2 / 3.0 * numerator).max()
    limit = math.sqrt(2.0**56 / peak)
    (angles,) = qudit_trotter_angles(0.99 * limit, d, np.arange(1, d), [1.0])
    assert np.all(np.abs(angles) <= 2 * np.pi)
    with pytest.raises(ValueError, match=r"with t=1.0 is too large: the step angles .* reach 7\.\d+e\+16,"):
        qudit_trotter_angles(1.01 * limit, d, np.arange(1, d), [0.1, 1.0])


def test_qudit_angles_reject_an_overflowing_phase():
    with pytest.raises(ValueError, match="phi_max=6e\\+153 with t=3.7"):
        step_angles(6e153, 9, 3.7)


@pytest.mark.parametrize("t", [0.1, 1.0, 3.7])
def test_qudit_schedule_matches_target_diagonal(t):
    # 6145 and 16385 failed while the angles were a running float sum
    for d in [*range(3, 65, 2), 6145, 16385]:
        g = make_grid(1.0, d)
        realized = ladder_diagonal(step_angles(1.0, d, t))
        target = tuple(-t * lam**2 for lam in levels(g))
        err = phase_error(realized, target)
        assert err <= 1e-10, (d, t, err)


def test_ladder_global_phase_is_minus_t_times_the_direct_mean():
    # the closed form -t (delta_phi^2 / 3) m (m + 1) against the direct sum
    assert ladder_global_phase(make_grid(1.0, 3), 1.0) == pytest.approx(-2.0 / 3.0, rel=1e-15)
    assert ladder_global_phase(make_grid(1.0, 5), 1.0) == pytest.approx(-0.5, rel=1e-15)
    for phi_max in (0.5, 1.0, 2.0):
        for d in range(3, 1002, 2):
            g = make_grid(phi_max, d)
            mu = squared_mean(g)
            assert math.isclose(mu, phi_max**2 * (d + 1) / (3 * (d - 1)), rel_tol=1e-12)
            for t in (0.1, 3.7):
                phase = ladder_global_phase(g, t)
                assert math.isclose(phase, -t * mu, rel_tol=1e-12), (phi_max, d, t)
                # the ladder plus that phase is diag(e^(-i t lambda_n^2)) level by
                # level, with no alignment: 2 |sin(gap / 2)| = |e^(i gap) - 1|
                gap = ladder_diagonal(step_angles(phi_max, d, t)) + phase
                gap -= -t * level_array(phi_max, d, np.arange(d)) ** 2
                assert np.max(np.abs(2.0 * np.sin(0.5 * gap))) <= 1e-10, (phi_max, d, t)
    # degenerate zero field, built directly since make_grid rejects phi_max = 0
    zero = FieldGrid(phi_max=0.0, d=5, delta_phi=0.0, n_b=3)
    assert squared_mean(zero) == 0.0
    assert ladder_global_phase(zero, 1.0) == 0.0


def test_angle_uniqueness_mod_4pi():
    # re-solving the angles from the realized per-level phases reproduces
    # the schedule up to multiples of 4*pi
    angles = step_angles(1.0, 11, 0.37)
    realized = ladder_diagonal(angles)
    acc = 0.0
    for k, angle in enumerate(angles):
        acc += realized[k]
        resolved = -2.0 * acc
        assert abs(math.remainder(resolved - angle, 4 * math.pi)) < 1e-10


def test_centered_partial_sum_examples():
    assert centered_partial_sum(make_grid(1.0, 3), 0) == pytest.approx(1 / 3, rel=1e-13)
    assert centered_partial_sum(make_grid(1.0, 5), 3) == pytest.approx(-0.5, rel=1e-13)


def test_centered_partial_sum_range_check():
    g = make_grid(1.0, 5)
    with pytest.raises(ValueError):
        centered_partial_sum(g, -1)
    with pytest.raises(ValueError):
        centered_partial_sum(g, 4)


def test_centered_partial_sum_against_direct_summation():
    for d in (3, 5, 17, 101):
        g = make_grid(1.0, d)
        mu = squared_mean(g)
        running = 0.0
        for k in range(d - 1):
            running += levels(g)[k] ** 2 - mu
            closed = centered_partial_sum(g, k)
            assert math.isclose(closed, running, rel_tol=1e-11, abs_tol=1e-13)
            assert closed != 0.0
