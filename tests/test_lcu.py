import cmath
import json
import math

import numpy as np
import pytest
from oracles import (
    TOFFOLI_T_COST,
    binary_prep_angles,
    binary_prep_state,
    dclock_angles,
    dclock_realized_phases,
    ladder_diagonal,
    make_grid,
    phase_error,
    precision_parameter,
    projector_one_norm,
    projector_pair_sum,
    qubit_blockencoding_cost,
    run_bit_circuit,
    sign_comparator_gates,
)

from quditcost import simverify
from quditcost.cli import main
from quditcost.costmodel import (
    SynthesisModel,
    clock_one_norm,
    lcu_fixed_encoding_thresholds,
    ratio_and_budget,
    register_width,
    rz_cost,
)
from quditcost.simverify import (
    MAX_NUMERATOR_D,
    beta_closed_form,
    fan_state,
    fixed_encoding_select_schedule,
    irreducibility_floor,
    nontrivial_count,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_diag_phases,
    select_nontrivial_count,
    select_numerators,
    signed_labels,
)


# ---------------------------------------------------------------- register


def test_signed_register_labels_two_qubits():
    assert signed_labels(2).tolist() == [0, 1, 0, -1]


def test_signed_register_range_and_zero_redundancy():
    for n_b in (2, 3, 4, 6):
        labels = signed_labels(n_b).tolist()
        assert len(labels) == 2**n_b
        top = 2 ** (n_b - 1) - 1
        assert min(labels) == -top and max(labels) == top
        assert labels.count(0) == 2
        assert set(labels) == set(range(-top, top + 1))


def test_signed_register_sign_is_the_top_bit():
    for n_b in (2, 3, 5):
        labels = signed_labels(n_b)
        for v, label in enumerate(labels.tolist()):
            magnitude = v & ((1 << (n_b - 1)) - 1)
            assert label == (-magnitude if v >> (n_b - 1) else magnitude)


# ----------------------------------------------------- projector diagonal


def test_projector_diag_d3():
    assert qubit_projector_diag_oracle(1.0, 3).tolist() == [0.0, 1.0, 0.0, 1.0]


def test_projector_diag_negative_zero_invariance():
    for d in (3, 9):
        values = qubit_projector_diag_oracle(1.0, d)
        # both all-magnitude-zero strings sit at exactly zero
        assert values[0] == 0.0
        assert values[2 ** (register_width(d) - 1)] == 0.0


@pytest.mark.parametrize("d", [3, 5, 9, 17, 33, 63])
def test_projector_diag_equals_squared_label(d):
    g = make_grid(1.0, d)
    labels = signed_labels(g.n_b)
    values = qubit_projector_diag_oracle(1.0, d)
    assert len(values) == len(labels)
    scale = g.delta_phi**2
    for value, label in zip(values, labels.tolist()):
        assert value == scale * label**2


@pytest.mark.parametrize("phi_max", [1.0, 0.3, 7.77])
def test_projector_diag_equals_the_pair_by_pair_sum(phi_max):
    # every dimension of the projector-diag verify suite, and a 13-qubit register
    dims = [d for n_b in range(2, 9) for d in (2 ** (n_b - 1) + 1, 2**n_b - 1)]
    for d in (*dims, 4097):
        values = qubit_projector_diag_oracle(phi_max, d)
        assert values.tolist() == projector_pair_sum(make_grid(phi_max, d)), d
        assert values.dtype == np.float64


def printed_rows(capsys, *argv):
    """The rows that main prints for argv in JSON, whose floats read back exactly."""
    assert main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("phi_max", [1.0, 2.5, 0.37])
def test_printed_alpha_qb_is_the_projector_one_norm(capsys, phi_max):
    # both extreme odd d of every register width the projector oracle accepts
    for n_b in range(2, 21):
        for d in (2 ** (n_b - 1) + 1, 2**n_b - 1):
            argv = ["scan-ratio", "--phi-max", str(phi_max), "--d-min", str(d), "--d-max", str(d)]
            (row,) = printed_rows(capsys, *argv)
            assert row["alpha_qb"] == projector_one_norm(make_grid(phi_max, d)), (n_b, d)


def test_projector_diag_rejects_huge_register():
    # n_b = 21; the width check comes before any array is built
    with pytest.raises(ValueError, match="register of 21 qubits too large"):
        qubit_projector_diag_oracle(1.0, 2**20 + 1)


# ------------------------------------------------------- qubit call costs


def test_precision_parameter():
    assert precision_parameter(1e-6) == 13
    with pytest.raises(ValueError):
        precision_parameter(0.0)
    with pytest.raises(ValueError):
        precision_parameter(1.5)


def test_qubit_blockencoding_cost_d5():
    assert precision_parameter(1e-6) == 13
    assert qubit_blockencoding_cost(make_grid(1.0, 5), 1e-6) == 372  # 32*13 + 24*3 - 116


def test_qubit_normalization_d3():
    assert ratio_and_budget(1.0, [3], 0.1, 1e-6)[0].alpha_qb == 1.0


def test_qubit_cost_breakdown_consistent():
    for d in (3, 5, 9, 17, 33, 65, 129, 257, 513):
        g = make_grid(1.0, d)
        for eps in (1e-4, 1e-6, 1e-9):
            b_r, n_b = precision_parameter(eps), g.n_b
            # two preparation directions, the selector's Toffolis, 20 direct T
            prep_toffoli = 4 * b_r + 2 * n_b - 16
            recombined = 4 * (2 * prep_toffoli + 2 * (n_b - 1)) + 20
            cost = qubit_blockencoding_cost(g, eps)
            assert type(cost) is int
            assert cost == recombined == 32 * b_r + 24 * n_b - 116
            # the printed count is the breakdown at the row's budget eps / Q
            (row,) = ratio_and_budget(1.0, [d], 0.1, eps)
            assert type(row.per_call_qb) is float
            assert row.per_call_qb == qubit_blockencoding_cost(g, eps / row.q_qb)


# ------------------------------------------------------ hybrid call costs


def hybrid_call_counts(d):
    """(synthesized rotations, direct T gates) of one hybrid call, read off its row.

    Under a flat synthesis cost c per rotation the per-call cost is
    rotations * c + T gates; c = 1 and c = 2 separate the two counts exactly.
    """
    one, two = (
        ratio_and_budget(1.0, [d], 0.1, 1e-6, model=SynthesisModel(rz_slope=0.0, rz_intercept=c))[0].per_call_qd
        for c in (1.0, 2.0)
    )
    return two - one, 2 * one - two


@pytest.mark.parametrize(
    "d,t_gates,rz",
    [(3, 8, 8), (5, 12, 17), (9, 16, 34)],
)
def test_qudit_hybrid_call_cost(d, t_gates, rz):
    assert hybrid_call_counts(d) == (rz, t_gates)


def test_qudit_hybrid_call_cost_invalid_d():
    # the scan-ratio row prices the hybrid call and checks d through register_width
    with pytest.raises(ValueError):
        ratio_and_budget(1.0, [4], 0.1, 1e-6)
    with pytest.raises(ValueError):
        ratio_and_budget(1.0, [1], 0.1, 1e-6)


# ------------------------------------------------------------ clock ladder


def test_dclock_angles_d3():
    angles = dclock_angles(3)
    assert angles == [(0, pytest.approx(-math.pi / 6)), (1, pytest.approx(-math.pi / 3))]


def test_dclock_zero_index_reference():
    phases = dclock_realized_phases(3)
    assert phases[0] - phases[0] == 0.0


@pytest.mark.parametrize("d", [3, 5, 9, 33])
def test_dclock_realizes_clock_phases(d):
    phases = dclock_realized_phases(d)
    for r, p in enumerate(phases):
        realized = cmath.exp(1j * (p - phases[0]))
        assert abs(realized - cmath.exp(1j * math.pi * r / d)) < 1e-12


# ------------------------------------------------ binary-register preparation


def binary_prep_amplitudes(d):
    """sqrt(|beta_r| / Lambda) at index r = 1 .. d - 1 of the 2^n_b index strings, phi_max = 1."""
    amps = np.zeros(2 ** register_width(d))
    betas, _ = beta_closed_form(1.0, d, np.arange(d))
    amps[1:d] = np.sqrt(np.abs(betas[1:]) / clock_one_norm(1.0, d))
    return amps


def test_binary_prep_loads_the_amplitudes_with_the_priced_rotation_count():
    # the hybrid call prices 2^n_b - 1 rotations per preparation direction
    for d in range(3, 514, 2):
        amps = binary_prep_amplitudes(d)
        levels = binary_prep_angles(amps)
        assert sum(len(angles) for angles in levels) == 2 ** register_width(d) - 1, d
        assert np.linalg.norm(binary_prep_state(levels) - amps) <= 1e-12, d


@pytest.mark.parametrize("n_b", range(2, 11))
def test_binary_prep_trivial_angles_just_above_a_power_of_two(n_b):
    # at d = 2^(n_b - 1) + 1 the upper half of the strings holds one nonzero
    # amplitude, at its lowest index, so every angle below the first split
    # there is 0: 2^(n_b - 1) - 1 of the 2^n_b - 1 are trivial
    d = 2 ** (n_b - 1) + 1
    angles = np.concatenate(binary_prep_angles(binary_prep_amplitudes(d)))
    assert len(angles) - nontrivial_count(angles, [0])[0] == 2 ** (n_b - 1) - 1


# -------------------------------------------------------------- sign flip


def negative_flags(d):
    """1 where the coefficient c_r is negative, for r = 1 .. d - 1."""
    return [int(c < 0) for c in beta_closed_form(1.0, d, np.arange(1, d))[1]]


def test_dsign_spec_d5():
    # the sign flip marks r >= (d + 1) / 2 = 3; its comparator is in the
    # hybrid call's 4 n_b direct T gates
    assert negative_flags(5) == [0, 0, 1, 1]
    assert hybrid_call_counts(5)[1] == 12


def test_dsign_spec_d3():
    assert negative_flags(3) == [0, 1]


def test_sign_comparator_flags_the_negative_half_within_the_priced_t_gates():
    # built from temporary logical-ANDs and run on every n_b-bit index, the
    # comparator flags exactly the r with c_r < 0, restores the index and
    # clears its carries.  It needs at most 4 (n_b - 1) T gates, below the
    # 4 n_b that the hybrid call prices
    for d in range(3, 1024, 2):
        n_b = register_width(d)
        gates = sign_comparator_gates(d)
        bits = run_bit_circuit(gates, n_b)
        x = np.arange(2**n_b)
        assert np.array_equal(bits[-1], x >= (d + 1) // 2), d
        assert bits[-1][1:d].tolist() == [bool(flag) for flag in negative_flags(d)], d
        assert np.array_equal(bits[:n_b], (x >> np.arange(n_b)[:, None]) & 1), d
        assert not bits[n_b:-1].any(), d
        t_gates = TOFFOLI_T_COST * sum(gate[0] == "and" for gate in gates)
        assert t_gates <= 4 * (n_b - 1) < hybrid_call_counts(d)[1], d


def test_phase_assembly_matches_sign_times_clock():
    # sgn(c_r) * e^(i pi r/d) equals the selection phase for every level
    for d in range(3, 514, 2):
        n = np.arange(d)
        _, c_amps = beta_closed_form(1.0, d, n)
        phases = select_diag_phases(irreducibility_floor(1.0, d), d, n, c_amps)
        for r in range(1, d):
            sign = -1.0 if c_amps[r] < 0 else 1.0
            assembled = sign * cmath.exp(1j * math.pi * r / d)
            assert abs(assembled - cmath.exp(1j * phases[r])) < 1e-12


# ------------------------------------------------------ selection schedule


def closed_phases(d):
    """The d selection phases of the closed form at phi_max = 1."""
    n = np.arange(d)
    return select_diag_phases(irreducibility_floor(1.0, d), d, n, beta_closed_form(1.0, d, n)[1])


def select_schedule(d):
    """The float selection angles on the pairs (r - 1, r), r = 1 .. d - 1, at phi_max = 1."""
    return fixed_encoding_select_schedule(closed_phases(d), [d])[1:]


def numerators(d):
    """The exact N_r, r = 1 .. d - 1, of one d."""
    return select_numerators(d, np.arange(1, d))


def exact_count(d):
    """The exact nontrivial selection count s(d)."""
    return select_nontrivial_count(numerators(d) % (4 * d), [0])[0]


def test_select_vartheta_closed_form_d3():
    # the closed-form angles (pi/d) N_k: 4*pi/3 on k = 0; k = m carries no
    # winding correction, so its angle is a half-turn pair (2*pi), which is
    # nontrivial mod 4*pi
    assert numerators(3).tolist() == [4, 6]
    assert (math.pi / 3) * numerators(3) == pytest.approx([4 * math.pi / 3, 2 * math.pi])


def test_select_schedule_holds_an_empty_slot_at_level_0():
    # each d's angles sit at the upper level of their pair, in a block as alone
    sizes = [3, 5, 7]
    block = fixed_encoding_select_schedule(np.concatenate([closed_phases(d) for d in sizes]), sizes)
    levels = np.cumsum([0, *sizes])
    for d, lo, hi in zip(sizes, levels, levels[1:]):
        assert block[lo] == 0.0, d
        assert block[lo + 1:hi].tobytes() == select_schedule(d).tobytes(), d
    for d in (3, 5, 15, 1155, MAX_NUMERATOR_D):
        assert select_numerators(d, 0) == 0, d


def test_select_census_small_values():
    assert exact_count(3) == 2
    assert exact_count(5) == 4
    assert exact_count(15) == 13


def test_select_census_offset_pins():
    # d - 1 - s(d) = 2^(omega(d) - 1) - 1; 1155 = 3 5 7 11, 15015 = 3 5 7 11 13
    assert 1155 - 1 - exact_count(1155) == 7
    assert 15015 - 1 - exact_count(15015) == 15


def test_select_census_membership_and_bound():
    for d in range(3, 514, 2):
        s = exact_count(d)
        assert (d - 1) - s in (0, 1, 3), d
        assert 3 * d - 3 >= s + 2 * (d - 1)


def test_select_schedule_closed_form_agreement():
    for d in range(3, 514, 2):
        closed = (math.pi / d) * numerators(d)
        for k, angle in enumerate(select_schedule(d)):
            gap = math.remainder(angle - closed[k], 4 * math.pi)
            assert abs(gap) < 1e-9, (d, k)


def test_select_schedule_census_agreement():
    for d in range(3, 130, 2):
        assert nontrivial_count(select_schedule(d), [0])[0] == exact_count(d)


@pytest.mark.parametrize("d", list(range(3, 65, 2)))
def test_select_schedule_reproduces_diagonal(d):
    target = closed_phases(d)
    realized = ladder_diagonal(fixed_encoding_select_schedule(target, [d])[1:])
    err = phase_error(realized, target)
    assert err <= 1e-10, (d, err)


def test_fixed_encoding_call_rotations():
    # the lcu-table row prices 3d - 3 rotations per call: under a flat
    # synthesis cost of 1, a_max / a_rz = qubit total / (queries * rotations)
    flat = SynthesisModel(rz_slope=0.0, rz_intercept=1.0)
    for d, rotations in ((3, 6), (19, 54)):
        (row,) = lcu_fixed_encoding_thresholds(1.0, [d], 0.1, 1e-6, flat)
        (scan,) = ratio_and_budget(1.0, [d], 0.1, 1e-6)
        total, queries = scan.t_tot_qb, scan.q_qd
        assert total * row.a_rz_lcu / (queries * row.a_max_lcu) == pytest.approx(rotations, rel=1e-12)
    with pytest.raises(ValueError):
        lcu_fixed_encoding_thresholds(1.0, [2], 0.1, 1e-6)


@pytest.mark.parametrize("t,eps_sim", [(0.1, 1e-6), (3000.0, 1e-12)])
def test_lcu_table_prices_the_built_selection_and_preparations(capsys, t, eps_sim):
    # the 3d - 3 rotations of a call are the built selection schedule and
    # the preparation, paid in both directions; a_rz_lcu splits the per-call
    # budget eps_sim / Q_qd of the matching scan-ratio row over them
    flags = ["--all-odd", "--d-max", "513", "--t", str(t), "--eps-sim", str(eps_sim)]
    lcu_rows = printed_rows(capsys, "lcu-table", *flags)
    scan_rows = printed_rows(capsys, "scan-ratio", *flags)
    for lcu, scan in zip(lcu_rows, scan_rows, strict=True):
        d = lcu["d"]
        betas, _ = beta_closed_form(1.0, d, np.arange(1, d))
        amps = np.sqrt(np.abs(betas) / clock_one_norm(1.0, d))
        built = len(select_schedule(d))
        built += 2 * len(prep_ry_schedule(amps))
        assert (scan["d"], built) == (d, 3 * d - 3)
        budget = eps_sim / scan["q_qd"]
        assert lcu["a_rz_lcu"] == rz_cost(budget, built, d) / math.log2(built / budget), d


# ------------------------------------------------------------ preparation


def prep_amplitudes(d):
    """sqrt(|beta_r| / Lambda), r = 1 .. d - 1, of the closed form at phi_max = 1, one by one."""
    betas, _ = beta_closed_form(1.0, d, np.arange(1, d))
    return np.array([math.sqrt(abs(b) / clock_one_norm(1.0, d)) for b in betas])


def test_prep_angles_d3():
    angles = prep_ry_schedule(prep_amplitudes(3))
    assert angles == pytest.approx([math.pi / 2, math.pi])
    # the final rotation is an exact half-turn
    assert angles[-1] == math.pi


def test_prep_prepares_amplitudes_d5():
    amps = prep_amplitudes(5)
    state = fan_state(prep_ry_schedule(amps))
    assert np.allclose(state, [0.0, *amps], atol=1e-12)


@pytest.mark.parametrize("d", list(range(3, 65, 2)))
def test_prep_l2_error(d):
    amps = prep_amplitudes(d)
    state = fan_state(prep_ry_schedule(amps))
    assert np.linalg.norm(state - np.append(0.0, amps)) < 1e-10


def test_prep_residual_vanishes_everywhere():
    # completeness forces the leftover amplitude on level 0 to zero; the
    # cosine product over the schedule angles tracks it without dense states
    for d in range(3, 514, 2):
        angles = prep_ry_schedule(prep_amplitudes(d))
        residual = 1.0
        for angle in angles:
            residual *= math.cos(angle / 2.0)
        assert abs(residual) < 1e-10, d


def test_prep_uses_exactly_d_minus_1_rotations():
    for d in (3, 7, 21):
        angles = prep_ry_schedule(prep_amplitudes(d))
        assert len(angles) == d - 1
        assert nontrivial_count(angles, [0])[0] == d - 1


@pytest.mark.parametrize("factor", [0.5, 2.0, 1 + 1e-8, 1 - 1e-8])
def test_a_wrong_one_norm_fails_prep_and_dft(monkeypatch, capsys, factor):
    # the preparation builds angles from amplitudes of any norm; the state
    # it loads misses them, and the one-norm misses the FFT oracle's
    one_norm = simverify.clock_one_norm
    monkeypatch.setattr(simverify, "clock_one_norm", lambda phi_max, d: factor * one_norm(phi_max, d))
    assert main(["verify", "--d-max", "9", "--census-max", "9"]) == 1
    captured = capsys.readouterr()
    # the suite lines follow the meta header's "# key=value" lines
    lines = [line for line in captured.out.splitlines() if not line.startswith("# ")]
    assert len(lines) == 6
    assert [line.split()[0] for line in lines if "FAIL" in line] == ["prep-schedule", "dft-oracle"]
    assert captured.err == ""


def test_prep_rejects_vanishing_amplitude():
    # the verify pass raises on the closed form's vanishing coefficients in
    # select_diag_phases, before it builds the preparation
    with pytest.raises(ValueError, match="c_1 vanishes"):
        n = np.arange(5)
        select_diag_phases(irreducibility_floor(0.0, 5), 5, n, beta_closed_form(0.0, 5, n)[1])
