"""The report rows of costmodel: query counts, the qubit and hybrid cost chains,
ratio_and_budget and the fixed-encoding thresholds.

The chains are read off the columns of the rows that print them; the
per-call budgets, which no row prints, come from the chain in
tests/oracles.py."""

import math
import tracemalloc

import pytest

from oracles import make_grid, precision_parameter, total_cost_qubit, total_cost_qudit_hybrid

from quditcost.costmodel import MIN_CALL_BUDGET, lcu_fixed_encoding_thresholds, ratio_and_budget

PRIMES_TO_19 = [3, 5, 7, 11, 13, 17, 19]


def test_query_count_zero_alpha():
    # phi_max^2 underflows, so both normalizations are 0
    (row,) = ratio_and_budget(1e-200, [3], 12.3, 1e-6)
    assert row.alpha_qb == row.alpha_qd == 0.0
    assert row.q_qb == row.q_qd == pytest.approx(math.log2(1e6))


def test_query_count_d3_cases():
    (row,) = ratio_and_budget(1.0, [3], 0.1, 1e-6)
    assert (row.alpha_qb, row.alpha_qd) == (1.0, pytest.approx(2.0 / 3.0))
    assert row.q_qb == pytest.approx(20.0316, abs=1e-4)
    assert row.q_qd == pytest.approx(19.9982, abs=1e-4)


def test_query_count_domain():
    # a negative phi_max, whose normalizations alone would not show its sign
    for report in (ratio_and_budget, lcu_fixed_encoding_thresholds):
        with pytest.raises(ValueError):
            report(-1.0, [3], 1.0, 1e-6)
        with pytest.raises(ValueError):
            report(1.0, [3], -1.0, 1e-6)
        with pytest.raises(ValueError):
            report(1.0, [3], 1.0, 2.0)


@pytest.mark.parametrize("bad_t", [math.nan, math.inf])
def test_query_count_rejects_nonfinite_time(bad_t):
    for report in (ratio_and_budget, lcu_fixed_encoding_thresholds):
        with pytest.raises(ValueError, match="evolution time t"):
            report(1.0, [3], bad_t, 1e-6)


def test_query_count_rejects_budget_at_or_above_one():
    # at d = 3 the qubit normalization is 1: Q = 0.1 + log2(1 / 0.9) = 0.252
    # < eps_sim, so eps_sim / Q > 1
    for report in (ratio_and_budget, lcu_fixed_encoding_thresholds):
        with pytest.raises(ValueError, match="eps_sim=0.9"):
            report(1.0, [3], 0.1, 0.9)


def test_query_count_rejects_budget_below_floor():
    # at Q = 1e305 the budget eps_sim / Q = 1e-311 is subnormal, and the
    # qubit precision parameter 9 pi^2 / (2 eps_be) would overflow
    for report in (ratio_and_budget, lcu_fixed_encoding_thresholds):
        with pytest.raises(ValueError, match="evolution time t=1e"):
            report(1.0, [3], 1e305, 1e-6)
    (row,) = ratio_and_budget(1.0, [3], 1e293, 1e-6)
    assert 1e-6 / row.q_qb >= MIN_CALL_BUDGET


def test_normalizations_d3():
    (row,) = ratio_and_budget(1.0, [3], 0.1, 1e-6)
    assert row.alpha_qb == 1.0
    assert row.alpha_qd == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_qubit_chain_d3_precision_regime():
    (row,) = ratio_and_budget(1.0, [3], 0.1, 1e-6)
    assert row.per_call_qb == 412  # b_r = 15 at this budget
    assert row.t_tot_qb == pytest.approx(8.25e3, rel=1e-3)
    # the budget of a call is eps_sim / Q: the one that b_r = 15 is taken at
    assert precision_parameter(1e-6 / row.q_qb) == 15
    assert row.per_call_qb == 32 * 15 + 24 * row.n_b - 116


def test_qubit_chain_d5_time_regime():
    (row,) = ratio_and_budget(1.0, [5], 3000.0, 1e-6)
    assert row.per_call_qb == 596  # b_r = 20
    assert row.t_tot_qb == pytest.approx(4.04e6, rel=2e-2)


def test_qubit_total_grows_with_precision():
    totals = [ratio_and_budget(1.0, [7], 1.0, eps)[0].t_tot_qb for eps in (1e-4, 1e-6, 1e-8)]
    assert totals[0] < totals[1] < totals[2]


def test_qudit_chain_d3_precision_regime():
    (row,) = ratio_and_budget(1.0, [3], 0.1, 1e-6)
    assert row.per_call_qd == pytest.approx(2.03e2, rel=1e-2)
    assert row.t_tot_qd == pytest.approx(4.06e3, rel=1e-2)


def test_qudit_chain_d5_time_regime():
    (row,) = ratio_and_budget(1.0, [5], 3000.0, 1e-6)
    assert row.t_tot_qd == pytest.approx(1.02e6, rel=2e-2)


def test_qudit_chain_t_zero():
    for row in ratio_and_budget(1.0, [3, 9, 33], 0.0, 1e-6):
        assert row.q_qd == pytest.approx(math.log2(1e6))


def test_report_internal_consistency():
    t, eps_sim, k = 7.7, 1e-5, 3
    grid = make_grid(1.0, 9)
    (report,) = ratio_and_budget(1.0, [9], t, eps_sim, k=k)
    assert report.q_qb == pytest.approx(report.alpha_qb * t + math.log2(1 / eps_sim))
    assert report.q_qd == pytest.approx(report.alpha_qd * t + math.log2(1 / eps_sim))
    assert total_cost_qubit(grid, t, eps_sim).eps_be == pytest.approx(eps_sim / report.q_qb)
    assert total_cost_qudit_hybrid(grid, t, eps_sim).eps_be == pytest.approx(
        eps_sim / report.q_qd
    )
    assert report.t_tot_qb == pytest.approx(report.q_qb * report.per_call_qb)
    assert report.t_tot_qd == pytest.approx(report.q_qd * report.per_call_qd)
    assert report.ratio == pytest.approx(report.t_tot_qb / report.t_tot_qd)
    assert report.delta_tot == pytest.approx(report.t_tot_qb - report.t_tot_qd)
    assert report.budget_per_switch == pytest.approx(
        report.delta_tot / (report.q_qd * k)
    )


def test_report_row_is_constant_size_in_d():
    # a d-sized float array alone would be 8 GB at this d
    tracemalloc.start()
    try:
        (report,) = ratio_and_budget(1.0, [999999999], 3000.0, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(math.isfinite(value) for value in report)
    assert peak < 100_000


def test_pricing_one_range_three_times_into_a_no_op_row_holds_nothing():
    # less than a byte per d: no per-range cache fits.  The row builds nothing,
    # so all that a pass could hold is its own.  The untraced calls over the
    # small d fill the one-norm half sums and the free lists of the interpreter
    ds = range(3, 40003, 2)
    reports = [ratio_and_budget, lcu_fixed_encoding_thresholds] * 3
    for report in reports[:2]:
        report(1.5, ds[:500], 0.1, 1e-6)
    tracemalloc.start()
    try:
        for report in reports:
            rows = report(1.5, ds, 0.1, 1e-6, row=lambda *columns: None)
            del rows
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < len(ds)


def test_per_rotation_budget_floor_names_d():
    # eps_be is about 1e-300; at this d each row splits it over at least
    # 6e7 rotations, which leaves less than the smallest normal float each
    lcu_fixed_encoding_thresholds(1.0, [99], 0.01, 1e-297)
    with pytest.raises(ValueError, match="d=20000001 "):
        lcu_fixed_encoding_thresholds(1.0, [20000001], 0.01, 1e-297)
    with pytest.raises(ValueError, match="d=20000001 "):
        ratio_and_budget(1.0, [20000001], 0.01, 1e-297)


def test_report_k_validation():
    with pytest.raises(ValueError):
        ratio_and_budget(1.0, [3], 1.0, 1e-6, k=0)


def test_budget_sign_law():
    for t in (0.1, 3000.0):
        for report in ratio_and_budget(1.0, range(3, 102, 2), t, 1e-6):
            assert (report.budget_per_switch > 0) == (report.ratio > 1)
            assert (report.delta_tot > 0) == (report.ratio > 1)


def test_precision_domination_bounds():
    # at t = 0.1 both query counts stay precision dominated over the scan
    rows = ratio_and_budget(1.0, range(3, 1001, 2), 0.1, 1e-6)
    qb = max(row.alpha_qb * 0.1 for row in rows)
    qd = max(row.alpha_qd * 0.1 for row in rows)
    assert qb == pytest.approx(0.40, abs=0.005)
    assert qd == pytest.approx(0.07, abs=0.005)


def test_fixed_encoding_threshold_table_entry():
    ((_, a_max, _),) = lcu_fixed_encoding_thresholds(1.0, [3], 0.1, 1e-6)
    assert a_max == pytest.approx(2.56, abs=0.01)


def test_fixed_encoding_threshold_ordering_t01():
    favorable = []
    for d, a_max, a_rz in lcu_fixed_encoding_thresholds(1.0, PRIMES_TO_19, 0.1, 1e-6):
        if a_max > a_rz:
            favorable.append(d)
    assert favorable == [3, 5]


def test_fixed_encoding_threshold_ordering_t3000():
    for d, a_max, a_rz in lcu_fixed_encoding_thresholds(1.0, PRIMES_TO_19, 3000.0, 1e-6):
        assert a_max > a_rz, d
    ((_, a_max, a_rz),) = lcu_fixed_encoding_thresholds(1.0, [23], 3000.0, 1e-6)
    assert a_max < a_rz
