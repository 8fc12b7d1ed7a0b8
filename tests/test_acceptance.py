"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import math

import numpy as np
from oracles import (
    centered_partial_sum,
    levels,
    make_grid,
    precision_parameter,
    qubit_blockencoding_cost,
    squared_mean,
)

from quditcost.costmodel import (
    clock_one_norm,
    lcu_fixed_encoding_thresholds,
    pf_thresholds,
    ratio_and_budget,
)
from quditcost.lcu import (
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    select_numerators,
    signed_labels,
)
from quditcost.pauli import beta_closed_form, beta_dft_oracle, level_array, select_diag_phases
from quditcost.simverify import fan_state, ladder_diagonal, phase_error
from quditcost.trotter import qudit_trotter_angles

PRIMES_TO_19 = [3, 5, 7, 11, 13, 17, 19]


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_pf_thresholds():
    targets = {3: 1.51, 5: 1.48, 7: 0.96}
    ok = all(
        abs(row.a_max_pf - val) <= 0.01 for row, val in zip(pf_thresholds(targets, 1e-6), targets.values())
    )
    rows = pf_thresholds(PRIMES_TO_19, 1e-6)
    favorable = [row.d for row in rows if row.a_max_pf > row.a_rz_pf]
    ok = ok and favorable == [3, 5]
    report(1, "product-formula break-even prefactors and favorable set", ok)


def test_criterion_2_qubit_lcu_cost_formula():
    ok = precision_parameter(1e-6) == 13
    for d in (3, 5, 9, 17, 33, 65, 129, 257, 513):  # n_b = 2 .. 10
        grid = make_grid(1.0, d)
        cost = qubit_blockencoding_cost(grid, 1e-6)
        ok = ok and cost == 32 * precision_parameter(1e-6) + 24 * grid.n_b - 116
        # the printed per-call count is the Toffoli breakdown at the row's budget
        for t in (0.1, 3000.0):
            (row,) = ratio_and_budget(1.0, [d], t, 1e-6)
            ok = ok and row.per_call_qb == qubit_blockencoding_cost(grid, 1e-6 / row.q_qb)
    report(2, "qubit block-encoding T-count formula, exact for n_b in 2..10", ok)


def test_criterion_3_fixed_encoding_table():
    targets = dict(zip(PRIMES_TO_19, [2.56, 1.32, 0.85, 0.53, 0.44, 0.34, 0.30]))
    ok = True
    for (_, a_max, _), val in zip(lcu_fixed_encoding_thresholds(1.0, targets, 0.1, 1e-6), targets.values()):
        ok = ok and abs(a_max - val) <= 0.01
    report(3, "fixed-encoding break-even table at t=0.1", ok)


def test_criterion_4_ratio_golden_values_t01():
    targets = {3: 2.033787, 5: 1.006205, 7: 0.999963}
    ok = True
    for r, val in zip(ratio_and_budget(1.0, targets, 0.1, 1e-6), targets.values()):
        ok = ok and math.isclose(r.ratio, val, rel_tol=1e-3)
    delta3 = ratio_and_budget(1.0, [3], 0.1, 1e-6)[0].delta_tot
    ok = ok and math.isclose(delta3, 4.20e3, rel_tol=0.02)
    report(4, "total-cost ratios and absolute saving at t=0.1", ok)


def test_criterion_5_ratio_golden_values_t3000():
    targets = {5: 3.959978, 21: 1.062653, 23: 0.835319}
    ok = True
    for r, val in zip(ratio_and_budget(1.0, targets, 3000.0, 1e-6), targets.values()):
        ok = ok and math.isclose(r.ratio, val, rel_tol=1e-3)
    favorable = [r.d for r in ratio_and_budget(1.0, range(3, 1002, 2), 3000.0, 1e-6) if r.ratio > 1]
    ok = ok and favorable == [3, 5, 7, 9, 11, 13, 17, 19, 21]
    delta9 = ratio_and_budget(1.0, [9], 3000.0, 1e-6)[0].delta_tot
    ok = ok and math.isclose(delta9, 3.65e6, rel_tol=0.02)
    report(5, "total-cost ratios, favorable set, and saving at t=3000", ok)


def test_criterion_6_code_switch_budgets():
    def budget(d, t):
        return ratio_and_budget(1.0, [d], t, 1e-6, k=2)[0].budget_per_switch

    ok = math.isclose(budget(3, 0.1), 1.05e2, rel_tol=0.02)
    ok = ok and math.isclose(budget(5, 0.1), 1.35, rel_tol=0.02)
    ok = ok and budget(7, 0.1) < 0
    for d, val in {3: 2.87e2, 5: 7.42e2, 9: 8.97e2, 17: 6.65e2, 21: 6.34e1}.items():
        ok = ok and math.isclose(budget(d, 3000.0), val, rel_tol=0.02)
    ok = ok and budget(23, 3000.0) < 0
    report(6, "per-switch overhead budgets at k=2", ok)


def test_criterion_7_fixed_encoding_t3000():
    a5, a19 = lcu_fixed_encoding_thresholds(1.0, [5, 19], 3000.0, 1e-6)
    ok = math.isclose(a5.a_max_lcu, 4.794611, rel_tol=1e-3)
    ok = ok and math.isclose(a5.a_rz_lcu, 0.825901, rel_tol=1e-3)
    ok = ok and math.isclose(a19.a_max_lcu, 1.339724, rel_tol=1e-3)
    ok = ok and math.isclose(a19.a_rz_lcu, 0.810783, rel_tol=1e-3)
    for _, a_max, a_rz in lcu_fixed_encoding_thresholds(1.0, PRIMES_TO_19, 3000.0, 1e-6):
        ok = ok and a_max > a_rz
    (a23,) = lcu_fixed_encoding_thresholds(1.0, [23], 3000.0, 1e-6)
    ok = ok and a23.a_max_lcu < a23.a_rz_lcu
    report(7, "fixed-encoding thresholds and favorability at t=3000", ok)


def test_criterion_8_decomposition_oracles():
    ok = True
    worst = 0.0
    for d in range(3, 65, 2):
        grid = make_grid(1.0, d)
        n = np.arange(d)
        betas, c_amps = beta_closed_form(1.0, d, n)

        # (a) native step schedule reproduces diag(e^(-i t (lambda^2 - mu)))
        for t in (0.1, 1.0, 3.7):
            (angles,) = qudit_trotter_angles(1.0, d, n[1:], [t])
            realized = ladder_diagonal(angles)
            target = tuple(-t * lam**2 for lam in levels(grid))
            err = phase_error(realized, target)
            ok, worst = ok and err <= 1e-10, max(worst, err)

        # (b) selection schedule reproduces the phase diagonal
        target = select_diag_phases(1.0, d, n, c_amps)
        realized = ladder_diagonal(fixed_encoding_select_schedule(target, [d])[1:])
        err = phase_error(realized, target)
        ok, worst = ok and err <= 1e-10, max(worst, err)

        # (c) preparation schedule loads the coefficient amplitudes
        amps = np.zeros(d)
        amps[1:] = [math.sqrt(abs(b) / clock_one_norm(1.0, d)) for b in betas[1:]]
        state = fan_state(prep_ry_schedule(amps[1:]))
        err = float(np.linalg.norm(state - amps))
        ok, worst = ok and err < 1e-10, max(worst, err)

    # (d) projector diagonal equals the squared label, exactly, n_b <= 8
    for n_b in range(2, 9):
        for d in (2 ** (n_b - 1) + 1, 2**n_b - 1):
            grid = make_grid(1.0, d)
            labels = signed_labels(grid.n_b)
            oracle = qubit_projector_diag_oracle(1.0, d)
            scale = grid.delta_phi**2
            ok = ok and len(oracle) == len(labels) == 2**n_b
            ok = ok and all(value == scale * label**2 for value, label in zip(oracle, labels))
    report(8, f"decomposition oracle suite (worst dense error {worst:.2e})", ok)


def test_criterion_9_coefficient_oracles():
    ok = True
    worst = 0.0
    offsets = set()
    for d in range(3, 514, 2):
        n = np.arange(d)
        closed, c_amps = beta_closed_form(1.0, d, n)
        oracle = beta_dft_oracle(level_array(1.0, d, n) ** 2)
        err = max(abs(a - b) for a, b in zip(closed, oracle))
        ok, worst = ok and err < 1e-10, max(worst, err)
        for r in range(1, d):
            ok = ok and abs(closed[d - r] - closed[r].conjugate()) < 1e-12
            ok = ok and (c_amps[r] < 0) == (r >= (d + 1) // 2)
        offsets.add(d - 1 - select_nontrivial_count(d, select_numerators(d, n[1:]), [0])[0])
    ok = ok and offsets <= {0, 1, 3}
    report(
        9,
        f"coefficient oracle suite (worst DFT gap {worst:.2e}, census offsets {sorted(offsets)})",
        ok,
    )


def test_criterion_10_centered_partial_sums():
    ok = True
    for d in range(3, 514, 2):
        grid = make_grid(1.0, d)
        mu = squared_mean(grid)
        running = 0.0
        for k in range(d - 1):
            running += levels(grid)[k] ** 2 - mu
            closed = centered_partial_sum(grid, k)
            ok = ok and math.isclose(closed, running, rel_tol=1e-10, abs_tol=1e-12)
            ok = ok and closed != 0.0
    report(10, "centered partial sums: closed form vs direct, never zero", ok)
