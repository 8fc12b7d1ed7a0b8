"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import math

import numpy as np
from oracles import centered_partial_sum, levels, squared_mean

from quditcost.costmodel import (
    lcu_fixed_encoding_thresholds,
    pf_thresholds,
    precision_parameter,
    qubit_blockencoding_cost,
    ratio_and_budget,
)
from quditcost.grid import make_grid
from quditcost.lcu import (
    fixed_encoding_select_schedule,
    prep_ry_schedule,
    qubit_projector_diag_oracle,
    select_nontrivial_count,
    signed_labels,
)
from quditcost.pauli import beta_closed_form, beta_dft_oracle, select_diag_phases
from quditcost.simverify import equal_up_to_global_phase, fan_state, ladder_diagonal
from quditcost.trotter import qudit_trotter_angles

PRIMES_TO_19 = [3, 5, 7, 11, 13, 17, 19]


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_pf_thresholds():
    targets = {3: 1.51, 5: 1.48, 7: 0.96}
    ok = all(
        abs(pf_thresholds(d, 1e-6).a_max_pf - val) <= 0.01 for d, val in targets.items()
    )
    rows = [pf_thresholds(d, 1e-6) for d in PRIMES_TO_19]
    favorable = [row.d for row in rows if row.a_max_pf > row.a_rz_pf]
    ok = ok and favorable == [3, 5]
    report(1, "product-formula break-even prefactors and favorable set", ok)


def test_criterion_2_qubit_lcu_cost_formula():
    ok = precision_parameter(1e-6) == 13
    for d in (3, 5, 9, 17, 33, 65, 129, 257, 513):  # n_b = 2 .. 10
        grid = make_grid(1.0, d)
        cost = qubit_blockencoding_cost(grid, 1e-6)
        ok = ok and cost == 32 * precision_parameter(1e-6) + 24 * grid.n_b - 116
    report(2, "qubit block-encoding T-count formula, exact for n_b in 2..10", ok)


def test_criterion_3_fixed_encoding_table():
    targets = dict(zip(PRIMES_TO_19, [2.56, 1.32, 0.85, 0.53, 0.44, 0.34, 0.30]))
    ok = True
    for d, val in targets.items():
        _, a_max, _ = lcu_fixed_encoding_thresholds(1.0, d, 0.1, 1e-6)
        ok = ok and abs(a_max - val) <= 0.01
    report(3, "fixed-encoding break-even table at t=0.1", ok)


def test_criterion_4_ratio_golden_values_t01():
    targets = {3: 2.033787, 5: 1.006205, 7: 0.999963}
    ok = True
    for d, val in targets.items():
        r = ratio_and_budget(1.0, d, 0.1, 1e-6)
        ok = ok and math.isclose(r.ratio, val, rel_tol=1e-3)
    delta3 = ratio_and_budget(1.0, 3, 0.1, 1e-6).delta_tot
    ok = ok and math.isclose(delta3, 4.20e3, rel_tol=0.02)
    report(4, "total-cost ratios and absolute saving at t=0.1", ok)


def test_criterion_5_ratio_golden_values_t3000():
    targets = {5: 3.959978, 21: 1.062653, 23: 0.835319}
    ok = True
    for d, val in targets.items():
        r = ratio_and_budget(1.0, d, 3000.0, 1e-6)
        ok = ok and math.isclose(r.ratio, val, rel_tol=1e-3)
    favorable = [
        d for d in range(3, 1002, 2) if ratio_and_budget(1.0, d, 3000.0, 1e-6).ratio > 1
    ]
    ok = ok and favorable == [3, 5, 7, 9, 11, 13, 17, 19, 21]
    delta9 = ratio_and_budget(1.0, 9, 3000.0, 1e-6).delta_tot
    ok = ok and math.isclose(delta9, 3.65e6, rel_tol=0.02)
    report(5, "total-cost ratios, favorable set, and saving at t=3000", ok)


def test_criterion_6_code_switch_budgets():
    def budget(d, t):
        return ratio_and_budget(1.0, d, t, 1e-6, k=2).budget_per_switch

    ok = math.isclose(budget(3, 0.1), 1.05e2, rel_tol=0.02)
    ok = ok and math.isclose(budget(5, 0.1), 1.35, rel_tol=0.02)
    ok = ok and budget(7, 0.1) < 0
    for d, val in {3: 2.87e2, 5: 7.42e2, 9: 8.97e2, 17: 6.65e2, 21: 6.34e1}.items():
        ok = ok and math.isclose(budget(d, 3000.0), val, rel_tol=0.02)
    ok = ok and budget(23, 3000.0) < 0
    report(6, "per-switch overhead budgets at k=2", ok)


def test_criterion_7_fixed_encoding_t3000():
    a5 = lcu_fixed_encoding_thresholds(1.0, 5, 3000.0, 1e-6)
    a19 = lcu_fixed_encoding_thresholds(1.0, 19, 3000.0, 1e-6)
    ok = math.isclose(a5.a_max_lcu, 4.794611, rel_tol=1e-3)
    ok = ok and math.isclose(a5.a_rz_lcu, 0.825901, rel_tol=1e-3)
    ok = ok and math.isclose(a19.a_max_lcu, 1.339724, rel_tol=1e-3)
    ok = ok and math.isclose(a19.a_rz_lcu, 0.810783, rel_tol=1e-3)
    for d in PRIMES_TO_19:
        _, a_max, a_rz = lcu_fixed_encoding_thresholds(1.0, d, 3000.0, 1e-6)
        ok = ok and a_max > a_rz
    a23 = lcu_fixed_encoding_thresholds(1.0, 23, 3000.0, 1e-6)
    ok = ok and a23.a_max_lcu < a23.a_rz_lcu
    report(7, "fixed-encoding thresholds and favorability at t=3000", ok)


def test_criterion_8_decomposition_oracles():
    ok = True
    worst = 0.0
    for d in range(3, 65, 2):
        grid = make_grid(1.0, d)
        expansion = beta_closed_form(grid)

        # (a) native step schedule reproduces diag(e^(-i t (lambda^2 - mu)))
        for t in (0.1, 1.0, 3.7):
            realized = ladder_diagonal(qudit_trotter_angles(grid, t))
            target = tuple(-t * lam**2 for lam in levels(grid))
            good, err = equal_up_to_global_phase(realized, target, tol=1e-10)
            ok, worst = ok and good, max(worst, err)

        # (b) selection schedule reproduces the phase diagonal
        realized = ladder_diagonal(fixed_encoding_select_schedule(expansion))
        target = select_diag_phases(expansion)
        good, err = equal_up_to_global_phase(realized, target, tol=1e-10)
        ok, worst = ok and good, max(worst, err)

        # (c) preparation schedule loads the coefficient amplitudes
        state = fan_state(prep_ry_schedule(expansion))
        amps = np.zeros(d)
        amps[1:] = [
            math.sqrt(abs(b) / expansion.lambda_norm) for b in expansion.betas[1:]
        ]
        err = float(np.linalg.norm(state - amps))
        ok, worst = ok and err < 1e-10, max(worst, err)

    # (d) projector diagonal equals the squared label, exactly, n_b <= 8
    for n_b in range(2, 9):
        for d in (2 ** (n_b - 1) + 1, 2**n_b - 1):
            grid = make_grid(1.0, d)
            labels = signed_labels(grid.n_b)
            oracle = qubit_projector_diag_oracle(grid)
            scale = grid.delta_phi**2
            ok = ok and len(oracle) == len(labels) == 2**n_b
            ok = ok and all(value == scale * label**2 for value, label in zip(oracle, labels))
    report(8, f"decomposition oracle suite (worst dense error {worst:.2e})", ok)


def test_criterion_9_coefficient_oracles():
    ok = True
    worst = 0.0
    offsets = set()
    for d in range(3, 514, 2):
        grid = make_grid(1.0, d)
        closed = beta_closed_form(grid)
        oracle = beta_dft_oracle(grid)
        err = max(abs(a - b) for a, b in zip(closed.betas, oracle.betas))
        ok, worst = ok and err < 1e-10, max(worst, err)
        for r in range(1, d):
            ok = ok and abs(closed.betas[d - r] - closed.betas[r].conjugate()) < 1e-12
            ok = ok and (closed.c_amps[r - 1] < 0) == (r >= (d + 1) // 2)
        offsets.add(d - 1 - select_nontrivial_count(d))
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
