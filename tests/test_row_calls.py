"""Each report row checks d once and evaluates each cost formula it prints once.

Runs each report command in-process over the odd d <= 41 under a profiler
hook, as tests/test_reachability.py does, and counts per printed row the
calls of the one dimension check, the qudit one-norm and the synthesis
cost of a rotation.  A report checks its scalar inputs once, whatever its
row count, and so does `verify`.  `verify` builds each closed form, each
selection phase list and schedule, each one-norm, each level array and
each exact numerator array once per dimension, in one pass for all its
per-d suites, and a process sums the one-norm weights of each small d once.
"""

import contextlib
import io
import sys

import pytest

from quditcost import cli, costmodel, lcu, pauli

COUNTED = {
    "register_width": costmodel.register_width,
    "clock_one_norm": costmodel.clock_one_norm,
    "rz_cost": costmodel.rz_cost,
}


def calls_per_row(argv):
    names = {func.__code__: name for name, func in COUNTED.items()}
    counts = dict.fromkeys(COUNTED, 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    out = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert code == 0
    rows = [line for line in out.getvalue().splitlines() if line[:1].isdigit()]
    assert len(rows) == 20  # d = 3, 5, ..., 41
    return {name: count / len(rows) for name, count in counts.items()}


@pytest.mark.parametrize(
    "command,expected",
    [
        # the qubit chain takes no synthesis cost; the hybrid chain one
        ("scan-ratio", {"register_width": 1, "clock_one_norm": 1, "rz_cost": 1}),
        # the qudit queries and one break-even; no hybrid call is priced
        ("lcu-table", {"register_width": 1, "clock_one_norm": 1, "rz_cost": 1}),
        # the binary-register step and the break-even reference
        ("pf-thresholds", {"register_width": 1, "clock_one_norm": 0, "rz_cost": 2}),
    ],
)
def test_each_row_checks_d_once_and_prices_each_formula_once(command, expected):
    assert calls_per_row([command, "--all-odd", "--d-max", "41"]) == expected


@pytest.mark.parametrize("command", ["scan-ratio", "lcu-table", "pf-thresholds", "verify"])
def test_each_report_checks_phi_max_once(command):
    code = costmodel.check_phi_max.__code__
    if command == "verify":
        # run_suites checks it; the suites' builders take phi_max unchecked
        runs = [["verify", "--d-max", "9", "--census-max", "15"]]
    else:
        runs = [[command, "--all-odd", "--d-max", d_max] for d_max in ("5", "41", "257")]
    for argv in runs:
        assert calls_of(code, argv) == 1, argv


def calls_of(code, argv):
    """How often `main(argv)` enters the function whose code object is `code`."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert exit_code == 0
    return calls


@pytest.mark.parametrize(
    "function",
    [
        pauli.beta_closed_form,
        # the select-schedule target and the schedules share one phase list per d
        pauli.select_diag_phases,
        # the select-schedule check and the census read one float schedule per d
        lcu.fixed_encoding_select_schedule,
        # the preparation amplitudes and the one-norm check share it
        costmodel.clock_one_norm,
        # one exact N_k array per census d feeds the count and the closed-form angles
        lcu.select_numerators,
        # the step-schedule target and the FFT oracle share one squared level array
        pauli.level_array,
    ],
    ids=lambda function: function.__name__,
)
def test_verify_builds_each_array_once_per_dimension(function):
    # one pass over d = 3 .. 15: the dense suites read d <= 9, the census suites all seven
    assert calls_of(function.__code__, ["verify", "--d-max", "9", "--census-max", "15"]) == 7


def test_a_process_sums_the_one_norm_weights_once_per_dimension(monkeypatch):
    monkeypatch.setattr(costmodel, "_HALF_WEIGHT_SUMS", {})
    argv = ["scan-ratio", "--d-max", "41"]
    # d = 3, 5, ..., 41, then none again
    assert [calls_of(costmodel._half_weight_sum.__code__, argv) for _ in range(2)] == [20, 0]
    for d in range(3, costmodel.ONE_NORM_CLOSED_FORM_D, 2):
        weights = costmodel._half_weight_sum(d)
        assert costmodel.clock_one_norm(1.7, d) == 1.7**2 * 4.0 / (d - 1) ** 2 * weights, d
