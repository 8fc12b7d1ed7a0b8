"""Each report row checks d once and evaluates each cost formula it prints once.

Runs each report command in-process over the odd d <= 41 under a profiler
hook, as tests/test_reachability.py does, and counts per printed row the
calls of the one dimension check, the qudit one-norm and the synthesis
cost of a rotation.  `verify` builds each closed-form expansion once per
dimension in each of its two passes.
"""

import contextlib
import io
import sys

import pytest

from quditcost import cli, costmodel, grid, pauli

COUNTED = {
    "register_width": grid.register_width,
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


def test_verify_builds_each_closed_form_once_per_dimension_per_pass():
    code = pauli.beta_closed_form.__code__
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(["verify", "--d-max", "9", "--census-max", "15"])
    finally:
        sys.setprofile(previous)
    assert exit_code == 0
    # the dense pass over d = 3 .. 9, the census pass over d = 3 .. 15
    assert calls == 4 + 7
