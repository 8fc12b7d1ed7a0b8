"""Each report row checks d once and evaluates each cost formula it prints once.

Runs each report command in-process over the odd d <= 41 under the one
profiler hook of the tests (helpers.entered), and counts per printed row the
calls of the one dimension check, the qudit one-norm and the synthesis
cost of a rotation.  A report checks its scalar inputs once, whatever its
row count, and so does `verify`.  `verify` builds each closed form, each
selection phase list and schedule, each one-norm, each level array and
each exact numerator array once per dimension, in one pass for all its
per-d suites: its block calls cover each d exactly once.  Every test
starts from an empty parser cache (fresh_caches), so that each report
builds its parser itself, and that cache is the only global of cli,
costmodel and simverify that a run of each command changes.
"""

import copy

import numpy as np
import pytest
from helpers import entered, main_stdout

from quditcost import cli, costmodel, simverify
from quditcost.costmodel import lcu_fixed_encoding_thresholds, ratio_and_budget

pytestmark = pytest.mark.usefixtures("fresh_caches")

COUNTED = [costmodel.register_width, costmodel.clock_one_norm, costmodel.rz_cost]


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
    argv = [command, "--all-odd", "--d-max", "41"]
    out, calls = entered(lambda: main_stdout(argv), {func.__code__ for func in COUNTED})
    rows = [line for line in out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 20  # d = 3, 5, ..., 41
    names = [code.co_name for code, _ in calls]
    assert {func.__name__: names.count(func.__name__) / len(rows) for func in COUNTED} == expected


@pytest.mark.parametrize("report", [ratio_and_budget, lcu_fixed_encoding_thresholds], ids=lambda f: f.__name__)
def test_a_generator_of_d_is_priced_once(report):
    ds = [3, 5, 99, 101, 4001]
    rows, calls = entered(lambda: report(2.5, (d for d in ds), 17.3, 1e-9), {costmodel.register_width.__code__})
    assert [args["d"] for _, args in calls] == ds
    assert rows == report(2.5, ds, 17.3, 1e-9)


@pytest.mark.parametrize("command", ["scan-ratio", "lcu-table", "pf-thresholds", "verify"])
def test_each_report_checks_phi_max_once(command):
    codes = {costmodel.check_phi_max.__code__}
    if command == "verify":
        # run_suites checks it; the suites' builders take phi_max unchecked
        runs = [["verify", "--d-max", "9", "--census-max", "15"]]
    else:
        runs = [[command, "--all-odd", "--d-max", d_max] for d_max in ("5", "41", "257")]
    for argv in runs:
        assert len(entered(lambda: main_stdout(argv), codes)[1]) == 1, argv


@pytest.mark.parametrize(
    "function",
    [
        simverify.beta_closed_form,
        # the select-schedule target and the schedules share one phase list per d
        simverify.select_diag_phases,
        # the select-schedule check and the census read one float schedule per d
        simverify.fixed_encoding_select_schedule,
        # the preparation amplitudes and the one-norm check share it
        costmodel.clock_one_norm,
        # one exact N_k array per census d feeds the count and the closed-form angles
        simverify.select_numerators,
        # the step-schedule target and the FFT oracle share one squared level array
        simverify.level_array,
    ],
    ids=lambda function: function.__name__,
)
def test_verify_builds_each_array_once_per_dimension(function):
    # one pass over d = 3 .. 129 in blocks: the dense suites read d <= 9,
    # the census suites all of them.  A call covers the d of its `d`
    # argument, one d or one per level, or the dimensions `sizes` it is handed
    argv = ["verify", "--d-max", "9", "--census-max", "129"]
    _, calls = entered(lambda: main_stdout(argv), {function.__code__})
    built = [int(d) for _, args in calls for d in (args["sizes"] if "sizes" in args else np.unique(args["d"]))]
    assert built == list(range(3, 130, 2))


def test_verify_evaluates_the_irreducibility_floor_once_per_dimension():
    # the floor depends on d alone: one value per d of each block, not one per
    # level, and one more at the largest d, where run_suites checks phi_max
    _, calls = entered(lambda: main_stdout(["verify"]), {simverify.irreducibility_floor.__code__})
    sizes = [np.size(args["d"]) for _, args in calls]
    # the default caps: the 256 odd d <= 513, in 66,048 levels
    assert sizes[0] == 1 and sum(sizes) == 256 + 1


def test_the_report_path_keeps_only_the_parser_between_calls():
    # every global of the three modules, with a shallow copy of each dict, list
    # or set, before and after one run of each command: only the parser cache,
    # which serves repeated calls in one process, may change
    modules = (cli, costmodel, simverify)

    def state():
        return {
            (module.__name__, name): (value, copy.copy(value) if isinstance(value, (dict, list, set)) else None)
            for module in modules
            for name, value in vars(module).items()
        }

    before = state()
    for argv in (
        ["scan-ratio", "--format", "json"],
        ["lcu-table"],
        ["pf-thresholds", "--all-odd"],
        ["verify", "--d-max", "5", "--census-max", "7"],
    ):
        main_stdout(argv)
    after = state()
    # the names of the globals bound, rebound, deleted or changed in contents
    changed = {
        name for module, name in before.keys() | after.keys()
        if (module, name) not in before or (module, name) not in after
        or before[module, name][0] is not after[module, name][0]
        or before[module, name][1] != after[module, name][1]
    }
    assert changed == {"_PARSER"}
