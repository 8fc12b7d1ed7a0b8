"""The per-process memos of the report path change no byte of a report.

costmodel stores the (n_b, alpha_qb, alpha_qd) of each d of a key
(phi_max, ds) that a block-encoding pass priced twice, and cli the
--primes dimensions of each range.  A report served from them must print
what a fresh process prints and raise what a fresh pass raises; a pass
that raises stores nothing.  Every test starts from empty caches
(fresh_caches).
"""

import re
import sys

import numpy as np
import oracles
import pytest
from helpers import entered, fresh_process_stdout, main_stdout

from quditcost import cli, costmodel
from quditcost.costmodel import SynthesisModel, lcu_fixed_encoding_thresholds, ratio_and_budget

DS = range(3, 258, 2)

pytestmark = pytest.mark.usefixtures("fresh_caches")


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["scan-ratio", "lcu-table"])
def test_a_third_call_prints_the_bytes_of_a_fresh_process(command, fmt):
    argv = [command, "--phi-max", "2.5", "--d-max", "257", "--t", "37.5", "--format", fmt]
    codes = {costmodel.clock_one_norm.__code__}
    # priced, priced and stored, then read from the memo
    outputs = [entered(lambda: main_stdout(argv), codes) for _ in range(3)]
    rows = 128 if command == "scan-ratio" else 54
    assert [len(calls) for _, calls in outputs] == [rows, rows, 0]
    want = fresh_process_stdout("-m", "quditcost.cli", *argv)
    assert [text for text, _ in outputs] == [want] * 3


def test_a_pass_that_raises_stores_nothing():
    rows = ratio_and_budget(1.0, DS, 0.1, 1e-6, 2, SynthesisModel(1.0, 0.0))
    # a slope at which the qudit total overflows from n_b = 9: at d = 257 alone
    model = SynthesisModel(sys.float_info.max / (1.5 * max(row.t_tot_qd for row in rows[:-1])), 0.0)
    want = outcome(lambda: [oracles.scan_row(1.0, d, 0.1, 1e-6, 2, model) for d in DS])
    assert want.startswith("the cost at d=257, ")
    # the second and the third sighting raise at that d, and neither stores
    for _ in range(2):
        assert outcome(lambda: ratio_and_budget(1.0, DS, 0.1, 1e-6, 2, model)) == want
        assert costmodel._DIMENSION_TERMS == {(1.0, DS): None}
    # the next pass that returns stores, and a hit raises the same error
    assert ratio_and_budget(1.0, DS, 0.1, 1e-6, 2, SynthesisModel(1.0, 0.0)) == rows
    assert costmodel._DIMENSION_TERMS == {(1.0, DS): [(row.n_b, row.alpha_qb, row.alpha_qd) for row in rows]}
    assert outcome(lambda: ratio_and_budget(1.0, DS, 0.1, 1e-6, 2, model)) == want


@pytest.mark.parametrize("report", [ratio_and_budget, lcu_fixed_encoding_thresholds])
def test_a_generator_is_priced_once_and_gives_the_rows_of_the_list(report):
    ds = [3, 5, 99, 101, 4001]
    codes = {costmodel.register_width.__code__}
    rows, calls = entered(lambda: report(2.5, (d for d in ds), 17.3, 1e-9), codes)
    assert len(calls) == len(ds)
    # the generator's tuple and the list are one key, priced once before
    assert costmodel._DIMENSION_TERMS == {(2.5, tuple(ds)): None}
    assert report(2.5, ds, 17.3, 1e-9) == rows
    assert list(costmodel._DIMENSION_TERMS) == [(2.5, tuple(ds))]


@pytest.mark.parametrize("report", [ratio_and_budget, lcu_fixed_encoding_thresholds])
def test_a_float_d_raises_the_same_type_error_cold_and_warm(report):
    def float_pass():
        with pytest.raises(TypeError, match=re.escape("d must be an integer, got 3.0")) as info:
            report(1.0, [3.0, 5.0], 0.1, 1e-6)
        return str(info.value)

    cold = float_pass()
    # a numpy integer is an index: its rows are those of the ints, and print like them
    rows = report(1.0, [3, 5], 0.1, 1e-6)
    assert repr(report(1.0, np.array([3, 5]), 0.1, 1e-6)) == repr(rows)
    assert costmodel._DIMENSION_TERMS[1.0, (3, 5)] is not None
    # 3.0 == 3, so (1.0, (3.0, 5.0)) would find the stored key
    assert float_pass() == cold
    assert repr(report(1.0, np.array([3, 5]), 0.1, 1e-6)) == repr(rows)


def test_phi_max_1_and_2_5_never_share_an_entry():
    stored = {}
    for _ in range(3):
        for phi_max in (1.0, 2.5):
            rows = ratio_and_budget(phi_max, DS, 0.1, 1e-6)
            assert rows == [oracles.scan_row(phi_max, d, 0.1, 1e-6) for d in DS]
            stored[phi_max, DS] = [(row.n_b, row.alpha_qb, row.alpha_qd) for row in rows]
    assert costmodel._DIMENSION_TERMS == stored


def test_primes_are_tested_once_per_range():
    codes = {cli.is_prime.__code__}
    argv = ["lcu-table", "--d-min", "5", "--d-max", "257"]
    assert [len(entered(lambda: main_stdout(argv), codes)[1]) for _ in range(2)] == [127, 0]
    # --d-min 4 starts at the same odd d: the same range
    argv[2] = "4"
    assert entered(lambda: main_stdout(argv), codes)[1] == []
    assert list(cli._PRIMES) == [(5, 257)]
    # another bound is another range
    assert cli._d_values(7, 257, True, "")[0] == 7 and cli._d_values(5, 101, True, "")[-1] == 101
