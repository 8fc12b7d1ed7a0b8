"""The report passes of costmodel against the per-d chain they replaced.

tests/oracles.py keeps that chain as it was: a grid per row, the query
count, the two cost chains and one row function per report.  Each pass
must print the same rows, float for float, and raise the same error for
every input that the chain rejects.
"""

import itertools
import math

import oracles
import pytest
from helpers import fresh_process_stdout

from quditcost.costmodel import MAX_D, SynthesisModel, lcu_fixed_encoding_thresholds, pf_thresholds, ratio_and_budget

PHI_MAX = [1e-200, 0.37, 1.0, 2.5, 10.0]
TIMES = [0.0, 0.1, 17.3, 3000.0]
EPS = [0.5, 1e-6, 1e-12, 1e-297]
KS = [1, 2, 3]
# both sides of costmodel.ONE_NORM_SERIES_D, and dimensions up to the per-rotation floor
DS = [3, 5, 7, 33, 99, 101, 103, 4001, 1000001, 16777217]


def outcome(call):
    """The rows of `call()`, or the type and message of the error it raises."""
    try:
        return call()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def per_d(oracle_row, ds):
    """The oracle's rows over ds, or its first error, as a pass over ds would report it."""
    return outcome(lambda: [oracle_row(d) for d in ds])


def assert_same(got, want):
    assert got == want
    if isinstance(want, list):
        # equal floats with equal repr: the same bits, signed zeros included
        for row, expected in zip(got, want):
            assert type(row) is type(expected)
            assert list(map(repr, row)) == list(map(repr, expected))


@pytest.mark.parametrize("phi_max", PHI_MAX)
def test_scan_rows_equal_the_per_d_chain(phi_max):
    for t, eps, k in itertools.product(TIMES, EPS, KS):
        for ds in [[d] for d in DS] + [DS[:6]]:
            want = per_d(lambda d: oracles.scan_row(phi_max, d, t, eps, k), ds)
            assert_same(outcome(lambda: ratio_and_budget(phi_max, ds, t, eps, k)), want)


@pytest.mark.parametrize("phi_max", PHI_MAX)
def test_lcu_rows_equal_the_per_d_chain(phi_max):
    for t, eps in itertools.product(TIMES, EPS):
        for ds in [[d] for d in DS] + [DS[:6]]:
            want = per_d(lambda d: oracles.lcu_row(phi_max, d, t, eps), ds)
            assert_same(outcome(lambda: lcu_fixed_encoding_thresholds(phi_max, ds, t, eps)), want)


def test_pf_rows_equal_the_per_d_chain():
    for eps in EPS + [1e-9, 1e-300]:
        for ds in [[d] for d in DS] + [DS[:6], range(3, 258, 2)]:
            want = per_d(lambda d: oracles.pf_row(d, eps), ds)
            assert_same(outcome(lambda: pf_thresholds(ds, eps)), want)


def test_rows_under_a_model_equal_the_per_d_chain():
    model = SynthesisModel(rz_slope=1.3, rz_intercept=0.0)
    ds = list(range(3, 260, 2))
    scan = [oracles.scan_row(2.5, d, 17.3, 1e-9, 3, model) for d in ds]
    assert_same(ratio_and_budget(2.5, ds, 17.3, 1e-9, 3, model), scan)
    lcu = [oracles.lcu_row(2.5, d, 17.3, 1e-9, model) for d in ds]
    assert_same(lcu_fixed_encoding_thresholds(2.5, ds, 17.3, 1e-9, model), lcu)
    assert_same(pf_thresholds(ds, 1e-9, model), [oracles.pf_row(d, 1e-9, model) for d in ds])


# One argument set per input class that the chain rejects, each with one bad input.
INVALID = {
    "k below 1": dict(k=0),
    "negative t": dict(t=-1.0),
    "t nan": dict(t=math.nan),
    "t inf": dict(t=math.inf),
    "eps zero": dict(eps=0.0),
    "eps above 1": dict(eps=1.5),
    "Q not above eps": dict(eps=0.9),
    "budget below the floor": dict(t=1e305),
    "per-rotation floor": dict(d=20000001, t=0.01, eps=1e-297),
    "total overflows": dict(d=8388609, t=1.2e299, eps=0.5),
    "switch count overflows": dict(k=10**308),
    "k nan": dict(k=math.nan),
    "k not an integer": dict(k=2.5),
    "k an integral float": dict(k=2.0),
    "k past the largest float": dict(k=10**400),
    # str() of an int past 4,300 digits raises its own ValueError
    "k of 5,000 digits": dict(k=10**5000),
    "k below minus the largest float": dict(k=-(10**5000)),
    "synthesis cost overflows": dict(model=SynthesisModel(rz_slope=1e308)),
    "even d": dict(d=4),
    "d below 3": dict(d=1),
    "d above MAX_D": dict(d=MAX_D + 1),
    "phi_max nan": dict(phi_max=math.nan),
    "phi_max overflows": dict(phi_max=1e200),
}


@pytest.mark.parametrize("case", INVALID.values(), ids=INVALID)
def test_each_invalid_input_raises_the_chain_error(case):
    args = {**dict(phi_max=1.0, d=3, t=0.1, eps=1e-6, k=2, model=SynthesisModel()), **case}
    phi_max, d, t, eps, k, model = args.values()
    want = outcome(lambda: oracles.scan_row(phi_max, d, t, eps, k, model))
    assert isinstance(want, tuple) and want[0] is ValueError, want
    assert outcome(lambda: ratio_and_budget(phi_max, [d], t, eps, k, model)) == want
    # the other two reports, where they read the bad input
    if "k" not in case:
        want = per_d(lambda d: oracles.lcu_row(phi_max, d, t, eps, model), [d])
        assert outcome(lambda: lcu_fixed_encoding_thresholds(phi_max, [d], t, eps, model)) == want
    if not {"phi_max", "t", "k"} & set(case):
        want = per_d(lambda d: oracles.pf_row(d, eps, model), [d])
        assert outcome(lambda: pf_thresholds([d], eps, model)) == want


@pytest.mark.parametrize(
    "k,message",
    [
        # once "k=nan is too large", which blamed the size of a value that has none
        (math.nan, "switch count k must be an integer, got nan"),
        # once priced, as 2.5 switches per query
        (2.5, "switch count k must be an integer, got 2.5"),
        # once an OverflowError from formatting k as a float
        (10**400, "switch count k has 1329 bits, past the largest float 1.79769e+308"),
        # its str() would pass 4,300 digits, which raises a ValueError of its own
        (-(10**5000), "switch count k has 16610 bits, past the largest float 1.79769e+308"),
    ],
    ids=["nan", "2.5", "10**400", "-10**5000"],
)
def test_a_switch_count_that_is_no_float_sized_integer_is_named(k, message):
    with pytest.raises(ValueError) as excinfo:
        ratio_and_budget(1.0, [3], 0.1, 1e-6, k)
    assert str(excinfo.value) == message


def test_an_error_at_a_later_d_is_the_error_of_that_d():
    ds = [3, 5, 20000001, 7]
    want = per_d(lambda d: oracles.scan_row(1.0, d, 0.01, 1e-297), ds)
    assert want[0] is ValueError and "d=20000001 " in want[1]
    assert ratio_and_budget(1.0, ds[:2], 0.01, 1e-297) == [oracles.scan_row(1.0, d, 0.01, 1e-297) for d in ds[:2]]
    assert outcome(lambda: ratio_and_budget(1.0, ds, 0.01, 1e-297)) == want


# Each call, in a new process, prints the ValueError it raises.  DS holds
# about 10^154 dimensions up to MAX_D: a pass that priced them before it
# reached its last d would not end, and the timeout fails the test instead.
# A first row fails it at once.
PAST_MAX_D = """
import sys
from quditcost.costmodel import lcu_fixed_encoding_thresholds, pf_thresholds, ratio_and_budget

def row(*columns):
    raise AssertionError(f"a row was priced: {columns}")

DS = range(3, 10**200, 2)
for call in sys.argv[1:]:
    try:
        eval(call)
    except ValueError as exc:
        print(exc)
"""
# each pass, with valid scalars and with each scalar fault: the range fails first
CALLS_PAST_MAX_D = {
    "pf_thresholds": ["pf_thresholds(DS, 1e-6, row=row)", "pf_thresholds(DS, 2.0, row=row)"],
    "lcu_fixed_encoding_thresholds": [
        f"lcu_fixed_encoding_thresholds({phi_max}, DS, {t}, {eps}, row=row)"
        for phi_max, t, eps in [(1.0, 0.1, 1e-6), (-1.0, 0.1, 1e-6), (1.0, -1.0, 1e-6), (1.0, 0.1, 2.0)]
    ],
    "ratio_and_budget": [
        f"ratio_and_budget({phi_max}, DS, {t}, {eps}, {k}, row=row)"
        for phi_max, t, eps, k in [(1.0, 0.1, 1e-6, 2), (1.0, 0.1, 1e-6, 0), (-1.0, -1.0, 2.0, 2)]
    ],
}


@pytest.mark.parametrize("report", sorted(CALLS_PAST_MAX_D))
def test_a_library_pass_over_a_range_past_max_d_fails_before_its_first_row(report):
    calls = CALLS_PAST_MAX_D[report]
    out = fresh_process_stdout("-c", PAST_MAX_D, *calls, timeout=10)
    message = f"d={10**200 - 1} is too large: (d - 1)^2 overflows a float above d = {MAX_D:.3g}"
    assert out.splitlines() == [message] * len(calls)
