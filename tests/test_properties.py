"""Property tests over the input domain the report commands accept or reject.

Derandomized with a bounded number of examples, so every run checks the
same cases.
"""

import contextlib
import io
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcost.cli import main
from quditcost.costmodel import (
    MAX_D,
    MIN_CALL_BUDGET,
    SynthesisModel,
    pf_thresholds,
    ratio_and_budget,
    register_width,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

PHI_MAX = st.floats(min_value=0.0, max_value=1e100, exclude_min=True)
ODD_D = st.integers(1, 128).map(lambda m: 2 * m + 1)
TIME = st.floats(min_value=0.0, max_value=3000.0)
EPS = st.floats(min_value=1e-12, max_value=1e-2)

BAD = {
    "--phi-max": st.one_of(
        st.just(math.nan),
        st.floats(max_value=0.0),
        # past the largest accepted phi_max, 6.70e153
        st.floats(min_value=6.71e153),
    ),
    "--eps": st.one_of(
        st.just(math.nan),
        st.floats(max_value=MIN_CALL_BUDGET, exclude_max=True),
        st.floats(min_value=1.0),
    ),
    "--t": st.one_of(
        st.just(math.nan),
        st.just(math.inf),
        st.floats(max_value=-math.ulp(0.0)),
    ),
}


@FIXED
@given(phi_max=PHI_MAX, d=ODD_D, t=TIME, eps=EPS, k=st.integers(1, 8))
def test_ratio_saving_and_budget_agree_in_sign(phi_max, d, t, eps, k):
    (report,) = ratio_and_budget(phi_max, [d], t, eps, k)
    assert (report.ratio > 1) == (report.delta_tot > 0) == (report.budget_per_switch > 0)


@FIXED
@given(d=ODD_D, eps=EPS)
def test_pf_favorable_is_a_max_above_a_rz(d, eps):
    (row,) = pf_thresholds([d], eps)
    assert row.favorable == (row.a_max_pf > row.a_rz_pf)


@pytest.mark.parametrize(
    "command,flag",
    [
        (command, flag)
        for command in ("pf-thresholds", "lcu-table", "scan-ratio")
        for flag in BAD
        if not (command == "pf-thresholds" and flag == "--t")
    ],
)
@settings(FIXED, max_examples=25)
@given(data=st.data())
def test_bad_value_exits_2_with_one_stderr_line(command, flag, data):
    value = data.draw(BAD[flag])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, f"{flag}={value!r}", "--d-max", "5"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


# Every odd d from 7 to 2001 but 9, then d = 10^k + 1 up to MAX_D, and
# MAX_D itself when it is odd.  At d = 3, 5 and 9 the binary step's
# n_b (n_b + 1) / 2 rotations outnumber the native step's d - 1.
PF_BOUND_DS = [
    *(d for d in range(7, 2002, 2) if d != 9),
    *itertools.takewhile(lambda d: d <= MAX_D, (10**k + 1 for k in itertools.count(4))),
    *([MAX_D] if MAX_D % 2 else []),
]


@pytest.mark.parametrize("eps", [0.5, 1e-3, 1e-6, 1e-12, 1e-100])
def test_product_formulas_need_an_exponentially_stronger_per_primitive_advantage(eps):
    # With l_qb = n_b (n_b + 1) / 2 and g = log2((d - 1) / eps), a row holds
    # a_max_pf = l_qb rz(eps / l_qb) / ((d - 1) g) and a_rz_pf = rz(eps / (d - 1)) / g.
    # rz(eps / L) increases in L, so where l_qb <= d - 1 the advantage a
    # native rotation needs, a_rz_pf / a_max_pf, is at least (d - 1) / l_qb,
    # which grows as 2^n_b / n_b^2.  4 ulp cover the chain's roundings;
    # the ties at d = 7 and 11 land within 1.
    for model in (SynthesisModel(0.57, 8.83), SynthesisModel(1, 0), SynthesisModel(0, 5), SynthesisModel(3, 100)):
        for d, a_max, a_rz, _ in pf_thresholds(PF_BOUND_DS, eps, model):
            n_b = register_width(d)
            assert a_max * (d - 1) <= a_rz * (n_b * (n_b + 1) // 2) * (1 + 4 * 2**-52), (d, model)
