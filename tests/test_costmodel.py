import math

import pytest

from quditcost.costmodel import (
    DEFAULT_MODEL,
    MIN_CALL_BUDGET,
    MIN_ROTATION_BUDGET,
    SynthesisModel,
    pf_thresholds,
    rz_cost,
)

PRIMES_TO_19 = [3, 5, 7, 11, 13, 17, 19]


def test_rz_cost_values():
    assert rz_cost(0.5, 1, 3) == pytest.approx(9.40, abs=1e-12)
    assert rz_cost(1e-6, 1, 3) == pytest.approx(20.191, abs=1e-3)


def test_rz_cost_monotone():
    assert rz_cost(1e-8, 1, 3) > rz_cost(1e-6, 1, 3)


def test_rz_cost_domain():
    with pytest.raises(ValueError):
        rz_cost(0.0, 1, 3)
    with pytest.raises(ValueError):
        rz_cost(1.0, 1, 3)
    # subnormal accuracies lose precision and their reciprocals can overflow
    with pytest.raises(ValueError):
        rz_cost(MIN_ROTATION_BUDGET / 2, 1, 3)
    assert math.isfinite(rz_cost(MIN_ROTATION_BUDGET, 1, 3))


def test_model_defaults_and_validation():
    assert DEFAULT_MODEL.rz_slope == 0.57
    assert DEFAULT_MODEL.rz_intercept == 8.83
    # the d-level routes are priced by break-even prefactors, not by a model field
    with pytest.raises(TypeError):
        SynthesisModel(qudit_prefactor=1.0)


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"rz_slope": math.nan}, "rz_slope"),
        ({"rz_intercept": math.inf}, "rz_intercept"),
        ({"rz_slope": -math.inf}, "rz_slope"),
        ({"rz_slope": -0.1}, "rz_slope"),
        ({"rz_intercept": -50.0}, "rz_intercept"),
        ({"rz_slope": 0.0, "rz_intercept": 0.0}, "both zero"),
    ],
)
def test_model_rejects_nonfinite_or_nonpositive_cost(fields, named):
    with pytest.raises(ValueError, match=named):
        SynthesisModel(**fields)


@pytest.mark.parametrize(
    "fields,named",
    [
        ({"rz_slope": -1.0}, "rz_slope must be nonnegative, got -1.0"),
        ({"rz_intercept": math.nan}, "rz_intercept must be finite, got nan"),
        ({"rz_slope": 0.0, "rz_intercept": 0.0}, "rz_slope and rz_intercept are both zero"),
    ],
)
def test_replace_checks_the_model_as_the_constructor_does(fields, named):
    with pytest.raises(ValueError) as constructed:
        SynthesisModel(**fields)
    with pytest.raises(ValueError) as replaced:
        SynthesisModel()._replace(**fields)
    assert str(replaced.value) == str(constructed.value) and str(constructed.value).startswith(named)
    flat = SynthesisModel()._replace(rz_slope=0.0)
    assert type(flat) is SynthesisModel and flat == (0.0, 8.83)


@pytest.mark.parametrize(
    "values,named",
    [
        ((-1.0, 8.83), "rz_slope must be nonnegative, got -1.0"),
        ((0.57, math.inf), "rz_intercept must be finite, got inf"),
        ((0.0, 0.0), "rz_slope and rz_intercept are both zero"),
    ],
)
def test_make_checks_the_model_as_the_constructor_does(values, named):
    with pytest.raises(ValueError) as constructed:
        SynthesisModel(*values)
    with pytest.raises(ValueError) as made:
        SynthesisModel._make(values)
    assert str(made.value) == str(constructed.value) and str(constructed.value).startswith(named)
    assert SynthesisModel._make([1.0, 2.0]) == SynthesisModel(1.0, 2.0)
    with pytest.raises(TypeError):
        SynthesisModel._make((1.0,))


def test_model_override_changes_cost():
    flat = SynthesisModel(rz_slope=0.0, rz_intercept=1.0)
    assert rz_cost(1e-6, 1, 3, flat) == 1.0


def test_pf_threshold_reference_values():
    (_, a3, _, _), (_, a5, _, _), (_, a7, _, _) = pf_thresholds([3, 5, 7], 1e-6)
    assert a3 == pytest.approx(1.51, abs=0.01)
    assert a5 == pytest.approx(1.48, abs=0.01)
    assert a7 == pytest.approx(0.96, abs=0.01)


def test_pf_favorable_only_for_3_and_5():
    rows = pf_thresholds(PRIMES_TO_19, 1e-6)
    favorable = [row.d for row in rows if row.a_max_pf > row.a_rz_pf]
    assert favorable == [3, 5]


def test_pf_equal_counts_give_equal_thresholds():
    # whenever d - 1 equals n_b (n_b + 1) / 2 the two prefactors coincide
    for _, a_max, a_rz, _ in pf_thresholds([7, 11], 1e-6):
        assert a_max == pytest.approx(a_rz, rel=1e-14)


def test_pf_threshold_vanishes_at_large_d():
    a_big = pf_thresholds([1021], 1e-6)[0].a_max_pf
    a_small = pf_thresholds([3], 1e-6)[0].a_max_pf
    assert a_big < a_small / 10


def test_pf_reference_prefactor_decreases_toward_slope():
    values = [row.a_rz_pf for row in pf_thresholds([3, 11, 101, 1001], 1e-6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > DEFAULT_MODEL.rz_slope for v in values)


def test_pf_domain_checks():
    with pytest.raises(ValueError):
        pf_thresholds([4], 1e-6)
    with pytest.raises(ValueError):
        pf_thresholds([5], 0.0)


def test_pf_rejects_eps_below_floor():
    # at eps = 1e-320 the reciprocals of rz_cost overflow and both prefactors were nan
    with pytest.raises(ValueError, match="eps=1e-320"):
        pf_thresholds([5], 1e-320)
    (row,) = pf_thresholds([5], MIN_CALL_BUDGET)
    assert math.isfinite(row.a_max_pf) and math.isfinite(row.a_rz_pf)


