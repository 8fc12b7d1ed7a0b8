"""The grid (phi_max, d): the checks of both numbers, and the levels of simverify.level_array."""

import math
import re

import numpy as np
import pytest
from oracles import FieldGrid, make_grid, squared_mean

from quditcost.costmodel import (
    check_phi_max,
    clock_one_norm,
    lcu_fixed_encoding_thresholds,
    pf_thresholds,
    ratio_and_budget,
    register_width,
)
from quditcost.simverify import level_array, qubit_projector_diag_oracle, run_suites

# the largest phi_max whose bound 4 phi_max^2 on the normalizations is finite
PHI_MAX_LIMIT = 6.703903964971298e153


def test_make_grid_d3():
    assert level_array(1.0, 3, np.arange(3)).tolist() == [-1.0, 0.0, 1.0]
    assert register_width(3) == 2


def test_make_grid_d5():
    assert level_array(1.0, 5, np.arange(5)).tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert register_width(5) == 3


def test_even_d_rejected():
    with pytest.raises(ValueError, match="requires odd d"):
        register_width(4)


@pytest.mark.parametrize("use_d", [register_width, lambda d: pf_thresholds([d], 1e-6)])
@pytest.mark.parametrize("bad_d", [3.0, 5.5, np.float64(7.0), "9"])
def test_a_non_integer_d_is_rejected_by_name(use_d, bad_d):
    with pytest.raises(TypeError, match=re.escape(f"d must be an integer, got {bad_d!r}")):
        use_d(bad_d)


@pytest.mark.parametrize("report", [ratio_and_budget, lcu_fixed_encoding_thresholds], ids=lambda f: f.__name__)
def test_a_float_d_is_named_by_each_pass(report):
    # before any row, and before the scalar checks: t = -1 is named second
    with pytest.raises(TypeError, match=re.escape("d must be an integer, got 3.0")):
        report(1.0, [3.0, 5.0], -1.0, 1e-6)
    # a numpy integer d gives the rows of the int d, repr for repr
    assert repr(report(1.0, np.array([3, 5]), 0.1, 1e-6)) == repr(report(1.0, [3, 5], 0.1, 1e-6))


def test_a_numpy_integer_d_is_an_integer():
    assert register_width(np.int64(5)) == register_width(5) == 3
    # every report row holds d as an int, whatever integer type it was given
    for rows in (
        pf_thresholds([np.int64(3)], 1e-6),
        ratio_and_budget(1.0, [np.int64(3)], 0.1, 1e-6, 2),
        lcu_fixed_encoding_thresholds(1.0, [np.int64(3)], 0.1, 1e-6),
    ):
        (row,) = rows
        assert type(row.d) is int and row.d == 3


@pytest.mark.parametrize("bad_d", [1, 2, 0, -3])
def test_too_small_d_rejected(bad_d):
    with pytest.raises(ValueError):
        register_width(bad_d)


def refusal(call):
    """The (type, message) of the exception that call() raises."""
    with pytest.raises((TypeError, ValueError)) as excinfo:
        call()
    return excinfo.type, str(excinfo.value)


# once a wrapped index into the half sums (0, -1), a half sum of the wrong d
# (2, 4), a series value (102), or a ZeroDivisionError, IndexError or
# tuple-index TypeError (1, 100, 3.0)
@pytest.mark.parametrize("bad_d", [0, -1, 2, 4, 102, 1, 100, 3.0])
def test_clock_one_norm_refuses_a_d_as_register_width_does(bad_d):
    assert refusal(lambda: clock_one_norm(1.0, bad_d)) == refusal(lambda: register_width(bad_d))


@pytest.mark.parametrize("bad_phi", [0.0, -1.0])
def test_nonpositive_phi_max_rejected(bad_phi):
    with pytest.raises(ValueError):
        check_phi_max(bad_phi)


@pytest.mark.parametrize("bad_phi", [math.nan, math.inf, -math.inf])
def test_nonfinite_phi_max_rejected(bad_phi):
    with pytest.raises(ValueError, match="phi_max"):
        check_phi_max(bad_phi)


# d = 2^m + 1 brings the qubit normalization closest to its bound
@pytest.mark.parametrize("d", [3, 5, 513, 4097])
def test_largest_phi_max_has_finite_normalizations(d):
    # at t = 0 no normalization enters a product that could overflow
    (row,) = ratio_and_budget(PHI_MAX_LIMIT, [d], 0.0, 1e-6)
    assert math.isfinite(row.alpha_qb) and row.alpha_qb > 1e307
    assert math.isfinite(clock_one_norm(PHI_MAX_LIMIT, d))
    with pytest.raises(ValueError, match="phi_max=.* is too large"):
        check_phi_max(math.nextafter(PHI_MAX_LIMIT, math.inf))


@pytest.mark.parametrize("phi_max", [1.0, 2.5, 0.3, 7.123])
def test_levels_bit_identical_to_scalar_expression(phi_max):
    for d in range(3, 514, 2):
        lams = level_array(phi_max, d, np.arange(d)).tolist()
        delta_phi = 2.0 * phi_max / (d - 1)
        assert lams == [-phi_max + n * delta_phi for n in range(d)], d
        assert all(type(lam) is float for lam in lams)


def test_spacing_relation():
    for d in (3, 7, 33, 101):
        g = make_grid(2.0, d)
        assert g.delta_phi == pytest.approx(2 * g.phi_max / (d - 1), rel=1e-15)
        assert g.delta_phi == pytest.approx(g.phi_max / ((d - 1) // 2), rel=1e-15)


def test_eigenvalues_increasing_and_symmetric():
    for d in (3, 9, 51, 513):
        lams = level_array(1.5, d, np.arange(d)).tolist()
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[0] == -1.5
        assert lams[-1] == pytest.approx(1.5, abs=1e-14)
        assert lams[(d - 1) // 2] == pytest.approx(0.0, abs=1e-14)
        for n in range(d):
            assert lams[n] ** 2 == pytest.approx(lams[d - 1 - n] ** 2, abs=1e-13)


def test_register_width_covers_dimension():
    for d in (3, 5, 9, 15, 17, 255, 257, 511, 513):
        n_b = register_width(d)
        assert 2 ** (n_b - 1) < d <= 2**n_b


def test_register_width_values():
    assert [register_width(d) for d in (3, 5, 7, 9, 513, 515)] == [2, 3, 3, 4, 10, 10]


@pytest.mark.parametrize(
    "use_d",
    [
        register_width,
        lambda d: qubit_projector_diag_oracle(1.0, d),
        lambda d: pf_thresholds([d], 1e-6),
        lambda d: ratio_and_budget(1.0, [d], 0.1, 1e-6),
        # verify's census counts only d that run_suites has checked
        lambda d: run_suites(1.0, [d], [d]),
        lambda d: lcu_fixed_encoding_thresholds(1.0, [d], 0.1, 1e-6),
    ],
    # the hybrid call cost and the fixed-encoding rotation bound are checked
    # through the rows that price them
    ids=[
        "register_width",
        "qubit_projector_diag_oracle",
        "pf_thresholds",
        "qudit_hybrid_call_cost",
        "select_nontrivial_count",
        "fixed_encoding_call_rotations",
    ],
)
@pytest.mark.parametrize("d", [1, 2, 4])
def test_one_dimension_rule(use_d, d):
    with pytest.raises(ValueError, match="requires odd d"):
        use_d(d)


def test_squared_mean_small_cases():
    assert squared_mean(make_grid(1.0, 3)) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert squared_mean(make_grid(1.0, 5)) == pytest.approx(0.5, rel=1e-15)


def test_squared_mean_zero_field():
    # degenerate zero-field value, constructed directly since make_grid
    # rejects phi_max = 0, as check_phi_max does
    g = FieldGrid(phi_max=0.0, d=5, delta_phi=0.0, n_b=3)
    assert squared_mean(g) == 0.0


def test_squared_mean_matches_closed_form():
    for phi_max in (0.5, 1.0, 2.0):
        for d in range(3, 1002, 2):
            g = make_grid(phi_max, d)
            closed = phi_max**2 * (d + 1) / (3 * (d - 1))
            assert math.isclose(squared_mean(g), closed, rel_tol=1e-12)
