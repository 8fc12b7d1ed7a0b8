import cmath
import math

import mpmath
import numpy as np
import pytest
from oracles import direct_dft_coefficients, levels, make_grid

from quditcost.costmodel import ONE_NORM_CLOSED_FORM_D, clock_one_norm
from quditcost.lcu import prep_ry_schedule
from quditcost.pauli import (
    beta_closed_form,
    beta_dft_oracle,
    level_array,
    select_diag_phases,
)


def loop_one_norm(phi_max, d):
    """Reference one-norm: build each beta_r = c_r e^(i x_r) and sum the moduli."""
    scale = 2.0 * phi_max**2 / (d - 1) ** 2
    total = 0.0
    for r in range(1, d):
        x = math.pi * r / d
        total += abs(scale * math.cos(x) / math.sin(x) ** 2 * cmath.exp(1j * x))
    return total


def mp_one_norm(phi_max, d):
    """The one-norm at 40 significant digits."""
    with mpmath.workdps(40):
        weights = mpmath.fsum(
            abs(mpmath.cos(x)) / mpmath.sin(x) ** 2
            for x in (mpmath.pi * r / d for r in range(1, d))
        )
        return float(mpmath.mpf(phi_max) ** 2 * 2 / (d - 1) ** 2 * weights)


def test_closed_form_d3():
    betas, c_amps = beta_closed_form(1.0, 3)
    assert betas[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert betas[1] == pytest.approx((1.0 / 3.0) * cmath.exp(1j * math.pi / 3), abs=1e-15)
    assert betas[2] == pytest.approx((1.0 / 3.0) * cmath.exp(-1j * math.pi / 3), abs=1e-15)
    assert np.abs(betas[1:]).sum() == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert [c < 0 for c in c_amps] == [False, True]  # negative from (d + 1) / 2 = 2


def test_closed_form_d5_moduli():
    betas, _ = beta_closed_form(1.0, 5)
    assert abs(betas[1]) == pytest.approx(0.292705, abs=1e-6)
    assert abs(betas[2]) == pytest.approx(0.0427051, abs=1e-6)
    assert np.abs(betas[1:]).sum() == pytest.approx(0.670820, abs=1e-6)


def test_zero_field_coefficients_vanish():
    betas, _ = beta_closed_form(0.0, 7)
    assert all(abs(b) == 0.0 for b in betas)


def test_dft_oracle_agrees_small():
    for d in (3, 5, 7, 101):
        closed, _ = beta_closed_form(1.0, d)
        oracle = beta_dft_oracle(level_array(1.0, d) ** 2)
        worst = max(abs(a - b) for a, b in zip(closed, oracle))
        tol = 1e-12 if d <= 7 else 1e-10
        assert worst < tol, (d, worst)


@pytest.mark.parametrize("phi_max", [1.0, 2.5])
def test_fft_oracle_matches_direct_sum(phi_max):
    # the direct sum certifies the FFT, within tolerances tighter than the
    # dft-oracle suite's bounds (1e-10 on coefficients and on the one-norm)
    for d in [*range(3, 258, 2), 513]:
        fft = beta_dft_oracle(level_array(phi_max, d) ** 2)
        direct = direct_dft_coefficients(make_grid(phi_max, d))
        assert np.max(np.abs(fft - direct)) <= 1e-12 * phi_max**2, d
        assert math.isclose(np.abs(fft[1:]).sum(), np.abs(direct[1:]).sum(), rel_tol=1e-11), d


def test_dft_inversion_identity_d7():
    g = make_grid(1.0, 7)
    betas = beta_dft_oracle(level_array(1.0, 7) ** 2)
    omega = cmath.exp(2j * math.pi / 7)
    for n in range(7):
        recon = sum(betas[r] * omega ** (r * n) for r in range(7))
        assert recon == pytest.approx(levels(g)[n] ** 2, abs=1e-12)


def test_hermiticity():
    for d in (3, 9, 33, 129):
        betas, _ = beta_closed_form(1.3, d)
        for r in range(1, d):
            assert abs(betas[d - r] - betas[r].conjugate()) < 1e-12


def test_sign_pattern_and_antisymmetry():
    for d in (3, 5, 21, 101):
        _, c_amps = beta_closed_form(1.0, d)
        mid = (d - 1) // 2
        for r in range(1, d):
            c = c_amps[r - 1]
            assert (c > 0) == (r <= mid)
            assert c == pytest.approx(-c_amps[d - r - 1], rel=1e-12)


def test_lambda_norm_closed_vs_oracle():
    for d in (3, 17, 101, 513):
        oracle = np.abs(beta_dft_oracle(level_array(1.0, d) ** 2)[1:]).sum()
        assert math.isclose(clock_one_norm(1.0, d), oracle, rel_tol=1e-10)


@pytest.mark.parametrize("phi_max", [1.0, 2.5])
def test_one_norm_matches_coefficient_loop(phi_max):
    # The loop's own error grows with d: for r > d/2 the rounding of
    # x_r = pi r/d (about 2.6e-16 * pi) is large against sin x_r ~ pi (d - r)/d,
    # and weighting by 1/sin^2 x_r sums to about 1.9e-16 * d relative.
    # The high-precision test below holds the one-norm itself to 1e-13.
    for d in range(3, 4002, 2):
        expected = loop_one_norm(phi_max, d)
        tol = 1e-13 + 2e-16 * d
        assert math.isclose(clock_one_norm(phi_max, d), expected, rel_tol=tol), d


@pytest.mark.parametrize("d", [3, 5, 1155, 4001])
@pytest.mark.parametrize("phi_max", [1.0, 2.5])
def test_one_norm_matches_high_precision(phi_max, d):
    assert math.isclose(clock_one_norm(phi_max, d), mp_one_norm(phi_max, d), rel_tol=1e-13)


def mp_half_sum_one_norm(phi_max, d):
    """The one-norm at 40 significant digits, from the doubled half-range sum."""
    with mpmath.workdps(40):
        weights = mpmath.fsum(
            mpmath.cos(x) / mpmath.sin(x) ** 2
            for x in (mpmath.pi * r / d for r in range(1, (d + 1) // 2))
        )
        return float(mpmath.mpf(phi_max) ** 2 * 4 / (d - 1) ** 2 * weights)


def test_one_norm_across_the_closed_form_switch_matches_high_precision():
    d0 = ONE_NORM_CLOSED_FORM_D
    for d in [*range(d0 - 20, d0 + 201, 2), 1025, 4097, 14647, 20001]:
        expected = mp_half_sum_one_norm(1.0, d)
        assert math.isclose(clock_one_norm(1.0, d), expected, rel_tol=1e-15), d


@pytest.mark.parametrize(
    "phi_max,d,bits",
    [
        (1.0, 101, "0x1.55a0960401746p-1"),
        (1.0, 103, "0x1.559f2d3e1f99ap-1"),
        (0.37, 4001, "0x1.75d630c037fbep-4"),
        (2.5, 1000001, "0x1.0aaaac3df28a4p+2"),
        (1.0, 16777217, "0x1.5555557419f1cp-1"),
        (10.0, 10**15 + 1, "0x1.0aaaaaaaaaaabp+6"),
    ],
)
def test_one_norm_closed_form_keeps_its_bits(phi_max, d, bits):
    # the printed one-norms; an edit of the closed form that reorders its float operations moves them
    assert clock_one_norm(phi_max, d).hex() == bits


def test_one_norm_half_sum_equals_the_numpy_expression():
    """Below ONE_NORM_CLOSED_FORM_D the stdlib half sum gives the float of the numpy sum.

    The one-norm was first the numpy expression below; the report outputs
    keep its value bit for bit.  Equality depends on the machine: numpy's
    SIMD sin and cos may round differently from the C library's elsewhere,
    and then this test fails while both one-norms stay within 5e-16.
    """
    for d in range(3, ONE_NORM_CLOSED_FORM_D, 2):
        x = np.pi * np.arange(1, (d + 1) // 2) / d
        weights = float((np.cos(x) / np.sin(x) ** 2).sum())
        assert clock_one_norm(1.7, d) == 1.7**2 * 4.0 / (d - 1) ** 2 * weights, d


def closed_phases(d):
    """The selection phases of the closed form at phi_max = 1."""
    return select_diag_phases(1.0, beta_closed_form(1.0, d)[1])


def test_select_diag_phases_d3():
    phases = closed_phases(3)
    assert phases[0] == 0.0
    assert phases[1] == pytest.approx(math.pi / 3, rel=1e-15)
    assert phases[2] == pytest.approx(2 * math.pi / 3 + math.pi, rel=1e-15)


def test_select_diag_phases_d5():
    phases = closed_phases(5)
    expected = [0.0, math.pi / 5, 2 * math.pi / 5,
                3 * math.pi / 5 + math.pi, 4 * math.pi / 5 + math.pi]
    assert phases == pytest.approx(expected, rel=1e-14)


def test_select_diag_phases_range_and_unit():
    for d in (7, 65):
        betas, c_amps = beta_closed_form(1.0, d)
        phases = select_diag_phases(1.0, c_amps)
        assert len(phases) == d
        for r in range(1, d):
            assert 0.0 <= phases[r] < 2 * math.pi
            assert cmath.exp(1j * phases[r]) == pytest.approx(betas[r] / abs(betas[r]), abs=1e-12)


def test_sign_threshold_equivalence_full_range():
    # the negative-sign region is exactly {r >= (d+1)/2}, for every odd d
    for d in range(3, 514, 2):
        _, c_amps = beta_closed_form(1.0, d)
        for r in range(1, d):
            assert (c_amps[r - 1] < 0) == (r >= (d + 1) // 2), (d, r)


def test_irreducibility_guard():
    with pytest.raises(ValueError, match="not irreducible"):
        select_diag_phases(0.0, beta_closed_form(0.0, 5)[1])


@pytest.mark.parametrize("d", [14647, 20001])
def test_smallest_coefficients_pass_the_irreducibility_guard(d):
    # the smallest |c_r|, about pi phi_max^2 / d^3 at r = (d - 1) / 2, lies
    # below 1e-12 phi_max^2 here; the guard scales with it
    betas, c_amps = beta_closed_form(1.0, d)
    assert min(abs(c) for c in c_amps) < 1e-12
    assert len(select_diag_phases(1.0, c_amps)) == d
    # and the preparation gives one angle per amplitude
    assert len(prep_ry_schedule(np.sqrt(np.abs(betas[1:]) / clock_one_norm(1.0, d)))) == d - 1


def test_oracle_matches_direct_summation_not_closed_form():
    # sanity: the oracle reproduces an arbitrary diagonal's transform, so it
    # cannot secretly depend on the squared-field closed form
    d = 9
    g = make_grid(2.0, d)
    betas = beta_dft_oracle(level_array(2.0, d) ** 2)
    lam_sq = np.array([lam**2 for lam in levels(g)])
    manual = [
        sum(lam_sq[n] * cmath.exp(-2j * math.pi * r * n / d) for n in range(d)) / d
        for r in range(d)
    ]
    assert np.allclose(betas, manual, atol=1e-13)
