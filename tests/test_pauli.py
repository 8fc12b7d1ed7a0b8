import cmath
import math

import mpmath
import numpy as np
import pytest
from helpers import closed_phases
from oracles import direct_dft_coefficients, levels, make_grid, one_norm_series, one_norm_weight

from quditcost.costmodel import (
    MAX_D,
    ONE_NORM_SERIES,
    ONE_NORM_SERIES_D,
    clock_one_norm,
    ratio_and_budget,
)
from quditcost.simverify import (
    beta_closed_form,
    beta_dft_oracle,
    fan_state,
    irreducibility_floor,
    level_array,
    prep_ry_schedule,
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
    betas, c_amps = beta_closed_form(1.0, 3, np.arange(3))
    assert betas[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert betas[1] == pytest.approx((1.0 / 3.0) * cmath.exp(1j * math.pi / 3), abs=1e-15)
    assert betas[2] == pytest.approx((1.0 / 3.0) * cmath.exp(-1j * math.pi / 3), abs=1e-15)
    assert np.abs(betas[1:]).sum() == pytest.approx(2.0 / 3.0, rel=1e-13)
    # c_0 = beta_0; negative from (d + 1) / 2 = 2
    assert [c < 0 for c in c_amps] == [False, False, True]


def test_closed_form_d5_moduli():
    betas, _ = beta_closed_form(1.0, 5, np.arange(5))
    assert abs(betas[1]) == pytest.approx(0.292705, abs=1e-6)
    assert abs(betas[2]) == pytest.approx(0.0427051, abs=1e-6)
    assert np.abs(betas[1:]).sum() == pytest.approx(0.670820, abs=1e-6)


def test_zero_field_coefficients_vanish():
    betas, _ = beta_closed_form(0.0, 7, np.arange(7))
    assert all(abs(b) == 0.0 for b in betas)


def test_closed_form_is_hermitian_and_sign_split_bit_for_bit():
    # cosine and sine are taken at pi * min(n, d - n) / d, so n and d - n
    # share them and differ by exact negations alone
    for d in [*range(3, 2050, 2), 4097, 20001, 1048577]:
        n = np.arange(d)
        betas, c_amps = beta_closed_form(1.3, d, n)
        assert betas[d - n[1:]].tobytes() == betas[1:].conj().tobytes(), d
        assert c_amps[d - n[1:]].tobytes() == (-c_amps[1:]).tobytes(), d
        assert np.array_equal(c_amps < 0, 2 * n > d), d


# 2^k - 1 and 2^k + 1 for k = 2 .. 16, and 15015 = 3 5 7 11 13
LARGE_SAMPLES = sorted({2**k + s for k in range(2, 17) for s in (-1, 1)} | {15015})


@pytest.mark.parametrize("d", LARGE_SAMPLES)
def test_closed_form_and_preparation_hold_at_large_samples(d):
    n = np.arange(d)
    betas, _ = beta_closed_form(1.0, d, n)
    oracle = beta_dft_oracle(level_array(1.0, d, n) ** 2)
    assert np.max(np.abs(betas - oracle)) <= 1e-12
    amps = np.sqrt(np.abs(betas[1:]) / clock_one_norm(1.0, d))
    assert np.linalg.norm(fan_state(prep_ry_schedule(amps)) - np.append(0.0, amps)) <= 1e-10


def test_dft_oracle_agrees_small():
    for d in (3, 5, 7, 101):
        closed, _ = beta_closed_form(1.0, d, np.arange(d))
        oracle = beta_dft_oracle(level_array(1.0, d, np.arange(d)) ** 2)
        worst = max(abs(a - b) for a, b in zip(closed, oracle))
        tol = 1e-12 if d <= 7 else 1e-10
        assert worst < tol, (d, worst)


@pytest.mark.parametrize("phi_max", [1.0, 2.5])
def test_fft_oracle_matches_direct_sum(phi_max):
    # the direct sum certifies the FFT, within tolerances tighter than the
    # dft-oracle suite's bounds (1e-10 on coefficients and on the one-norm)
    for d in [*range(3, 258, 2), 513]:
        fft = beta_dft_oracle(level_array(phi_max, d, np.arange(d)) ** 2)
        direct = direct_dft_coefficients(make_grid(phi_max, d))
        assert np.max(np.abs(fft - direct)) <= 1e-12 * phi_max**2, d
        assert math.isclose(np.abs(fft[1:]).sum(), np.abs(direct[1:]).sum(), rel_tol=1e-11), d


def test_dft_inversion_identity_d7():
    g = make_grid(1.0, 7)
    betas = beta_dft_oracle(level_array(1.0, 7, np.arange(7)) ** 2)
    omega = cmath.exp(2j * math.pi / 7)
    for n in range(7):
        recon = sum(betas[r] * omega ** (r * n) for r in range(7))
        assert recon == pytest.approx(levels(g)[n] ** 2, abs=1e-12)


def test_hermiticity():
    for d in (3, 9, 33, 129):
        betas, _ = beta_closed_form(1.3, d, np.arange(d))
        for r in range(1, d):
            assert betas[d - r] == betas[r].conjugate()


def test_sign_pattern_and_antisymmetry():
    for d in (3, 5, 21, 101):
        _, c_amps = beta_closed_form(1.0, d, np.arange(1, d))
        mid = (d - 1) // 2
        for r in range(1, d):
            c = c_amps[r - 1]
            assert (c > 0) == (r <= mid)
            assert c == pytest.approx(-c_amps[d - r - 1], rel=1e-12)


def test_lambda_norm_closed_vs_oracle():
    for d in (3, 17, 101, 513):
        oracle = np.abs(beta_dft_oracle(level_array(1.0, d, np.arange(d)) ** 2)[1:]).sum()
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


def test_one_norm_across_the_closed_form_switch_matches_high_precision():
    # the whole half sum below ONE_NORM_SERIES_D, whose worst is about
    # 5e-16 at d = 3 and phi_max = 2.5, and the series past it, whose worst
    # is 2.4e-16 at d = 107 and phi_max = 2.5
    d0 = ONE_NORM_SERIES_D
    for d in [*range(3, d0 + 201, 2), 1025, 4097, 14647, 20001]:
        with mpmath.workdps(40):
            # the doubled half-range sum at 40 significant digits
            weights = mpmath.fsum(
                mpmath.cos(x) / mpmath.sin(x) ** 2
                for x in (mpmath.pi * r / d for r in range(1, (d + 1) // 2))
            )
            norms = {phi_max: float(mpmath.mpf(phi_max) ** 2 * 4 / (d - 1) ** 2 * weights)
                     for phi_max in (1.0, 2.5, 0.37)}
        tol = 1e-15 if d < d0 else 3e-16
        for phi_max, expected in norms.items():
            assert math.isclose(clock_one_norm(phi_max, d), expected, rel_tol=tol), (phi_max, d)


def test_one_norm_series_literals_are_the_nearest_doubles():
    # g_0 .. g_11 rederived at 40 digits from the expansion, not read from costmodel
    with mpmath.workdps(40):
        coefficients = one_norm_series(12)
        assert len(ONE_NORM_SERIES) == 11
        for literal, exact in zip(ONE_NORM_SERIES, reversed(coefficients[:11])):
            error = abs(literal - exact)
            assert error <= abs(math.nextafter(literal, math.inf) - exact), literal
            assert error <= abs(math.nextafter(literal, -math.inf) - exact), literal
        # the first omitted term, relative at the switch, where it is largest
        assert abs(coefficients[11]) / ONE_NORM_SERIES_D**11 / coefficients[0] < 2e-20


def test_one_norm_series_matches_trigamma_and_euler_maclaurin_up_to_max_d():
    # d = 10^k + 1 up to MAX_D, at phi_max down to 1e-6, where the scale
    # 4 phi_max^2 / (d - 1)^2 that the form once took is subnormal
    for d in [10**k + 1 for k in range(2, 154)]:
        assert d <= MAX_D
        weight = one_norm_weight(d)
        with mpmath.workdps(40):
            for phi_max in (1e-6, 0.37, 1.0, 2.5):
                expected = mpmath.mpf(phi_max) ** 2 * weight
                assert abs(clock_one_norm(phi_max, d) - expected) <= 3e-16 * expected, (phi_max, d)


@pytest.mark.parametrize("phi_max,printed", [(1e-6, "6.66666667e-13"), (1e-3, "6.66666667e-07")])
def test_alpha_qd_keeps_its_digits_at_the_largest_d(phi_max, printed):
    # 4 phi_max^2 / (d - 1)^2 underflowed to a subnormal here, and the
    # printed alpha_qd read 6.66725934e-13 at phi_max = 1e-6
    d = MAX_D - 1 + MAX_D % 2
    (row,) = ratio_and_budget(phi_max, [d], 10.0, 1e-6)
    assert f"{row.alpha_qd:.9g}" == printed
    with mpmath.workdps(40):
        expected = mpmath.mpf(phi_max) ** 2 * one_norm_weight(d)
        assert abs(row.alpha_qd - expected) <= 3e-16 * expected


@pytest.mark.parametrize(
    "phi_max,d,bits",
    [
        (1.0, 101, "0x1.55a0960401745p-1"),
        (1.0, 103, "0x1.559f2d3e1f99ap-1"),
        (0.37, 4001, "0x1.75d630c037fbfp-4"),
        (2.5, 1000001, "0x1.0aaaac3df28a4p+2"),
        (1.0, 16777217, "0x1.5555557419f1bp-1"),
        (10.0, 10**15 + 1, "0x1.0aaaaaaaaaaabp+6"),
    ],
)
def test_one_norm_closed_form_keeps_its_bits(phi_max, d, bits):
    # the printed one-norms; an edit of the series that reorders its float operations moves them
    assert clock_one_norm(phi_max, d).hex() == bits


def test_one_norm_half_sum_equals_the_numpy_expression():
    """Below ONE_NORM_SERIES_D the stdlib half sum gives the float of the numpy sum.

    The one-norm was first the numpy expression below; the report outputs
    keep its value bit for bit.  Equality depends on the machine: numpy's
    SIMD sin and cos may round differently from the C library's elsewhere,
    and then this test fails while both one-norms stay within 5e-16.
    """
    for d in range(3, ONE_NORM_SERIES_D, 2):
        x = np.pi * np.arange(1, (d + 1) // 2) / d
        weights = float((np.cos(x) / np.sin(x) ** 2).sum())
        assert clock_one_norm(1.7, d) == 1.7**2 * 4.0 / (d - 1) ** 2 * weights, d


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
        n = np.arange(d)
        betas, c_amps = beta_closed_form(1.0, d, n)
        phases = select_diag_phases(irreducibility_floor(1.0, d), d, n, c_amps)
        assert len(phases) == d
        for r in range(1, d):
            assert 0.0 <= phases[r] < 2 * math.pi
            assert cmath.exp(1j * phases[r]) == pytest.approx(betas[r] / abs(betas[r]), abs=1e-12)


def test_sign_threshold_equivalence_full_range():
    # the negative-sign region is exactly {r >= (d+1)/2}, for every odd d
    for d in range(3, 514, 2):
        _, c_amps = beta_closed_form(1.0, d, np.arange(1, d))
        for r in range(1, d):
            assert (c_amps[r - 1] < 0) == (r >= (d + 1) // 2), (d, r)


def test_irreducibility_guard():
    with pytest.raises(ValueError, match="not irreducible"):
        n = np.arange(5)
        select_diag_phases(irreducibility_floor(0.0, 5), 5, n, beta_closed_form(0.0, 5, n)[1])


def test_irreducibility_guard_names_the_dimension_within_a_block():
    # the levels of d = 3, 5 and 7 back to back, with c_2 of d = 7 zeroed
    sizes = np.array([3, 5, 7])
    d = np.repeat(sizes, sizes)
    n = np.concatenate([np.arange(size) for size in sizes])
    c_amps = beta_closed_form(1.0, d, n)[1]
    c_amps[3 + 5 + 2] = 0.0
    with pytest.raises(ValueError, match=r"^coefficient c_2 vanishes at d=7; the expansion is not irreducible$"):
        select_diag_phases(irreducibility_floor(1.0, d), d, n, c_amps)


@pytest.mark.parametrize("d", [14647, 20001])
def test_smallest_coefficients_pass_the_irreducibility_guard(d):
    # the smallest |c_r|, about pi phi_max^2 / d^3 at r = (d - 1) / 2, lies
    # below 1e-12 phi_max^2 here; the guard scales with it
    n = np.arange(d)
    betas, c_amps = beta_closed_form(1.0, d, n)
    assert min(abs(c) for c in c_amps) < 1e-12
    assert len(select_diag_phases(irreducibility_floor(1.0, d), d, n, c_amps)) == d
    # and the preparation gives one angle per amplitude
    assert len(prep_ry_schedule(np.sqrt(np.abs(betas[1:]) / clock_one_norm(1.0, d)))) == d - 1


def test_oracle_matches_direct_summation_not_closed_form():
    # sanity: the oracle reproduces an arbitrary diagonal's transform, so it
    # cannot secretly depend on the squared-field closed form
    d = 9
    g = make_grid(2.0, d)
    betas = beta_dft_oracle(level_array(2.0, d, np.arange(d)) ** 2)
    lam_sq = np.array([lam**2 for lam in levels(g)])
    manual = [
        sum(lam_sq[n] * cmath.exp(-2j * math.pi * r * n / d) for n in range(d)) / d
        for r in range(d)
    ]
    assert np.allclose(betas, manual, atol=1e-13)
