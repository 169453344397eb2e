import importlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bstar import kernels
from bstar.kernels import (
    PHI_FLOOR,
    BoundCertificate,
    PiecewiseLinearKernel,
    alpha_mix_optimum,
    arctan_profile,
    delta_half_lower,
    delta_lower_certificate,
    green_coefficient_bound,
    hurwitz_zeta,
    k1_closed_form,
    power_profile,
    quartic_argmin,
    quartic_main_bound,
    rho_lower,
    rho_upper,
    step_level,
    tail_norm,
    ubiquity_bound,
    zeta_integral_check,
)
from bstar.kernels import (
    _BERNOULLI_2J,
    _FOLD_MAX_EXPONENT,
    _HURWITZ_BLOCK,
    _HURWITZ_LEAD_TERMS,
    _RHO_EVEN_LARGE,
    _RHO_ODD_LARGE,
    _euler_maclaurin,
    _fold_coefficients,
    _fold_terms,
    _quartic_certifies,
)

T_SMALL = 2000  # enough nodes for unit-test accuracy at a fraction of the cost


def brute_hurwitz_bracket(s, a, terms=10**6):
    """Enclosure from direct summation plus integral tail brackets."""
    ks = np.arange(terms, dtype=float)
    partial = float(((ks + a) ** (-s)).sum())
    lo = partial + (terms + a) ** (1 - s) / (s - 1)
    hi = partial + (terms - 1 + a) ** (1 - s) / (s - 1)
    return lo, hi


def hurwitz_one_block(s, a):
    """zeta(s, a) for every entry of a, in one _euler_maclaurin call."""
    return _euler_maclaurin(s, a)


def test_hurwitz_spot_values():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2, abs=1e-12)


@pytest.mark.parametrize("s,a", [(8 / 3, 1.0), (8 / 3, 0.25), (4 / 3, 1.0), (2.5, 0.01)])
def test_hurwitz_against_summation_oracle(s, a):
    lo, hi = brute_hurwitz_bracket(s, a)
    val = hurwitz_zeta(s, a)
    tol = 1e-12 + 1e-13 * abs(val)  # bracket endpoints round at ~eps * value
    assert lo - tol <= val <= hi + tol


def test_hurwitz_domain():
    for s in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="hurwitz_zeta needs s > 1"):
            hurwitz_zeta(s, 0.5)
    with pytest.raises(ValueError, match="hurwitz_zeta needs 0 < a <= 1"):
        hurwitz_zeta(2.0, 1.5)


def test_euler_maclaurin_remainder_is_below_one_ulp():
    # F. Johansson, Numer. Algorithms 69 (2015), Thm 1: after N lead terms
    # and M Bernoulli terms, |R| <= 4 (s)_2M / (2 pi)^2M * (N+a)^(1-s-2M)
    # / (s+2M-1), largest at a -> 0.  zeta(s, a) >= 1 on 0 < a <= 1, so a
    # bound below 2^-59 is under 1/64 of an ulp of the value.  Its maximum
    # over s is 1.15e-18, near s = 2.6, which 2^-60 = 8.7e-19 would miss.
    n_lead, m = _HURWITZ_LEAD_TERMS, len(_BERNOULLI_2J)

    def log_bound(s, a):
        return (math.log(4.0) + math.lgamma(s + 2 * m) - math.lgamma(s)
                - 2 * m * math.log(2 * math.pi) + (1 - s - 2 * m) * math.log(n_lead + a)
                - math.log(s + 2 * m - 1))

    for s in np.linspace(1.0, 64.0, 6301)[1:]:
        assert log_bound(s, 0.0) < -59 * math.log(2.0), s
    # the even polynomial's coefficients are Euler-Maclaurin values at
    # a = x = r + 3/2 >= 3/2 and exponents up to _FOLD_MAX_EXPONENT; there
    # the bound is below 2^-59 of zeta(s, x) > x^-s + (x+1)^(1-s)/(s-1),
    # at most 4.3e-19 of it (x = 100.5, s = 194), and past x = 10^6 it
    # only falls, as (x + 10)^-19 does
    for x in [1.5 + i for i in range(60)] + [100.5, 1000.5, 1e4 + 0.5, 1e6 + 0.5]:
        for s in np.linspace(1.0, _FOLD_MAX_EXPONENT, 1999)[1:]:
            lead, rest = -s * math.log(x), (1 - s) * math.log(x + 1) - math.log(s - 1)
            log_least = max(lead, rest) + math.log1p(math.exp(-abs(lead - rest)))
            assert log_bound(s, x) - log_least < -59 * math.log(2.0), (s, x)


def fold_growth(s, x, terms):
    """(s)_2K / (2K)! (4x^2)^-K and r_K for K = terms, in plain floats."""
    ratio = (s + 2 * terms) * (s + 2 * terms + 1) / ((2 * terms + 1) * (2 * terms + 2)) / (4 * x * x)
    return math.prod((s + i) / (i + 1) for i in range(2 * terms)) / (4 * x * x) ** terms, ratio


def test_taylor_remainder_is_below_one_ulp():
    # H(b) = zeta(s, x+b) + zeta(s, x-b) is an even Taylor series about
    # b = 0; after K terms its remainder on |b| <= 1/2 is at most
    # (s)_2K / (2K)! (4x^2)^-K / (1 - r_K) of the value, with r_K =
    # (s+2K)(s+2K+1) / ((2K+1)(2K+2)) / (4x^2) < 1, and _fold_terms picks
    # K so that this is below 2^-59.  Recomputed here in plain floats.
    for x in (1.5, 2.5, 5.5, 100.5):
        for s in np.linspace(1.0, 300.0, 1197)[1:]:
            terms = _fold_terms(float(s), x)
            assert terms is not None and s + 2 * terms <= _FOLD_MAX_EXPONENT, (s, x)
            growth, ratio = fold_growth(s, x, terms)
            assert ratio < 1.0 and growth / (1.0 - ratio) < 2.0**-59, (s, x)
            if terms:
                growth, ratio = fold_growth(s, x, terms - 1)
                assert ratio >= 1.0 or growth / (1.0 - ratio) >= 2.0**-59, (s, x)
    # the certificate's s = 8/3 about x = 3/2, the tails from n = 1 and 2
    assert _fold_terms(8 / 3, 1.5) == 22
    # past the largest exponent the tail norm is refused by name
    assert _fold_terms(400.0, 1.5) is None and _fold_coefficients(400.0, 1.5) is None
    with pytest.raises(ValueError, match="exponents past 1000 at p = 200$"):
        tail_norm(PiecewiseLinearKernel.from_family("K5", 3), 12, 200.0)


def test_taylor_remainder_bounds_the_true_truncation_error():
    # the bound of _fold_terms holds against the truncated series' actual
    # error at the middle and the ends of |b| <= 1/2, summed in mpmath.
    # The float coefficients of _fold_coefficients are each within 1e-14
    # of the series' own (measured 2.0e-15 at most, the rounding of their
    # binomial factors, which falls on terms that u^k makes small), and
    # their polynomial, by Horner's rule as the kernel evaluates it, is
    # within 1e-15 of H(b)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for x in (1.5, 2.5):
            for s in (1.01, 4 / 3, 8 / 3, 8.0, 64.0):
                terms = _fold_terms(s, x)
                ms, mx = mpmath.mpf(s), mpmath.mpf(x)
                coeffs = [2 * mpmath.rf(ms, 2 * k) / mpmath.factorial(2 * k) * mpmath.zeta(ms + 2 * k, mx)
                          for k in range(terms)]
                floats = _fold_coefficients(s, x)
                for value, exact in zip(floats, coeffs):
                    assert abs(value - exact) <= 1e-14 * exact, (s, x)
                growth, ratio = fold_growth(s, x, terms)
                for b in (mpmath.mpf(0), mpmath.mpf(1) / 4, mpmath.mpf(1) / 2):
                    value = mpmath.zeta(ms, mx + b) + mpmath.zeta(ms, mx - b)
                    error = abs(value - sum(c * b ** (2 * k) for k, c in enumerate(coeffs)))
                    assert error <= growth / (1 - ratio) * value < 2.0**-59 * value, (s, x, b)
                    horner, u = floats[-1], float(b) ** 2
                    for c in reversed(floats[:-1]):
                        horner = horner * u + c
                    assert abs(horner - value) <= 1e-15 * value, (s, x, b)


@pytest.mark.parametrize("s", [4 / 3, 2.0, 2.6, 8 / 3, 8.0])
def test_hurwitz_against_mpmath(s):
    mpmath = pytest.importorskip("mpmath")
    # a log grid; a kernel's own table arguments j/(4T), j = 1..4T+1; and
    # a in (1, 5], which hurwitz_zeta refuses and _euler_maclaurin evaluates
    table_args = np.arange(1, 4 * 50 + 2) / (4.0 * 50)
    block_args = np.linspace(1.0, 5.0, 101)[1:]
    with mpmath.workdps(40):
        for a in np.geomspace(1e-4, 1.0, 201):
            exact = mpmath.zeta(s, float(a))
            assert abs(hurwitz_zeta(s, float(a)) - exact) <= 2e-15 * exact, a
        for args in (table_args, block_args):
            for a, value in zip(args, hurwitz_one_block(s, args)):
                exact = mpmath.zeta(s, float(a))
                assert abs(value - exact) <= 2e-15 * exact, a


def test_hurwitz_at_a_large_exponent():
    # Euler-Maclaurin alone evaluates every s; at s = 300 zeta(s, a)
    # overflows below a = 0.1, so the grid starts at 0.3
    mpmath = pytest.importorskip("mpmath")
    s = 300.0
    args = np.linspace(0.3, 2.0, 35)
    with mpmath.workdps(40):
        for a, value in zip(args, hurwitz_one_block(s, args)):
            exact = mpmath.zeta(s, float(a))
            assert abs(value - exact) <= 2e-15 * exact, a
            if a <= 1.0:
                assert hurwitz_zeta(s, float(a)) == value


def test_hurwitz_vector_matches_scalar_calls():
    # hurwitz_zeta is one entry of _euler_maclaurin, and an entry must
    # not depend on the length of its vector, on its place in it or on
    # the other entries
    table_args = np.arange(1, 4 * 50 + 1) / (4.0 * 50)
    args = np.r_[np.geomspace(1e-4, 1.0, 301), table_args]
    for s in (8 / 3, 2.0):
        values = hurwitz_one_block(s, args)
        assert np.array_equal(values, [hurwitz_zeta(s, float(x)) for x in args])
        assert np.array_equal(values[5:-7], hurwitz_one_block(s, args[5:-7]))
        for a in (table_args[7:20], args[:1]):
            assert np.array_equal(hurwitz_one_block(s, a), [hurwitz_zeta(s, float(x)) for x in a])


def test_folded_weights_do_not_depend_on_their_block(monkeypatch):
    # the 2T + 1 folded weights are evaluated in blocks of _HURWITZ_BLOCK
    # values of j; other block sizes, down to one j, and a block of one
    # at the end (2T + 1 = _HURWITZ_BLOCK + 3 at the larger T) give the
    # same entries, the ends j = 0 and 2T included
    for T, blocks in ((3, (1, 2, 7)), (_HURWITZ_BLOCK // 2 + 1, (_HURWITZ_BLOCK - 1, 4099))):
        kernel = PiecewiseLinearKernel.from_family("K5", T)
        for p in (4 / 3, 2.0):
            for start in (2, 5, 4 * T + 1, 9 * T + 3):
                weights = kernel._folded_weights(p, start)
                for block in blocks:
                    monkeypatch.setattr(kernels, "_HURWITZ_BLOCK", block)
                    assert np.array_equal(kernel._folded_weights(p, start), weights), (T, p, start, block)
                    monkeypatch.undo()


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench_kernels.py, which keeps the full-period reference evaluation."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    return importlib.import_module("bench_kernels")


@pytest.mark.parametrize("T", [1, 2, 3, 7, 50, 2000, 4096, 10**5])
def test_blocked_weights_match_the_full_array_evaluation(T, bench):
    # every start the folded sums serve, the ends of the fold's first
    # period and starts past it (r = 1 and 2), within 1e-15 relative of
    # math.fsum of the full-period Euler-Maclaurin weights, scaled by the
    # kernel's c^2p (c = 2 at r = 2); at T = 4096 the 2T + 1 folded
    # weights end in a block of one
    for family in ("K3", "K5") if T <= 4096 else ("K5",):
        kernel = PiecewiseLinearKernel.from_family(family, T)
        for p in (1.1, 4 / 3, 2.0, 4.0):
            for start in (1, 2, 3, 5, 4 * T, 4 * T + 1, 4 * T + 2, 9 * T + 3):
                reference = bench.reference_sum(kernel, p, start) * kernel._unit(start) ** (2 * p)
                assert abs(kernel._period_sum(p, start) / reference - 1.0) <= 1e-15, (family, p, start)


def test_one_tail_norm_peaks_near_one_weights_array():
    # the blocks leave the 2T + 1 folded weights as the only long array;
    # the full-array evaluation before blocks peaked at six arrays of 4T + 1
    T = 10**5
    kernel = PiecewiseLinearKernel.from_family("K5", T)
    tracemalloc.start()
    try:
        tail_norm(kernel, 2, 4 / 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * (4 * T + 1)


def test_tail_norms_keep_no_weights_array():
    # a kernel keeps two sums per p, not its weights, so sixteen tail
    # norms leave no array behind and never hold two at once
    T = 10**5
    unit = 8 * (4 * T + 1)
    kernel = PiecewiseLinearKernel.from_family("K5", T)
    tracemalloc.start()
    try:
        for p in (1.1, 4 / 3, 1.6, 2.0):
            for n in range(4):
                tail_norm(kernel, n, p)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= 0.01 * unit
    assert peak <= 1.5 * unit


def test_a_fresh_kernel_calls_no_fft_after_it_is_made(monkeypatch):
    # the kernel computes its coefficients when it is made, so a profile
    # charges the transforms to its construction, not to the first tail
    # norm or certificate
    kernels_made = [PiecewiseLinearKernel.from_family("K5", 50) for _ in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("an FFT after the kernel was made")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    with pytest.raises(AssertionError, match="an FFT"):
        PiecewiseLinearKernel.from_family("K5", 50)
    for p in (4 / 3, 2.0):
        for n in (0, 1, 2, 5):
            tail_norm(kernels_made[0], n, p)
    BoundCertificate.from_kernel(kernels_made[1])


def test_the_block_is_the_benchmarked_one():
    record = json.loads((Path(__file__).resolve().parent.parent / "BENCH_kernels.json").read_text())
    assert _HURWITZ_BLOCK == record["block"]


def test_bench_kernels_script_runs_at_a_small_T(bench):
    # scripts/bench_kernels.py reads the kernel's private names; a rename
    # must fail here, not at the next benchmark run
    kernel = PiecewiseLinearKernel.from_family(bench.FAMILY, 50)
    value = tail_norm(PiecewiseLinearKernel.from_family(bench.FAMILY, 50), bench.N, bench.P).value
    assert bench.one_tail(kernel) == value
    assert bench.agreement(kernel) <= bench.AGREEMENT
    # the 4T reference rounds differently from the kernel's two half-length
    # transforms, so the two agree to the bound of transform_bound, not bit for bit
    assert np.max(np.abs(bench.reference_coefficients(kernel) - kernel.normalized_coefficients())) <= \
        transform_bound(kernel.y)
    assert bench.fft_difference(kernel) <= bench.FFT_AGREEMENT
    assert np.array_equal(bench.fresh_coefficients(kernel), kernel.normalized_coefficients())
    assert bench.reference_tail(kernel) == pytest.approx(
        sum(kernel._period_sum(bench.P, start) for start in (1, 2)), rel=1e-15)
    with bench.evaluation(block=7):
        assert kernels._HURWITZ_BLOCK == 7
        assert bench.one_tail(kernel) == value
    assert kernels._HURWITZ_BLOCK == _HURWITZ_BLOCK  # every setting is restored
    assert bench.peak_bytes(kernel) > 0 and bench.page_faults(50) >= 0
    assert bench.traced_peak(lambda: bench.fresh_coefficients(kernel)) >= 8 * (2 * kernel.T + 1)
    times = bench.rounds_of_seconds([lambda: None, lambda: None], 3)
    assert len(times) == 3 and all(len(row) == 2 for row in times)
    # a sweep keeps the current value unless another beats it by more than the tie
    rows = [{"v": 1, "relative": 1.04}, {"v": 2, "relative": 1.0}, {"v": 3, "relative": 1.01}]
    assert bench.keep_unless_beaten(rows, "v", 1) == 1
    rows[0]["relative"] = 1.06
    assert bench.keep_unless_beaten(rows, "v", 1) == 2


def transform_bound(y) -> float:
    """4 log2(4T) 2^-53 sum |e_m| over the edge samples e_m = d_(m-1) - d_m, d = diff(y)."""
    d = np.diff(y)
    return 4.0 * math.log2(4 * (len(y) - 1)) * 2.0**-53 * float(np.sum(np.abs(np.r_[0.0, d] - np.r_[d, 0.0])))


def direct_coefficient(y, j: int) -> float:
    """C(j) = sum_t d_t (cos 2 pi j x_t - cos 2 pi j x_(t-1)), x_t = 1/4 + t/(4T), by math.fsum.

    Each angle 2 pi j x_t = pi (j (T + t) mod 4T) / 2T comes from an exact
    integer phase.
    """
    T = len(y) - 1
    cos = [math.cos(math.pi * (j * (T + t) % (4 * T)) / (2 * T)) for t in range(T + 1)]
    d = np.diff(y).tolist()
    return math.fsum(term for t in range(1, T + 1) for term in (d[t - 1] * cos[t], -d[t - 1] * cos[t - 1]))


@pytest.mark.parametrize("T", [1, 2, 3, 7, 50, 51])
def test_coefficients_match_the_direct_sum(T):
    # the even j come from a real FFT of length 2T and the odd j from a
    # DCT-III by one inverse real FFT of length T, whose interleave has
    # its edge cases at T = 1 and 2 and at odd T
    rng = np.random.default_rng(T)
    kernels_ = [PiecewiseLinearKernel.from_family(family, T) for family in ("K1", "K3", "K5")]
    kernels_.append(PiecewiseLinearKernel(np.r_[1.0, rng.uniform(-1.0, 1.0, T)]))
    for kernel in kernels_:
        c = kernel.normalized_coefficients()
        assert c.shape == (2 * T + 1,)
        bound = transform_bound(kernel.y)
        for j in range(2 * T + 1):
            assert abs(c[j] - direct_coefficient(kernel.y, j)) <= bound, (kernel.y[1], j)


def test_coefficient_profile_periodicity_and_fft():
    # coefficient(j) reads C(j mod 4T) through the fold; over two periods
    # and past them it matches the direct cosine sum
    kernel = PiecewiseLinearKernel.from_family("K5", 50)
    T = kernel.T
    xs = 0.25 + np.arange(T + 1) / (4 * T)
    for j in range(1, 8 * T + 8):
        direct = float(np.sum(np.diff(kernel.y) * (
            np.cos(2 * math.pi * j * xs[1:]) - np.cos(2 * math.pi * j * xs[:-1]))))
        c = kernel.coefficient(j) * (math.pi * j) ** 2 / (2 * T)
        assert c == pytest.approx(direct, abs=1e-12), j


@pytest.mark.parametrize("T", [1, 2, 3, 50])
def test_real_fft_mirror_matches_the_complex_fft(T):
    # the kernel keeps j = 0..2T of a real FFT and reads the rest of
    # every period through the fold C(4T - j) = C(j)
    kernel = PiecewiseLinearKernel.from_family("K3", T)
    d = np.diff(kernel.y)
    edge = np.zeros(4 * T)
    edge[T + 1:2 * T + 1] += d
    edge[T:2 * T] -= d
    full = np.fft.fft(edge).real
    assert kernel.normalized_coefficients().shape == (2 * T + 1,)
    for j in range(1, 8 * T + 8):
        c = kernel.coefficient(j) * (math.pi * j) ** 2 / (2 * T)
        assert abs(c - full[j % (4 * T)]) <= 1e-12 * np.max(np.abs(full)), j
        assert kernel.coefficient(-j) == kernel.coefficient(j)


def test_coefficient_against_quadrature():
    kernel = PiecewiseLinearKernel.from_family("K3", 64)
    nodes = 0.25 + np.arange(kernel.T + 1) / (4 * kernel.T)
    grid = np.linspace(-0.5, 0.5, 200001)
    # K is 1 on |x| <= 1/4 (np.interp holds y_0 = 1 left of the first node)
    k_of_grid = np.interp(np.abs(grid), nodes, kernel.y)
    for j in (0, 1, 3):
        quad = float(np.trapezoid(k_of_grid * np.cos(2 * math.pi * j * grid), grid))
        assert kernel.coefficient(j) == pytest.approx(quad, abs=1e-7)


def test_tail_norm_against_truncated_sum():
    kernel = PiecewiseLinearKernel.from_family("K5", 400)
    p = 4 / 3
    for n in (1, 2, 5):
        js = np.arange(n, 2 * 10**6)
        c, m = kernel.normalized_coefficients(), js % (4 * kernel.T)
        coeffs = 2 * kernel.T * np.abs(c[np.minimum(m, 4 * kernel.T - m)]) / (math.pi**2 * js * js)
        partial = float(np.sum(coeffs**p)) * 2.0
        cmax = float(np.abs(c).max())
        tail_cap = 2.0 * (2 * kernel.T * cmax / math.pi**2) ** p * (
            (js[-1]) ** (1 - 2 * p) / (2 * p - 1))
        value = tail_norm(kernel, n, p).value ** p
        assert partial - 1e-12 <= value <= partial + tail_cap + 1e-12


def test_tail_norm_at_a_large_p_against_mpmath():
    # at T = 10 the factor (2T / ((4T)^2 pi^2))^p is below 1e-290 at p = 100
    # and underflows at p = 150; each term's root is taken before the sum,
    # so the norm stays a float near 3.4e-4.  n = 0 adds |Khat(0)|^p, the
    # larger term at p = 50.  Past the first periods, at n = 401 and
    # 4000 T, the unscaled zeta weights would underflow too; the kernel
    # scales them by c^2p (_unit).  The j-sum runs for at least 400 terms
    # and until (j/n)^-2p is negligible
    mpmath = pytest.importorskip("mpmath")
    kernel = PiecewiseLinearKernel.from_family("K5", 10)
    T, c = kernel.T, kernel.normalized_coefficients()
    with mpmath.workdps(40):
        for n, p in ((40, 100.0), (40, 150.0), (0, 50.0), (401, 150.0), (4000 * T, 150.0)):
            start = max(n, 1)
            total, j = mpmath.mpf(0), start
            while j < start + 400 or (j / start) ** (-2 * p) >= 1e-25:
                m = j % (4 * T)
                khat = 2 * T * mpmath.mpf(float(c[min(m, 4 * T - m)])) / (mpmath.pi * j) ** 2
                total += 2 * abs(khat) ** p
                j += 1
            if n == 0:
                total += abs(mpmath.mpf(float(kernel.fourier_dc()))) ** p
            exact = total ** (1 / mpmath.mpf(p))
            value = tail_norm(kernel, n, p).value
            assert value > 0.0 and abs(value - exact) <= 1e-13 * exact, (n, p)


def test_tail_norm_monotone_in_n_and_p():
    kernel = PiecewiseLinearKernel.from_family("K3", T_SMALL)
    values = [tail_norm(kernel, n, 4 / 3).value for n in range(0, 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    ps = [1.1, 4 / 3, 1.6, 2.0]
    norms = [tail_norm(kernel, 1, p).value for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_tail_norms_do_not_depend_on_call_order():
    # the kernel caches two period sums per p; asking in a mixed order must
    # give every value a fresh kernel gives, bit for bit
    kernel = PiecewiseLinearKernel.from_family("K5", T_SMALL)
    for p in (2.0, 4 / 3):
        for n in (5, 2, 0, 1):
            fresh = PiecewiseLinearKernel.from_family("K5", T_SMALL)
            assert tail_norm(kernel, n, p) == tail_norm(fresh, n, p), (n, p)
    fresh = PiecewiseLinearKernel.from_family("K5", T_SMALL)
    assert BoundCertificate.from_kernel(kernel) == BoundCertificate.from_kernel(fresh)
    # a NaN key would never hit the cache
    with pytest.raises(ValueError, match="tail norms need 1 < p < inf"):
        tail_norm(kernel, 1, math.nan)
    # a finite p so large that the zeta factors overflow is refused by name
    with pytest.raises(ValueError, match="at p = 100$"):
        tail_norm(kernel, 1, 100.0)


def test_parseval_cross_check():
    for family in ("K3", "K5"):
        kernel = PiecewiseLinearKernel.from_family(family, T_SMALL)
        spectral = kernel.fourier_dc() ** 2 + tail_norm(kernel, 1, 2.0).value ** 2
        # the integral of K^2: exact areas of the piecewise quadratic K^2
        y = kernel.y
        pieces = (y[:-1] ** 2 + y[:-1] * y[1:] + y[1:] ** 2) / 3.0
        squared_integral = 2.0 * (0.25 + pieces.sum() / (4.0 * kernel.T))
        assert spectral == pytest.approx(squared_integral, abs=1e-6)


def test_kernel_keeps_a_read_only_copy_of_its_nodes():
    # T, the FFT coefficients and the period sums are fixed by y at build
    # time, so y must not change under them
    y = PiecewiseLinearKernel.from_family("K5", 50).y.copy()
    before = y.copy()
    kernel = PiecewiseLinearKernel(y)
    with pytest.raises(AttributeError):
        kernel.y = np.ones(51)
    with pytest.raises(ValueError):
        kernel.y[1] = 0.5
    assert np.array_equal(y, before)
    y[1] = 0.5  # nor does a write to the caller's array reach the kernel
    assert np.array_equal(kernel.y, before)


def test_kernel_refuses_non_finite_nodes():
    for bad in (math.nan, math.inf, -math.inf):
        for y in ([1.0, bad, 0.5], [1.0, 0.5, bad], [bad, 0.5]):
            with pytest.raises(ValueError, match="kernel node values must be finite"):
                PiecewiseLinearKernel(y)


def test_k1_closed_form_value():
    val = k1_closed_form()
    assert 1.074 < val < 1.075


def test_k1_closed_form_matches_analytic_norm():
    # the two-valued kernel has an elementary coefficient norm
    v = step_level()
    dc = (1 + v) / 2
    odd_sum = 2 * ((1 - v) / math.pi) ** (4 / 3) * (1 - 2.0 ** (-4 / 3)) * hurwitz_zeta(4 / 3, 1.0)
    norm = (dc ** (4 / 3) + odd_sum) ** (3 / 4)
    assert norm ** -4 == pytest.approx(k1_closed_form(), abs=1e-12)


def test_k1_discretization_is_close():
    # The straight-edge approximation softens the jump, so its tail norm
    # undershoots the analytic one by a few parts in 10^3 at T = 10^4
    # (measured 4.5e-3 on the inverse-fourth-power scale).
    kernel = PiecewiseLinearKernel.from_profile(lambda x: np.full_like(x, step_level()), 10**4)
    val = tail_norm(kernel, 0, 4 / 3).value ** -4
    assert val == pytest.approx(k1_closed_form(), abs=5e-3)


def test_alpha_mix_identity_and_edge():
    kernel = PiecewiseLinearKernel.from_family("K3", T_SMALL)
    khat0 = kernel.fourier_dc()
    tail1 = tail_norm(kernel, 1, 4 / 3).value
    _, bound = alpha_mix_optimum(khat0, tail1, 4 / 3)
    assert bound == pytest.approx(1 + ((1 - khat0) / tail1) ** 4, abs=1e-12)
    assert alpha_mix_optimum(1.0, 0.3, 4 / 3) == (1.0, 1.0)
    # an infinite tail is no negligible tail, and a NaN one overflows nothing
    for tail1 in (math.inf, math.nan, -math.inf, 0.0, -0.5):
        with pytest.raises(ValueError, match=f"need a finite tail1 > 0, got tail1 = {tail1!r}"):
            alpha_mix_optimum(0.5, tail1, 4 / 3)
    with pytest.raises(ValueError, match="need a finite tail1 > 0"):
        alpha_mix_optimum(1.0, math.inf, 4 / 3)


def test_alpha_mix_near_p_one_cannot_overflow():
    # q = p/(p-1) is 100001 at p = 1.00001, where tail1^(q) overflowed a
    # float; the floor is 1 + (M/tail1)^q and alpha = 1 - R/(1+R)/M
    kernel = PiecewiseLinearKernel.from_family("K5", 10)
    khat0 = kernel.fourier_dc()
    for p in (1.00001, 1.001):
        tail1 = tail_norm(kernel, 1, p).value
        assert 1.0 - khat0 < tail1  # (M/tail1)^q underflows to 0
        assert alpha_mix_optimum(khat0, tail1, p) == (1.0, 1.0)
    # a floor of 1.25^1001 ~ 1e97 is still a float; 5^1001 is not
    alpha, floor = alpha_mix_optimum(0.5, 0.4, 1.001)
    assert alpha == -1.0 and floor == pytest.approx(1.25 ** (1.001 / (1.001 - 1.0)), rel=1e-12)
    with pytest.raises(ValueError, match="the mix floor overflows a float at p = 1.001"):
        alpha_mix_optimum(0.5, 0.1, 1.001)


def test_alpha_mix_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    with mpmath.workdps(40):
        for khat0, tail1, p in zip(rng.uniform(0.05, 0.95, 50), rng.uniform(0.05, 1.5, 50),
                                   rng.uniform(1.05, 1.95, 50)):
            alpha, floor = alpha_mix_optimum(float(khat0), float(tail1), float(p))
            mp_p = mpmath.mpf(float(p))
            q, m, t = mp_p / (mp_p - 1), 1 - mpmath.mpf(float(khat0)), mpmath.mpf(float(tail1))
            n = t**mp_p
            exact_alpha = 1 - m ** (q / mp_p) / (m**q + n ** (q / mp_p))
            exact_floor = (n * (m**q + n ** (q / mp_p)) ** (1 - mp_p)) ** (-q / mp_p)
            assert abs(floor - exact_floor) <= 1e-14 * exact_floor
            assert abs(alpha - exact_alpha) <= 1e-14 * (1 + abs(exact_alpha)) / float(m)


def test_quartic_bound_values():
    kernel = PiecewiseLinearKernel.from_family("K5", 10**4)
    cert = BoundCertificate.from_kernel(kernel)
    assert quartic_main_bound(cert, 0.0) == pytest.approx(6.609, abs=2e-3)
    assert quartic_main_bound(cert, 0.4191447) == pytest.approx(1.1828, abs=1e-4)
    for x1 in (0.0, 0.3, 0.4191447):
        assert cert.linear_head(x1) == pytest.approx(
            0.368067372 - 0.541553784 * x1, abs=1e-9)


def test_quartic_min_is_the_mix_bound():
    kernel = PiecewiseLinearKernel.from_family("K5", T_SMALL)
    cert = BoundCertificate.from_kernel(kernel)
    tail1 = tail_norm(kernel, 1, 4 / 3).value
    assert quartic_main_bound(cert, quartic_argmin(cert)) == pytest.approx(
        1 + ((1 - cert.khat0) / tail1) ** 4, abs=1e-9)


def test_green_coefficient_bound():
    assert green_coefficient_bound(1.0) == pytest.approx(0.0, abs=1e-15)
    assert green_coefficient_bound(2.0) == pytest.approx(2 / math.pi, abs=1e-15)
    assert math.sqrt(green_coefficient_bound(1.182778)) == pytest.approx(
        0.4191447, abs=1e-6)
    for ffinorm in (0.9, math.nan):
        with pytest.raises(ValueError, match="at least 1 for a density"):
            green_coefficient_bound(ffinorm)
    # (F/pi) sin(pi/F) would be inf * 0 = nan
    with pytest.raises(ValueError, match="needs a finite"):
        green_coefficient_bound(math.inf)


def test_certificate_doubling_ends_on_every_tested_kernel():
    # the bisection doubles its upper end until a threshold fails; that
    # must happen before the threshold reaches inf, which is refused
    certs = [BoundCertificate.from_kernel(PiecewiseLinearKernel.from_family(family, T))
             for family in ("K1", "K3", "K5") for T in (1, 2, 3, 50, T_SMALL)]
    certs.append(BoundCertificate(khat0=0.73, khat1=0.001, tail_m=0.4))
    for cert in certs:
        f, ok = delta_lower_certificate(cert)
        assert ok and 1.0 < f < 2.0, cert


def test_certificate_explicit_thresholds():
    kernel = PiecewiseLinearKernel.from_family("K5", 10**4)
    cert = BoundCertificate.from_kernel(kernel)
    assert _quartic_certifies(cert, 1.0)
    assert _quartic_certifies(cert, 1.18)
    assert not _quartic_certifies(cert, 1.25)


def test_certificate_is_sharp_near_the_fixed_point():
    # the check accepts just below the self-consistent threshold and
    # rejects just above it
    kernel = PiecewiseLinearKernel.from_family("K5", 10**4)
    cert = BoundCertificate.from_kernel(kernel)
    assert _quartic_certifies(cert, 1.182778)
    assert not _quartic_certifies(cert, 1.182780)


def test_certificate_matches_dense_minimum():
    # the check evaluates B once, at its stationary point clamped into
    # [0, x_hi]; a dense sample of the convex B must give the same answer
    # on both sides of the certified F.  The K5 kernel's stationary point
    # lies beyond x_hi; the hand-built certificate's lies inside.
    shipped = BoundCertificate.from_kernel(PiecewiseLinearKernel.from_family("K5", 10**4))
    inside = BoundCertificate(khat0=0.73, khat1=0.001, tail_m=0.4)
    for cert, x_star_inside in ((shipped, False), (inside, True)):
        f, ok = delta_lower_certificate(cert)
        assert ok
        x_hi = math.sqrt(green_coefficient_bound(f))
        assert (0 < quartic_argmin(cert) < x_hi) == x_star_inside
        if x_star_inside:
            assert f == pytest.approx(quartic_main_bound(cert, quartic_argmin(cert)), abs=1e-12)
        for threshold in (f - 1e-3, f - 1e-6, f + 1e-6, f + 1e-3):
            xs = np.linspace(0.0, math.sqrt(green_coefficient_bound(threshold)), 200001)
            dense = float(np.min(1.0 + 2.0 * xs**4 + (cert.linear_head(xs) / cert.tail_m) ** 4))
            assert _quartic_certifies(cert, threshold) == (dense > threshold)
            assert (dense > threshold) == (threshold < f)


def halve(lo, hi, accepts, steps):
    """The bisections as they ran before they stopped on convergence: a fixed count."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if accepts(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_bisections_end_where_the_fixed_count_loops_did():
    # delta_half_lower halved 80 times and delta_lower_certificate 60;
    # they stop once no float lies strictly between the ends, after
    # which every halving left both ends as they were
    from bstar.kernels import _reflection_coefficient_floor

    for eps in [0.376 + 0.001 * i for i in range(249)] + [0.3751, 0.4, 0.5, 0.6, 0.6249]:
        target = _reflection_coefficient_floor(eps) ** 2
        assert delta_half_lower(eps) == halve(1.0, 2.0, lambda x: green_coefficient_bound(x) < target,
                                              80), eps
    certs = [BoundCertificate.from_kernel(PiecewiseLinearKernel.from_family(family, T))
             for family in ("K1", "K3", "K5") for T in (1, 2, 50, T_SMALL)]
    certs.append(BoundCertificate(khat0=0.73, khat1=0.001, tail_m=0.4))
    for cert in certs:
        hi = 2.0
        while _quartic_certifies(cert, hi):
            hi = 1.0 + 2.0 * (hi - 1.0)
        expected = halve(1.0, hi, lambda x: _quartic_certifies(cert, x), 60)
        assert delta_lower_certificate(cert) == (expected, True), cert


def test_delta_half_lower_matches_the_checked_bisection():
    # the bisection tests (F/pi) sin(pi/F) < target inline; through
    # green_coefficient_bound and its domain checks, the same loop ends on
    # the same float for 1248 eps across (3/8, 5/8)
    from bstar.kernels import _reflection_coefficient_floor

    def checked(eps):
        target = _reflection_coefficient_floor(eps) ** 2
        lo, hi = 1.0, 2.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if green_coefficient_bound(mid) < target:
                lo = mid
            else:
                hi = mid
        return lo

    for eps in np.linspace(0.375, 0.625, 1250)[1:-1].tolist():
        assert delta_half_lower(eps) == checked(eps), eps


def test_delta_half_lower():
    from bstar.kernels import _reflection_coefficient_floor

    assert delta_half_lower(0.5) >= 1.1092 + 0.176158 * 0.5
    assert delta_half_lower(0.6) >= 1.1092 + 0.176158 * 0.6
    for eps in np.linspace(0.38, 0.62, 25):
        floor = delta_half_lower(float(eps))
        assert floor >= 1.1092 + 0.176158 * eps
        # the floor is not admissible itself: the Green bound there still
        # falls short of the squared reflection coefficient
        assert green_coefficient_bound(floor) < _reflection_coefficient_floor(float(eps)) ** 2
    with pytest.raises(ValueError, match="refinement applies for 3/8 < epsilon < 5/8"):
        delta_half_lower(0.3)


def test_rho_upper_cases():
    assert rho_upper(2) == pytest.approx(1.238015, abs=1e-9)
    assert rho_upper(10) == pytest.approx(1.5807365 + math.sqrt(0.0032392356), abs=1e-6)
    assert rho_upper(5) == pytest.approx(1.74043 - 4.75492 / 5, abs=1e-9)
    assert rho_upper(25) <= 2.0
    for g in (2,) + tuple(range(4, 60)):
        assert rho_upper(g) <= 2.0
    with pytest.raises(ValueError):
        rho_upper(1)
    # the small-odd formula gives 0.155457 at g = 3, below rho(3)^2 = 1/3
    with pytest.raises(ValueError, match="no bound at g = 3"):
        rho_upper(3)


def test_rho_upper_is_above_every_lower_bound():
    # an upper bound that a known lower bound contradicts is no bound:
    # rho(2)^2 = 1/2 exactly, and rho_lower covers the even g >= 4
    assert rho_upper(2) >= 0.5
    for g in range(4, 2001, 2):
        assert rho_upper(g) >= rho_lower(g) ** 2, g


def test_rho_upper_is_above_the_monotone_lower_bound():
    # g rho(g)^2 is nondecreasing in g, so rho(g)^2 >= (g'/g) L(g') for
    # every g' <= g, with L(2) = 1/2, L(3) = 1/3 and L = rho_lower^2 on the
    # even g' >= 4.  The least slack is at g = 5.
    def known_lower_sq(g):
        if g in (2, 3):
            return 1 / g
        return rho_lower(g) ** 2 if g % 2 == 0 else 0.0

    best, slack = 0.0, {}  # best: max over g' <= g of g' L(g')
    for g in range(2, 2001):
        best = max(best, g * known_lower_sq(g))
        if g != 3:
            slack[g] = rho_upper(g) - best / g
    assert min(slack.values()) > 0
    assert min(slack, key=slack.get) == 5
    assert slack[5] == pytest.approx(0.3323, abs=1e-4)


def test_rho_upper_stays_below_the_abstracts_1_31():
    # the abstract's R(g, n) < 1.31 sqrt(g n) as rho(g)^2 < 1.31^2.  Every
    # g <= 2000 that rho_upper accepts is below it; the largest value is
    # at g = 2000.  Past the small cases each parity's formula
    # a - b/g + sqrt(c - d/g + e/g^2), with b > 0 and d >= e, stays below
    # its limit a + sqrt(c) = 1.69094 for every g >= 1.
    values = {g: rho_upper(g) for g in range(2, 2001) if g != 3}
    assert max(values.values()) < 1.31 ** 2
    assert max(values, key=values.get) == 2000
    assert values[2000] == pytest.approx(1.69074, abs=1e-5)
    for a, b, c, d, e in (_RHO_EVEN_LARGE, _RHO_ODD_LARGE):
        assert b > 0 and d >= e
        assert a + math.sqrt(c) == pytest.approx(1.69094, abs=1e-5)
        assert a + math.sqrt(c) < 1.31 ** 2


def test_rho_lower_passes_0_79_from_612():
    # the abstract's "rho(g) > 0.79 for sufficiently large g", with the
    # threshold frozen: every even g in [612, 5000] has rho_lower(g) > 0.79,
    # and 610 is the last even g at or below it
    assert rho_lower(610) <= 0.79
    assert all(rho_lower(g) > 0.79 for g in range(612, 5001, 2))


def test_rho_lower_values():
    assert rho_lower(12) == pytest.approx(math.sqrt(3 / 5), abs=1e-12)
    assert rho_lower(4) == pytest.approx(2 / math.sqrt(7), abs=1e-12)
    big = rho_lower(60000)
    assert big == pytest.approx(11 / (8 * math.sqrt(3)), abs=1e-3)
    for g in range(4, 200, 2):
        assert rho_lower(g) ** 2 <= 2.0
    with pytest.raises(ValueError):
        rho_lower(7)


def test_ubiquity_bounds():
    comp, simple = ubiquity_bound(0.7, 0.25)
    assert comp > 0.0137382
    assert simple < 0.0
    _, simple = ubiquity_bound(1.0, 1e-9)
    assert simple == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
        ubiquity_bound(0.7, 0.0)


def test_phi_floor_is_reproduced_by_the_kernel():
    kernel = PiecewiseLinearKernel.from_family("K3", 10**4)
    _, bound = alpha_mix_optimum(kernel.fourier_dc(),
                                 tail_norm(kernel, 1, 4 / 3).value, 4 / 3)
    assert bound >= PHI_FLOOR
    assert tail_norm(kernel, 0, 4 / 3).value < 0.9658413


def test_zeta_integral():
    # the 32-node trapezoid rule is exact to rounding for this periodic weight
    assert zeta_integral_check() == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    # integrand spot values
    from bstar.kernels import periodic_weight_integrand

    assert periodic_weight_integrand(0.0) == pytest.approx(1.0)
    assert periodic_weight_integrand(0.25) == pytest.approx(1.5)


def test_profiles_pin_the_window_edge():
    xs = np.array([0.2500001, 0.3, 0.5])
    assert arctan_profile(xs)[2] == pytest.approx(0.6644)
    assert power_profile(xs)[2] == pytest.approx(0.0, abs=1e-12)
    kernel = PiecewiseLinearKernel.from_family("K5", 100)
    assert kernel.y[0] == 1.0


# scripts/reproduce_constants.py's output, its timing line dropped: a
# change in any printed digit of any constant must be seen
REPRODUCED_CONSTANTS = """\
== two-valued kernel (closed form) ==
autoconvolution floor        1.074279206
== arctan kernel, T = 10^4 ==
Khat(0)                      0.870250799
lnorm_1,4/3                  0.208784534
lnorm_0,4/3                  0.965841249
mix floor ||f*f||_2^2        1.149150757   (alpha = -0.000331)
quadratic constant           0.574575379
== power kernel, T = 10^4 ==
Khat(0)                      0.631932628
Khat(1)                      0.270776892
lnorm_2,4/3                  0.239175395
certified ||f*f||_inf        1.182778918   (verified: True)
quadratic constant           0.591389459
== measure-1/2 refinement ==
eps=0.40: ||f*f||_inf >= 1.179974   delta >= 0.094398
eps=0.50: ||f*f||_inf >= 1.197292   delta >= 0.149662
eps=0.60: ||f*f||_inf >= 1.215298   delta >= 0.218754
== density-ratio bounds ==
rho_upper(2)^2 <= 1.238015
rho_upper(4)^2 <= 1.489222
rho_upper(10)^2 <= 1.637651
rho_upper(25)^2 <= 1.630158
rho_lower(4)   >= 0.755929
rho_lower(6)   >= 0.730297
rho_lower(12)   >= 0.774597
rho_lower(22)   >= 0.767523
rho_lower(24)   >= 0.781736
rho_lower(60)   >= 0.788941
limit ratio 11/(8 sqrt 3) =  0.793857
ubiquity(0.7, 0.25)          0.013738238 / 0.000000000
quadrature self-test         0.866025403784
"""


def test_reproduce_constants_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_constants.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines(keepends=True)
    assert lines[-1].startswith("total time ")
    assert "".join(lines[:-1]) == REPRODUCED_CONSTANTS
