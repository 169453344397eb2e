"""Spectral machinery for autoconvolution lower bounds.

The pipeline certifies constants of the form "every density f supported
on an interval of length 1/2 has ||f*f||_inf >= c":

* piecewise-linear kernels K on the circle, equal to 1 on [-1/4, 1/4],
  whose Fourier tail norms are evaluated in closed form: the normalized
  coefficients C(j) are periodic, so the tail sum collapses to one
  period weighted by Hurwitz zeta values,

      lnorm_n_p(K)^p = 2 (2T / ((4T)^2 pi^2))^p
                       * sum_{j=n}^{n+4T-1} |C(j)|^p zeta(2p, j/(4T)),

  with C(j) = sum_t (y_t - y_{t-1}) (cos(2 pi j x_t) - cos(2 pi j x_{t-1})),

* C(j) for j = 0..2T from the T + 1 edge samples e_m = d_(m-1) - d_m,
  d = diff(y), by two transforms of half length split by the parity of
  j: the even j are a DCT-I of size T + 1, the real part of one real
  FFT of length 2T, and the odd j a DCT-III of size T, one inverse real
  FFT of length T in Makhoul's form with O(T) twiddles; no array in
  them is longer than 2T + 1,

* the fold j <-> 4T - j: C is even, so C(4T - j) = C(j), and by the
  reflection identity zeta(s, x+b) + zeta(s, x-b) is one polynomial in
  b^2 whose truncation is proven below 2^-59 of the value.  Each pair
  j, 4T - j then takes one |C|^p, two direct powers and that even
  polynomial, over half the spectrum; Euler-Maclaurin gives its
  coefficients and the scalar hurwitz_zeta, within 2e-15 relative of
  mpmath (tests/test_kernels.py),

* a mixing optimum: blending K with the constant 1 minimizes the
  l^{4/3} coefficient norm and yields the floor
  ||f*f||_2^2 >= 1 + ((1 - Khat(0)) / lnorm_1)^4,

* a quartic refinement in x1 = Re fhat(1),

      B(x1) = 1 + 2 x1^4 + ((1 - Khat(0) - 2 Khat(1) x1) / lnorm_2)^4,

  combined with the reflection bound |fhat(j)|^2 <= (F/pi) sin(pi/F)
  for F = ||f*f||_inf: B is convex (x1^4 plus the fourth power of an
  affine function), so its minimum over the admissible range
  0 <= x1 <= sqrt((F/pi) sin(pi/F)) sits at its stationary point
  clamped into that range, and B > F there certifies F as a lower
  bound on ||f*f||_inf,

* closed-form evaluators for the density-ratio consequences: upper and
  lower bounds on rho(g) = lim R(g,n)/sqrt(gn) and the repeated-sum
  ubiquity bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Certified floor for ||f*f||_2^2: the T=10^4 arctan kernel has
# coefficient norm < 0.9658413 (re-derived by the regression tests), so
# the floor is its inverse fourth power, ~1.149150619.
PHI_FLOOR = 0.9658413 ** -4

# Display constants of the four-case closed-form upper bound on
# rho_upper(g)^2; see rho_upper.
_RHO_EVEN_SMALL = (1.74043, 1.00483)
_RHO_EVEN_LARGE = (1.58337, 0.026335, 0.011572, 0.083397, 0.00069356)
_RHO_ODD_SMALL = (1.74043, 4.75492)
_RHO_ODD_LARGE = (1.58337, 0.071949, 0.011572, 0.22784, 0.0051768)

# Lower bounds on rho(g) for even g: exact surds up to g = 22, then the
# four-block witness ratio.
_RHO_LOWER_TABLE = {
    4: 2.0 / math.sqrt(7.0),
    6: 2.0 * math.sqrt(2.0) / math.sqrt(15.0),
    8: 2.0 / math.sqrt(7.0),
    10: 7.0 / (3.0 * math.sqrt(10.0)),
    12: math.sqrt(3.0) / math.sqrt(5.0),
    14: 11.0 / math.sqrt(210.0),
    16: 17.0 / (4.0 * math.sqrt(30.0)),
    18: 4.0 / (3.0 * math.sqrt(3.0)),
    20: 2.0 * math.sqrt(5.0) / math.sqrt(33.0),
    22: 18.0 / (5.0 * math.sqrt(22.0)),
}

# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

_BERNOULLI_2J = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
    -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330,
)
_HURWITZ_LEAD_TERMS = 10  # summed directly before the Euler-Maclaurin tail

# The even zeta polynomial of the tail norms (_fold_coefficients) takes
# its coefficients zeta(s + 2k, x) at exponents up to this one, where
# tests/test_kernels.py proves Euler-Maclaurin's remainder below 2^-59 of
# every value and no binomial factor overflows; at x = 3/2 it admits s up
# to about 360, p up to about 180.
_FOLD_MAX_EXPONENT = 1000.0

# Values of j per block: a block's arrays (its j, u, work row and slice
# of the weights, 256 KiB each) stay in a core's L2 cache through the ~50
# elementwise passes of one evaluation, whose Python cost per block
# larger blocks spread thinner.  In BENCH_kernels.json's sweep 2^16 came
# within 2% of 2^15 and 2^14 4% behind it; tests/test_kernels.py holds
# the module to the recorded size.
_HURWITZ_BLOCK = 1 << 15


def _euler_maclaurin(s, a, unit: int = 1) -> np.ndarray:
    """Euler-Maclaurin unit^s zeta(s, a) for a > 0, s > 1; s and a floats or arrays that broadcast.

    unit^s zeta(s, a) is the sum of ((k+a)/unit)^-s, and every power below
    is taken of its argument divided by unit, so that a far a does not
    underflow; at unit = 1 the divisions are exact.

    N = 10 lead terms, then tail = (N+a)^-s [(N+a)/(s-1) + 1/2 +
    sum_j c_j (N+a)^(1-2j)] with c_j = B_2j / (2j)! s (s+1) ... (s+2j-2),
    its M = 10 Bernoulli terms one polynomial in (N+a)^-2 evaluated by
    Horner's rule.  The remainder obeys |R| <= 4 (s)_2M / (2 pi)^2M *
    (N+a)^(1-s-2M) / (s+2M-1) (F. Johansson, Numer. Algorithms 69
    (2015), Thm 1), at most 1.15e-18 for every s > 1, and at most 2.8e-19
    of a^-s < zeta(s, a) for every s > 1 and 0 < a <= 5: far below one
    ulp.  Every entry takes the same operations whatever the shape of
    the call.  Its callers pass a as an array, hurwitz_zeta one entry
    long, so every power takes numpy's vector loop: a build may round
    its scalar power differently.
    """
    coeffs, rising = [], s
    for j, b2j in enumerate(_BERNOULLI_2J, start=1):
        if j > 1:
            rising = rising * (s + (2 * j - 3)) * (s + (2 * j - 2))
        coeffs.append(b2j / math.factorial(2 * j) * rising)
    zeta = np.power(np.divide(a, unit), -s)  # the k = 0 lead term
    for k in range(1, _HURWITZ_LEAD_TERMS):
        zeta += np.power(np.add(a, k) / unit, -s)
    na = np.add(a, float(_HURWITZ_LEAD_TERMS))
    x = np.reciprocal(na)
    x *= x
    tail = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        tail = tail * x + c
    tail /= na
    tail += 0.5
    tail += na / (s - 1.0)
    tail *= np.power(na / unit, -s)
    zeta += tail
    return zeta


def _fold_terms(p: float, x: float) -> int:
    """Length of the even polynomial of _fold_coefficients at s = 2p, refused past _FOLD_MAX_EXPONENT.

    For |b| <= 1/2 < x, H(b) = zeta(s, x+b) + zeta(s, x-b) is the series
    sum_k t_k with t_k = 2 (s)_2k / (2k)! zeta(s+2k, x) b^2k >= 0.  Since
    zeta(s+2k+2, x) <= zeta(s+2k, x) / x^2 term by term, t_(k+1) / t_k <=
    r_k = (s+2k)(s+2k+1) / ((2k+1)(2k+2)) / (4x^2), which falls with k,
    and t_k <= (s)_2k / (2k)! (4x^2)^-k H(0), where H(0) <= H(b).  So once
    r_K < 1 the terms from K on sum to at most (s)_2K / (2K)! (4x^2)^-K /
    (1 - r_K) of the value, and K is the least length that brings this
    below 2^-59: under 1/64 of an ulp.  Everything is summed in logarithms.
    """
    s = 2.0 * p
    log_term, k = 0.0, 0  # log (s)_2k / (2k)! (4x^2)^-k
    while s + 2 * k <= _FOLD_MAX_EXPONENT:
        ratio = (s + 2 * k) * (s + 2 * k + 1) / ((2 * k + 1) * (2 * k + 2)) / (4.0 * x * x)
        if ratio < 1.0 and log_term - math.log1p(-ratio) < -59.0 * math.log(2.0):
            return k
        log_term += math.log(ratio)
        k += 1
    raise ValueError(f"the tail norm's zeta series needs exponents past "
                     f"{_FOLD_MAX_EXPONENT:g} at p = {p:g}")


def _fold_coefficients(p: float, x: float, unit: int = 1) -> list[float]:
    """2 (s)_2k / (2k)! unit^s zeta(s+2k, x) for k < _fold_terms(p, x), s = 2p.

    unit^s H(b), H(b) = zeta(s, x+b) + zeta(s, x-b), is the polynomial
    with these coefficients in u = b^2, to 2^-59 of its value on
    |b| <= 1/2.  The zeta values come from one Euler-Maclaurin call on
    the vector of exponents s + 2k, each scaled by unit^(s+2k) there and
    by unit^-2k here.
    """
    terms = _fold_terms(p, x)
    k = np.arange(terms)
    sigma = 2.0 * p + 2.0 * k
    zeta = _euler_maclaurin(sigma, np.full(terms, x), unit)
    growth = np.cumprod(np.r_[2.0, sigma[:-1] * (sigma[:-1] + 1.0) / ((2 * k[1:] - 1) * (2 * k[1:]))])
    return (growth * zeta * np.power(float(unit), -2.0 * k)).tolist()


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) = sum_{k>=0} (k+a)^(-s), by Euler-Maclaurin (_euler_maclaurin).

    Relative error at most 2e-15 against mpmath for s in {4/3, 2, 2.6,
    8/3, 8}, on a log grid of a over [1e-4, 1] and on a kernel's table
    arguments j/(4T), through _euler_maclaurin also on (1, 5], and for
    s = 300 on [0.3, 2] (tests/test_kernels.py).  Bit for bit the entry
    that _euler_maclaurin gives for the same a in a vector of any length.
    """
    if not 1 < s < math.inf:
        raise ValueError("hurwitz_zeta needs s > 1")
    if not 0 < a <= 1:
        raise ValueError("hurwitz_zeta needs 0 < a <= 1")
    return float(_euler_maclaurin(s, np.array([a], dtype=float))[0])


# ---------------------------------------------------------------------------
# piecewise-linear kernels
# ---------------------------------------------------------------------------

def arctan_profile(x: np.ndarray) -> np.ndarray:
    """Smooth drop from 1 to 0.6644 on (1/4, 1/2]; optimized constants."""
    return 0.6644 + 0.3356 * (
        (2.0 / math.pi) * np.arctan((1.0 - 2.0 * x) / np.sqrt(4.0 * x - 1.0))
    ) ** 1.2015


def power_profile(x: np.ndarray) -> np.ndarray:
    """Drop from 1 to 0 with infinite slope at 1/4; optimized constants."""
    return 1.0 - (1.0 - (4.0 * (0.5 - x)) ** 1.61707) ** 0.546335


def step_level() -> float:
    """The optimal constant level of the two-valued kernel on (1/4, 1/2]."""
    z = hurwitz_zeta(4.0 / 3.0, 1.0)
    return 1.0 - 2.0 * math.pi**4 / (
        math.pi**4 + 24.0 * z**3 * (5.0 + 2.0 ** (4.0 / 3.0) - 2.0 ** (8.0 / 3.0))
    )


def step_profile(x: np.ndarray) -> np.ndarray:
    return np.full_like(np.asarray(x, dtype=float), step_level())


PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "K1": step_profile,
    "K3": arctan_profile,
    "K5": power_profile,
}


def _odd_coefficients(e: np.ndarray, out: np.ndarray) -> None:
    """C(2k+1) = -sum_{n<T} e[T-n] cos(pi (2k+1) n / 2T), k = 0..T-1, into out.

    The sum is the DCT-III X_k of x_n = e[T-n], n = 0..T-1, which
    Makhoul's form (J. Makhoul, IEEE Trans. ASSP 28 (1980)) takes through
    one real inverse FFT of length T: z_0 = 2 x_0 and z_k = W^k (x_k -
    i x_(T-k)) for 0 < k <= T/2, W = exp(i pi / 2T), give v = irfft(z)
    with X_2n = v_n / 2 and X_(2n+1) = v_(T-1-n) / 2.  The factor -1/2
    rides on the twiddles, where it is exact; each twiddle's angle is
    the exact integer phase k times pi / 2T, so two roundings, in
    [0, pi/4].
    """
    T = len(e) - 1
    half = T // 2 + 1
    angle = np.arange(half) * (math.pi / (2 * T))
    cos, sin = np.cos(angle), np.sin(angle, out=angle)
    cos *= -0.5
    sin *= -0.5
    x, mirror = e[T:T - half:-1], e[:half]  # x_k = e[T-k] and x_(T-k) = e[k]
    z = np.empty(half, dtype=complex)
    np.multiply(cos, x, out=z.real)
    z.real += np.multiply(sin, mirror)
    np.multiply(sin, x, out=z.imag)
    z.imag -= np.multiply(cos, mirror, out=cos)
    z[0] = -e[T]
    v = np.fft.irfft(z, T, norm="forward")
    out[0::2] = v[:(T + 1) // 2]
    out[1::2] = v[::-1][:T // 2]


def _half_period_coefficients(y: np.ndarray) -> np.ndarray:
    """C(j) = (pi^2 j^2 / 2T) Khat(j) for half a period, j = 0..2T, of the kernel with nodes y.

    With d = diff(y) and the edge samples e[m] = d[m-1] - d[m], m =
    0..T (d zero outside its range), C(j) = sum_m e[m] cos(pi j (T +
    m) / 2T), and the parity of j splits it into two transforms:

    - even j = 2k: C(2k) = (-1)^k sum_m e[m] cos(pi k m / T), k =
      0..T, a DCT-I of size T + 1.  Stage 1 is the real part of
      np.fft.rfft(e, 2T); stage 2 flips the sign of every odd k.
    - odd j = 2k+1: C(2k+1) = -sum_{n<T} e[T-n] cos(pi (2k+1) n /
      2T), k = 0..T-1, a DCT-III of size T (_odd_coefficients).
      Stage 1 forms T/2 + 1 twiddled pairs, each twiddle's cos and
      sin from an exact integer phase; stage 2 is one np.fft.irfft
      of length T; stage 3 interleaves its outputs from both ends.

    Both hold for every T >= 1, odd T and T = 1, 2 included.  C is even
    with period 4T, so C(4T - j) = C(j) gives the rest of every period
    (see PiecewiseLinearKernel.coefficient).
    """
    T = len(y) - 1
    d = np.diff(y)
    e = np.zeros(T + 1)
    e[1:] = d
    e[:-1] -= d
    del d
    c = np.empty(2 * T + 1)
    c[0::2] = np.fft.rfft(e, 2 * T).real
    c[2::4] *= -1.0
    _odd_coefficients(e, c[1::2])
    return c


class PiecewiseLinearKernel:
    """Even kernel, 1 on [-1/4, 1/4], linear between x_t = 1/4 + t/(4T).

    y holds the finite T+1 node values with y[0] = 1.  The kernel
    computes its coefficients C(j) for half a period, j = 0..2T, when it
    is made, from a real FFT of length 2T (even j) and an inverse real
    FFT of length T (odd j; see _half_period_coefficients), with _scale,
    the power of two that brings max |C| into [1/2, 1), by which the
    tail sums divide C so that |C|^p does not underflow.  Per exponent
    p it caches the two sums S_1 and S_2 of |C/_scale|^p weights that
    its tail norms from n = 0, 1 and 2 read (see _period_sum); so the
    zeta values are computed once per kernel and p, and no weights array
    outlives the call that made it.  All of this is fixed by y, so the
    kernel keeps its own read-only copy of it.
    """

    def __init__(self, y):
        y = np.array(y, dtype=float)
        if y.ndim != 1 or len(y) < 2:
            raise ValueError("need node values y_0..y_T with T >= 1")
        if not np.isfinite(y).all():
            raise ValueError("kernel node values must be finite")
        if y[0] != 1.0:
            raise ValueError("kernel must equal 1 at x = 1/4 (y_0 = 1)")
        y.setflags(write=False)
        self._y = y
        self.T = len(y) - 1
        # numpy's overflow warnings would only repeat the refusal below
        with np.errstate(over="ignore", invalid="ignore"):
            self._c = _half_period_coefficients(y)
        top = max(self._c.max(), -self._c.min())  # NaN if some C(j) is
        if not top < 2.0**1023:  # C is not finite, or _scale would be 2^1024
            raise ValueError("the kernel's Fourier coefficients overflow a float")
        self._scale = 2.0 ** math.frexp(top)[1]
        self._sums: dict[float, tuple[float, float]] = {}

    @property
    def y(self) -> np.ndarray:
        return self._y

    @classmethod
    def from_profile(cls, profile: Callable, T: int) -> "PiecewiseLinearKernel":
        if T < 1:
            raise ValueError("T must be a positive integer")
        t = np.arange(1, T + 1)
        y = np.empty(T + 1)
        y[0] = 1.0
        y[1:] = profile(0.25 + t / (4.0 * T))
        return cls(y)

    @classmethod
    def from_family(cls, family: str, T: int) -> "PiecewiseLinearKernel":
        return cls.from_profile(PROFILES[family], T)

    def fourier_dc(self) -> float:
        """Khat(0) = integral of K: exact trapezoid areas."""
        y, T = self.y, self.T
        return 0.5 + (y[0] / 2 + y[1:-1].sum() + y[-1] / 2) / (2.0 * T)

    def normalized_coefficients(self) -> np.ndarray:
        """C(j) = (pi^2 j^2 / 2T) Khat(j) for half a period, j = 0..2T (_half_period_coefficients)."""
        return self._c

    def coefficient(self, j: int) -> float:
        """Khat(j) = 2T C(j) / (pi j)^2 for j != 0, with j mod 4T folded into [0, 2T]."""
        if j == 0:
            return self.fourier_dc()
        period = 4 * self.T
        m = abs(j) % period
        c = self._c[min(m, period - m)]
        return 2.0 * self.T * float(c) / (math.pi**2 * j * j)

    def _unit(self, start: int) -> int:
        """c = max(r, 1), r = (start - 1) // 4T: the tail sum from start is scaled by c^2p."""
        return max((start - 1) // (4 * self.T), 1)

    def _period_sum(self, p: float, start: int) -> float:
        """S = sum over i >= start of |C(i)/_scale|^p (i/(4T c))^-2p, start >= 1, c = _unit(start).

        c is 1 up to start = 8T; further out, where i/(4T) is at least r
        and its -2p-th power may underflow, c = r keeps the first terms
        near 1.  S equals c^2p times the period sum of |C(j)/_scale|^p
        zeta(2p, j/(4T)) over j = start .. start+4T-1.  S_1 and S_2 share one evaluation, kept per
        p: S_2 is the sum of _folded_weights(p, 2), and S_1 adds to it the
        one term that S_2 leaves out, |C(1)/_scale|^p (1/(4T))^-2p, the power of
        the rounded argument as every direct power takes it, so nothing is
        subtracted.  A later start sums its own evaluation.
        """
        if start > 2:
            return float(np.sum(self._folded_weights(p, start)))
        if p not in self._sums:
            rest = float(np.sum(self._folded_weights(p, 2)))
            c1 = self._c[1] / self._scale
            head = abs(c1) ** p * np.power(1.0 / (4 * self.T), -2.0 * p)
            self._sums[p] = (float(rest + head), rest)
        return self._sums[p][start - 1]

    def _folded_weights(self, p: float, start: int) -> np.ndarray:
        """w(j) for j = 0..2T, whose sum is S = sum over i >= start of |C(i)/_scale|^p (i/(N c))^-s.

        With N = 4T, s = 2p, r = (start - 1) // N and c = _unit(start), S
        takes i below N (r+1) one direct power each, and the rest through
        the classes j = i mod N: C(N - j) = C(j), and zeta(s, r+1+a) +
        zeta(s, r+2-a) = H(a - 1/2) with a = j/N, the even polynomial of
        _fold_coefficients about x = r + 3/2, which scales it by c^s.  So
        j = 1..2T-1 carries the pair j, N - j: |C(j)/_scale|^p times H and
        the direct powers ((rN + j)/(N c))^-s, for j >= start - rN, and
        ((rN + N - j)/(N c))^-s, for j <= N - (start - rN).  j = 2T counts once: H/2 and its one direct power.  j = 0 takes
        zeta(s, r+1) = (H(-1/2) + ((r+1)/c)^-s) / 2; C(0) need not vanish.
        One block of j at a time, with the same elementwise operations
        for each entry, so no entry depends on its block.
        """
        T, s = self.T, 2.0 * p
        period, half = 4 * T, 2 * T
        r, unit = (start - 1) // period, self._unit(start)
        base, first = r * period, start - r * period
        coeffs = _fold_coefficients(p, r + 1.5, unit)
        c = self._c
        weights = np.empty(half + 1)
        work = np.empty((2, min(half + 1, _HURWITZ_BLOCK)))
        for lo in range(0, half + 1, _HURWITZ_BLOCK):
            hi = min(lo + _HURWITZ_BLOCK, half + 1)
            j, out, m = np.arange(lo, hi, dtype=float), weights[lo:hi], hi - lo
            u, term = work[:, :m]
            np.subtract(j, half, out=u)  # u = (a - 1/2)^2
            u /= period
            u *= u
            out.fill(coeffs[-1])
            for coeff in reversed(coeffs[:-1]):
                out *= u
                out += coeff
            if lo == 0:
                out[0] = 0.5 * (out[0] + ((r + 1.0) / unit) ** -s)
            if hi == half + 1:
                out[-1] *= 0.5
            own = max(first, lo) - lo  # the direct powers of j itself
            if own < m:
                t = np.add(j[own:], base, out=term[own:])
                out[own:] += np.power(np.divide(t, period * unit, out=t), -s, out=t)
            mlo, mhi = max(1, lo) - lo, min(half, period - first + 1, hi) - lo  # those of N - j
            if mlo < mhi:
                t = np.subtract(base + period, j[mlo:mhi], out=term[mlo:mhi])
                out[mlo:mhi] += np.power(np.divide(t, period * unit, out=t), -s, out=t)
            cp = np.abs(c[lo:hi], out=term)
            cp /= self._scale
            out *= np.power(cp, p, out=cp)
        return weights


@dataclass(frozen=True)
class SpectralTail:
    """lnorm_{n,p} of a kernel's Fourier coefficients, |j| >= n."""

    n: int
    p: float
    value: float


def tail_norm(kernel: PiecewiseLinearKernel, n: int, p: float) -> SpectralTail:
    """Closed-form lnorm_{n,p}(Khat); n = 0 adds the |Khat(0)|^p term.

    The j-sum runs over exactly one period of C(j), folded at j <-> 4T - j
    into the pairs of half of it; nothing is truncated because the
    Hurwitz zeta factor absorbs each arithmetic progression.  The kernel
    keeps the sums from j = 1 and 2 once per p, so the norms from n = 0,
    1 and 2 cost one folded evaluation, and no weights are kept after
    it; every other start takes the same path.  The p-th root is taken
    of each term before they are added, scaled by the largest, so a norm
    a float can hold never reads 0.0.  A start past 8T sums its terms
    scaled by c^2p (c = _unit(start)), so its root is divided by c^2; a
    start whose scaled weights all underflow is still refused by name,
    as an overflow is.
    """
    if n < 0:
        raise ValueError("tail start must be nonnegative")
    if not 1 < p < math.inf:
        raise ValueError("tail norms need 1 < p < inf")
    T = kernel.T
    # a large p overflows zeta(2p, j/(4T)) for small j; the check below
    # refuses the result, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        total = kernel._period_sum(p, max(n, 1))
    if not math.isfinite(total):
        raise ValueError(f"the tail norm overflows a float at p = {p:g}")
    if total == 0.0 and kernel.normalized_coefficients().any():
        raise ValueError(f"the tail norm's zeta weights underflow at p = {p:g}")
    # lnorm^p = 2 (2T scale / ((4T)^2 pi^2 c^2))^p total (+ |Khat(0)|^p): each
    # term's root is taken first and the sum scaled by the largest, so no
    # p-th power of a norm-sized value is formed and none underflows
    unit = kernel._unit(max(n, 1))
    roots = [2.0 * T * kernel._scale / ((4.0 * T) ** 2 * math.pi**2) * (2.0 * total) ** (1.0 / p)
             / unit**2]
    if n == 0:
        roots.append(abs(kernel.fourier_dc()))
    largest = max(roots)
    if largest == 0.0:
        return SpectralTail(n, p, 0.0)
    return SpectralTail(n, p, largest * sum((r / largest) ** p for r in roots) ** (1.0 / p))


def k1_closed_form() -> float:
    """Coefficient-norm bound of the optimal two-valued kernel.

    Returns ||Khat||_{4/3}^{-4} = 1 + pi^4 / (8 (2^{4/3} - 1)^3 zeta(4/3)^3),
    which is the autoconvolution floor that kernel certifies.
    """
    z = hurwitz_zeta(4.0 / 3.0, 1.0)
    return 1.0 + math.pi**4 / (8.0 * (2.0 ** (4.0 / 3.0) - 1.0) ** 3 * z**3)


# ---------------------------------------------------------------------------
# mixing optimum and the quartic bound
# ---------------------------------------------------------------------------

def alpha_mix_optimum(khat0: float, tail1: float, p: float) -> tuple[float, float]:
    """Optimal blend of a kernel with the constant 1, and the floor it gives.

    Writing M = 1 - khat0 and N = tail1^p, the blend alpha + (1-alpha)K
    has coefficient norm (1 - (1-alpha)M)^p + (1-alpha)^p N, stationary
    at alpha = 1 - M^{q/p} / (M^q + N^{q/p}), where the norm^p equals
    N (M^q + N^{q/p})^{1-p} and the resulting ||f*f||_2^2 floor is
    1 + (M / tail1)^q.  Both are computed from R = (M / tail1)^q, as
    alpha = 1 - R / (1 + R) / M (M^{q/p} tail1^{-q} = R / M, since q/p - q
    = -1) and the floor 1 + R, so no power overflows on the way; as p
    nears 1, q grows without bound and R goes to 0 or to inf.  A floor
    past the float range is refused.
    """
    if not 0 < khat0 <= 1:
        raise ValueError("need 0 < khat0 <= 1")
    if not 0 < tail1 < math.inf:
        raise ValueError(f"need a finite tail1 > 0, got tail1 = {tail1!r}")
    if not 1 < p < 2:
        raise ValueError("need 1 < p < 2")
    q = p / (p - 1.0)
    m = 1.0 - khat0
    if m == 0.0:
        return 1.0, 1.0
    try:
        ratio = (m / tail1) ** q
    except OverflowError:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"the mix floor overflows a float at p = {p:g}")
    return 1.0 - ratio / (1.0 + ratio) / m, 1.0 + ratio


@dataclass(frozen=True)
class BoundCertificate:
    """Inputs of the quartic ||f*f||_inf certificate."""

    khat0: float
    khat1: float
    tail_m: float  # lnorm_{2,4/3}

    @classmethod
    def from_kernel(cls, kernel: PiecewiseLinearKernel) -> "BoundCertificate":
        return cls(
            khat0=float(kernel.fourier_dc()),
            khat1=kernel.coefficient(1),
            tail_m=tail_norm(kernel, 2, 4.0 / 3.0).value,
        )

    def linear_head(self, x1: float) -> float:
        """M(x1) = 1 - khat0 - 2 khat1 x1."""
        return 1.0 - self.khat0 - 2.0 * self.khat1 * x1


def quartic_main_bound(cert: BoundCertificate, x1: float) -> float:
    """B(x1) = 1 + 2 x1^4 + (M(x1) / tail_m)^4, a floor for sum |fhat|^4."""
    return 1.0 + 2.0 * x1**4 + (cert.linear_head(x1) / cert.tail_m) ** 4


def quartic_argmin(cert: BoundCertificate) -> float:
    """Stationary point of B over the real line.

    B'(x) = 8 x^3 - (8 khat1 / tail_m) (M(x) / tail_m)^3 vanishes at
    x* = khat1^(1/3) (1 - khat0) / (2 |khat1|^(4/3) + tail_m^(4/3)).
    """
    cbrt = math.copysign(abs(cert.khat1) ** (1.0 / 3.0), cert.khat1)
    return cbrt * (1.0 - cert.khat0) / (2.0 * cbrt * cert.khat1 + cert.tail_m ** (4.0 / 3.0))


def green_coefficient_bound(ffinorm: float) -> float:
    """Upper bound (F/pi) sin(pi/F) for |fhat(j)|^2, F = ||f*f||_inf >= 1."""
    if not ffinorm >= 1.0:
        raise ValueError("||f*f||_inf is at least 1 for a density")
    if ffinorm == math.inf:
        raise ValueError("the coefficient bound needs a finite ||f*f||_inf")
    return ffinorm / math.pi * math.sin(math.pi / ffinorm)


def _quartic_certifies(cert: BoundCertificate, threshold: float) -> bool:
    """Check B(x1) > threshold on [0, x_hi], x_hi = sqrt((F/pi) sin(pi/F)).

    B is convex, so its minimum on the interval is B at the stationary
    point clamped into it: one evaluation decides the whole range.
    """
    if threshold <= 1.0:
        return True  # B >= 1 everywhere
    x_hi = math.sqrt(green_coefficient_bound(threshold))
    if cert.linear_head(x_hi) <= 0.0:
        return False  # quartic term dies before the range ends
    x_min = min(max(quartic_argmin(cert), 0.0), x_hi)
    return quartic_main_bound(cert, x_min) > threshold


def delta_lower_certificate(cert: BoundCertificate, grid: float = 1e-6) -> tuple[float, bool]:
    """Largest F such that quartic + reflection bounds exclude ||f*f||_inf < F.

    The largest verifiable threshold is located by bisection (the
    feasible set is downward closed), which stops when no float lies
    strictly between its ends, and returned with its certificate flag.  Halving the certified value gives the quadratic constant in
    the symmetric-subset lower bound delta(eps) >= (F/2) eps^2.

    grid is ignored: the check evaluates B once, at its exact minimum.
    """
    lo, hi = 1.0, 2.0  # every threshold <= 1 certifies
    while _quartic_certifies(cert, hi):
        hi = 1.0 + 2.0 * (hi - 1.0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # then lo and hi are adjacent floats
        if _quartic_certifies(cert, mid):
            lo = mid
        else:
            hi = mid
    return lo, True


# ---------------------------------------------------------------------------
# the measure-1/2 refinement
# ---------------------------------------------------------------------------

def _reflection_coefficient_floor(epsilon: float) -> float:
    """Closed-form floor for max(Re fhat(1), -Re fhat(2)) of a width-eps nif."""
    q = math.pi * epsilon
    num = (3.0 * math.cos(q / 4.0) + math.sin(q / 4.0)
           - math.sqrt(3.0 + 4.0 * math.cos(q / 2.0) + 2.0 * math.cos(q) - math.sin(q / 2.0)))
    den = q * math.cos(q / 4.0) + q * math.sin(q / 4.0)
    return num / den


def delta_half_lower(epsilon: float) -> float:
    """||f*f||_inf floor for indicator densities of measure eps in (3/8, 5/8).

    The coefficient floor F below must satisfy F^2 <= (x/pi) sin(pi/x),
    and the right side increases in x, so every admissible x lies above
    the bisection's lower end, where the right side still falls short
    of F^2.  The bisection stops when no float lies strictly between its
    ends, and that lower end is returned; it exceeds 1.1092 + 0.176158 eps on
    the whole range.  Multiplying by eps^2/2 bounds the symmetric-subset
    threshold at measure eps.
    """
    if not 3.0 / 8.0 < epsilon < 5.0 / 8.0:
        raise ValueError("refinement applies for 3/8 < epsilon < 5/8")
    target = _reflection_coefficient_floor(epsilon) ** 2
    lo, hi = 1.0, 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # then lo and hi are adjacent floats
        # green_coefficient_bound(mid), whose domain checks 1 < mid < 2 always passes
        if mid / math.pi * math.sin(math.pi / mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# density-ratio bounds
# ---------------------------------------------------------------------------

def rho_upper(g: int) -> float:
    """Closed-form upper bound on rho_upper(g)^2, split by parity and size.

    g = 3 is refused: the small-odd case gives 1.74043 - 4.75492/3 =
    0.155457 there, below the known exact value rho(3)^2 = 1/3, so it is
    no bound.  Every other g >= 2 stays above the lower bounds this
    module knows (rho_lower, and rho(2)^2 = 1/2).
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    if g == 3:
        raise ValueError("rho_upper has no bound at g = 3: the small-odd formula "
                         "gives 0.155457, below the known rho(3)^2 = 1/3")
    if g % 2 == 0:
        if g <= 8:
            a, b = _RHO_EVEN_SMALL
            return a - b / g
        a, b, c, d, e = _RHO_EVEN_LARGE
    else:
        if g <= 23:
            a, b = _RHO_ODD_SMALL
            return a - b / g
        a, b, c, d, e = _RHO_ODD_LARGE
    return a - b / g + math.sqrt(c - d / g + e / (g * g))


def rho_lower(g: int) -> float:
    """Lower bound on rho(g) for even g: surd table, then the block witness."""
    if g < 4 or g % 2:
        raise ValueError("lower bounds are tabulated for even g >= 4")
    if g in _RHO_LOWER_TABLE:
        return _RHO_LOWER_TABLE[g]
    h = g // 2
    return (h + 2 * (h // 3) + h // 6) / math.sqrt(6 * h * h - 2 * h * (h // 3) + 2 * h)


def ubiquity_bound(gamma_ratio: float, alpha: float) -> tuple[float, float]:
    """Density of sum values repeated more than alpha*g times.

    Returns the spectral-floor bound gamma^2 (PHI_FLOOR/2 gamma^2 - alpha) /
    ((1-alpha)(1+2alpha)) and the plain counting bound
    (gamma^2 - 2 alpha)/(2 - 2 alpha); the caller takes max with 0.  They
    are refused past the float range, which the spectral bound passes first.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0 < gamma_ratio < math.inf:
        raise ValueError("gamma_ratio must be positive and finite")
    g2 = gamma_ratio * gamma_ratio
    complicated = g2 * (0.5 * PHI_FLOOR * g2 - alpha) / ((1.0 - alpha) * (1.0 + 2.0 * alpha))
    simple = (g2 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
    if not math.isfinite(complicated):
        raise ValueError(f"the ubiquity bound overflows a float at gamma_ratio = {gamma_ratio:g}")
    return complicated, simple


# ---------------------------------------------------------------------------
# quadrature self-test
# ---------------------------------------------------------------------------

def periodic_weight_integrand(a):
    """3 / (2 + cos(2 pi a)): the zeta-ratio weight in the periodic tail bound."""
    return 3.0 / (2.0 + np.cos(TWO_PI * a))


def zeta_integral_check() -> float:
    """Integral of the periodic weight over [0, 1/2]; equals sqrt(3)/2.

    By symmetry it is half the weight's mean over one period, and the
    trapezoid rule on 32 equally spaced nodes is spectrally accurate for
    this smooth periodic integrand.
    """
    return 0.5 * float(periodic_weight_integrand(np.arange(32) / 32).mean())
