"""Finite integer sets with sum-representation counting.

A set S of nonnegative integers (optionally viewed modulo n) is a B*[g]
set when no value t has more than g ordered representations t = s1 + s2
with s1, s2 in S.  The representation-count profile r(t) is the central
object: S is B*[g] iff max_t r(t) <= g.

The profile is counted exactly by one FFT autoconvolution of the
indicator of S at a power-of-two size N, rounded to integers.  From
N = _FOUR_STEP_MIN on, the transforms run on D. H. Bailey's four-step
schedule ("FFTs in external or hierarchical memory", J. Supercomputing
4 (1990)): batches of FFTs of about sqrt(N) points, which stay in cache
where one N-point transform would not.  In order: per block of columns,
the indicator scattered in transposed order, an rfft along its rows and
the twiddles; then an fft, the square and an ifft along the rows of the
one spectrum-sized array; then per block the conjugate twiddles and an
irfft.  Below it, one rfft/irfft pair is cheaper (BENCH_intsets.json).
Each block of the result is rounded and checked as it comes, so the
float profile is never whole, and `max_rep` of an integer set keeps only
the largest count.  The rounding error has a proven bound below 0.05
for every admissible set on either schedule, and every call checks, on
all N entries, the rounding distance, the total k^2, the first moment
2 k sum(S) and the sign of the counts, raising ArithmeticError rather
than return a wrong count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# Hard cap on the dense profile width; far above any table search and
# small enough that the FFT count's rounding bound stays below 0.05.
_DENSE_LIMIT = 1 << 26
# The least transform size that takes the four-step schedule: the first
# size at which it beats one rfft/irfft pair in BENCH_intsets.json.
_FOUR_STEP_MIN = 1 << 16


@dataclass(frozen=True)
class IntSet:
    """Strictly increasing tuple of nonnegative integers, optional modulus."""

    elements: tuple[int, ...]
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus <= 0:
            raise ValueError("modulus must be a positive integer")
        prev = -1
        for e in self.elements:
            if e < 0:
                raise ValueError("elements must be nonnegative")
            if e <= prev:
                raise ValueError("elements must be strictly increasing")
            if self.modulus is not None and e >= self.modulus:
                raise ValueError("elements must lie in [0, modulus)")
            prev = e

    @classmethod
    def of(cls, elements: Iterable[int], modulus: Optional[int] = None) -> "IntSet":
        """Build from any iterable; reduces mod n when given, sorts, dedupes."""
        if modulus is not None and modulus > 0:  # __post_init__ rejects the rest
            elements = (e % modulus for e in elements)
        return cls(tuple(sorted(set(elements))), modulus)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_element(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no max element")
        return self.elements[-1]


def _one_step(idx: np.ndarray, size: int):
    """The cyclic autoconvolution at `size` of the indicator of idx, by one rfft/irfft pair.

    Yields it as `_four_step`'s blocks do, as the one block (0, c) of a
    single row: c[0, t] is entry t.
    """
    x = np.zeros(size)
    x[idx] = 1.0
    f = np.fft.rfft(x)
    del x
    f *= f
    c = np.fft.irfft(f, size)
    del f
    yield 0, c.reshape(1, size)


def _twiddles(size: int, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Two factor tables whose product is W^(k1 b), W = exp(-2 pi i / size).

    For k1 in [0, n1/2] and b = B b_hi + b_lo in [0, n2), B = 2^floor(log2(n2) / 2):
    lo[k1, 0, b_lo] = W^(k1 b_lo) and hi[k1, b_hi, 0] = W^(k1 B b_hi), shaped to
    broadcast against the (n1/2 + 1, n2/B, B) view of the spectrum.  Each
    phase k1 b is an exact integer below size/2, so each angle is 2 pi
    phase / size with two roundings, in (-pi, 0].
    """
    block = 1 << (n2.bit_length() - 1) // 2
    k1 = np.arange(n1 // 2 + 1)[:, None, None]
    step = -2j * np.pi / size
    return (np.exp(k1 * np.arange(block) * step),
            np.exp(k1 * (block * np.arange(n2 // block))[:, None] * step))


def _four_step(idx: np.ndarray, size: int):
    """The autoconvolution of `_one_step`, on Bailey's four-step schedule, in column blocks.

    With t = log2 size, n1 = 2^floor(t/2) and n2 = size/n1, x[a n2 + b] is
    entry [a, b] of an (n1, n2) matrix, and its DFT is
    X[k1 + n1 k2] = sum_b W_n2^(b k2) W^(k1 b) sum_a W_n1^(a k1) x[a n2 + b]:
    an rfft along axis 0 (k1 <= n1/2 determines the rest for real x), the
    twiddles W^(k1 b), an fft along axis 1.  The squared spectrum stays in
    that [k1, k2] order, and the inverse runs the same stages backwards
    with conjugate twiddles, ending in an irfft along axis 0 that returns
    the profile in natural order.

    Every pass works on blocks of B columns, B of `_twiddles`, so that
    each transform reads contiguous rows or a block that stays in cache,
    and the (n1/2 + 1, n2) spectrum is the one array of the full size.
    Forward, each block of the sparse indicator is scattered straight into
    transposed order (x[a n2 + b] at b n1 + a), transformed along its
    rows, multiplied by the twiddles and stored transposed into the
    spectrum.  The fft, square and ifft along axis 1 run in place.
    Inverse, each block is copied out with the conjugate twiddles and
    irfft'd along axis 0, and yielded as (b0, c) with c[a, j] the entry
    a n2 + b0 + j of the autoconvolution.  Blocks and transposes only move
    data: each 1-D transform is the same call on the same values as on
    the whole matrix.
    """
    t = size.bit_length() - 1
    n1 = 1 << t // 2
    n2 = size // n1
    lo, hi = _twiddles(size, n1, n2)
    lo, hi = lo[:, 0], hi[:, :, 0]  # (n1/2 + 1, B) and (n1/2 + 1, n2/B)
    block = lo.shape[1]
    spectrum = np.empty((n1 // 2 + 1, n2), dtype=complex)
    lo_rows, hi_rows = lo.T.copy(), hi.T.copy()
    flat = np.sort(idx % n2 * n1 + idx // n2)  # transposed order: block j is one run
    cuts = np.searchsorted(flat, np.arange(0, size + 1, block * n1)).tolist()
    flat %= block * n1  # the position within its block
    x = np.zeros((block, n1))
    for j, b0 in enumerate(range(0, n2, block)):
        ones = flat[cuts[j]:cuts[j + 1]]
        x.flat[ones] = 1.0
        rows = np.fft.rfft(x, axis=1)
        x.flat[ones] = 0.0
        rows *= lo_rows
        rows *= hi_rows[j]
        spectrum[:, b0:b0 + block] = rows.T
    del x, rows, lo_rows, hi_rows
    np.fft.fft(spectrum, axis=1, out=spectrum)
    spectrum *= spectrum
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    np.conjugate(lo, out=lo)
    np.conjugate(hi, out=hi)
    for j, b0 in enumerate(range(0, n2, block)):
        cols = spectrum[:, b0:b0 + block] * lo
        cols *= hi[:, j, None]
        yield b0, np.fft.irfft(cols, n1, axis=0)


def _profile_size(s: IntSet) -> tuple[int, int]:
    """(width, N): the linear profile's width 2 max(S) + 1 and its transform size.

    Refuses a profile wider than _DENSE_LIMIT entries, the empty set's
    (width 1) included when its modulus is that large.
    """
    width = 2 * s.max_element + 1 if s.elements else 1
    length = s.modulus if s.modulus is not None else width
    if length > _DENSE_LIMIT:
        raise ValueError(
            f"profile width {length} exceeds the dense limit {_DENSE_LIMIT}")
    return width, max(2, 1 << (width - 1).bit_length())


def _rounded_counts(s: IntSet, size: int, out: Optional[np.ndarray] = None) -> int:
    """Round the linear autoconvolution of s at `size` to counts, check them, return their max.

    The blocks of `_four_step` (or the one block of `_one_step`) are
    rounded one at a time.  With `out`, an int64 array of `size` entries,
    each block of counts is written into it in place of taking the max,
    and 0 is returned.  The checks of `representation_counts` run on all
    `size` entries, and a failed one raises ArithmeticError after the
    last block.
    """
    k = len(s)
    eps = 10 * math.log2(size) * 2.0**-53
    bound = 3 * eps * k**1.5
    if not bound < 0.25:
        raise ArithmeticError(f"rounding bound {bound:.3g} of {k} elements is not below 1/4")
    autoconvolution = _four_step if size >= _FOUR_STEP_MIN else _one_step
    err = 0.0
    total = low = high = moment = 0
    weights = None
    for b0, c in autoconvolution(np.asarray(s.elements, dtype=np.int64), size):
        rows, cols = c.shape
        n2 = size // rows  # entry [a, j] of the block is t = a n2 + b0 + j
        c = c.reshape(-1)  # (ufuncs on small 2-D arrays cost more)
        if weights is None:  # t - b0, the same for every block
            weights = np.arange(cols, dtype=np.uint64)
            if rows > 1:  # (one row, as on one step, needs no second array)
                weights = (np.arange(0, size, n2, dtype=np.uint64)[:, None] + weights).reshape(-1)
        rounded = np.rint(c)
        c -= rounded
        err = max(err, float(np.abs(c, out=c).max()))
        counts = c.view(np.int64)  # the distances are spent: their memory takes the counts
        counts[...] = rounded
        block_total = int(counts.sum())
        total += block_total
        low = min(low, int(counts.min()))
        # sum_t t r(t) over the block: a dot with t - b0, exact modulo 2^64 in uint64
        moment += int(np.dot(weights, counts.view(np.uint64))) + b0 * block_total
        if out is None:
            high = max(high, int(counts.max()))
        else:
            out.reshape(rows, n2)[:, b0:b0 + cols] = counts.reshape(rows, cols)
    moment %= 2**64
    pair_sum = 2 * k * sum(s.elements) % 2**64
    if not (err <= bound and total == k * k and low >= 0 and moment == pair_sum):
        raise ArithmeticError(
            f"FFT count failed its check: rounding distance {err:.3g} against "
            f"bound {bound:.3g}, total {total} against {k * k}, least count {low}, "
            f"first moment {moment} against {pair_sum} (mod 2^64)")
    return high


def representation_counts(s: IntSet) -> np.ndarray:
    """r(t) = #{(s1, s2) in S^2 : s1 + s2 = t} as an int64 array indexed by t.

    Index t runs over [0, 2 max(S)] in the integer setting and over
    [0, n) in the modular one, where sums are reduced mod n.  Ordered
    pairs are counted, so (a, b) and (b, a) both contribute.

    The profile is the autoconvolution c = x * x of the indicator x of s,
    computed as irfft(rfft(x)**2) at a power-of-two size N >= 2 max(s) + 1
    (at least 2, so log2 N >= 1) and rounded to integers.  From
    N = _FOUR_STEP_MIN on, both transforms run as `_four_step`: the
    forward rfft along the rows of each block of columns, the twiddles,
    the fft, square and ifft along the rows of the spectrum, then per
    block the conjugate twiddles and the irfft.  Below it they run as one
    numpy rfft/irfft pair.  Each block of the profile is rounded, checked
    and written into an int64 array of N entries as it comes, so the
    float profile is never whole.  A modular profile folds the linear one
    by n in integers, so the modulus never enters the float arithmetic
    and every transform has a power-of-two size.

    Exactness, a priori.  Write u = 2^-53, t = log2 N and X = F x for the
    unnormalised DFT F.  By N. J. Higham, Accuracy and Stability of
    Numerical Algorithms (2002), Thm 24.2, a radix-2 FFT with twiddles
    accurate to u has relative 2-norm error at most t eta / (1 - t eta),
    eta = u + gamma_4 (sqrt 2 + u) <= 6.7 u: at most 6.7 t u (a real
    transform computes half of a complex one).  The four-step schedule
    is the same product of stages with two more, the twiddle factors,
    each a unitary diagonal, so the theorem's proof holds with t + 2
    stages.  A factor's entries come from an exact integer phase through
    two roundings to an angle in (-pi, 0] (at most 2 pi u) and exp, whose
    cos and sin are taken within one ulp (sqrt 2 u), so they are accurate
    to mu <= 7.7 u; its product's error is mu + sqrt 2 gamma_2 (1 + mu)
    <= 10.6 u.  Either way the error is eps_F <= (6.7 t + 22) u, and
    eps = 10 t u bounds it for t >= 7, by at least 3.3 t - 22 >= 27 u
    from t = 15 on (the four-step starts at t = 16).  The inputs are
    ||x||_2^2 = k, ||X||_inf <= sum(x) = k and ||c||_2 <= sqrt(||c||_1
    ||c||_inf) <= k^(3/2).  The forward error E has ||E||_2 <= eps_F
    sqrt(N k), and the inverse has norm 1/sqrt N, so squaring's 2 X E
    adds at most 2 eps_F k^(3/2) and the inverse's own error eps_F
    ||c||_2 <= eps_F k^(3/2).  The product's rounding (sqrt 2 gamma_2
    ||X||_inf ||X||_2 / sqrt N, about 2.9 u k^(3/2)) and E^2 (at most
    eps_F^2 sqrt N k) fit in the 3 (10 t u - eps_F) k^(3/2) >= 9.9 u
    k^(3/2) left over on one step (t <= 15) or 81 u k^(3/2) on four
    (t >= 16).  So |c_hat(t) - c(t)| <= bound = 3 eps k^(3/2).  A width
    up to _DENSE_LIMIT = 2^26 admits at most k = 2^26 elements (modular,
    N <= 2^27), where the bound is 0.0494: every admissible set rounds to
    its exact profile, so there is no second path.  Each call still
    checks bound < 1/4.

    Exactness, a posteriori, on every call, since numpy's transforms are
    mixed-radix rather than the theorem's radix-2.  On all N entries of
    the linear autoconvolution, those at t >= 2 max(S) + 1 that are exact
    zeros included: every entry lies within the bound of its rounded
    value, the counts sum to k^2, none is negative, and the first moment
    sum_t t r(t) is 2 k sum(S) (compared modulo 2^64; a block adds its dot
    with t - b0 and b0 times its total, b0 its first column).  The moment
    catches what rounds cleanly and keeps the total but moves counts
    between sums, as a wrong twiddle sign does.  A failure raises
    ArithmeticError; no profile is returned.
    Refuses loudly (rather than degrading) when the dense profile would
    be wider than _DENSE_LIMIT entries, the empty set included.
    """
    width, size = _profile_size(s)
    n = s.modulus
    if not s.elements:
        return np.zeros(n if n is not None else width, dtype=np.int64)
    counts = np.empty(size, dtype=np.int64)
    _rounded_counts(s, size, counts)
    if n is None:
        return counts[:width]
    return np.pad(counts[:width], (0, -width % n)).reshape(-1, n).sum(axis=0)


def max_rep(s: IntSet) -> int:
    """max_t r(t); s is a B*[g] set exactly when this is <= g.

    On a nonempty integer set no profile is built: the counts are rounded
    and checked block by block, and only their running maximum is kept.
    """
    if s.modulus is not None or not s.elements:
        return int(representation_counts(s).max())
    return _rounded_counts(s, _profile_size(s)[1])


def is_bstar(s: IntSet, g: int) -> bool:
    """True when every sum value has at most g ordered representations."""
    if g < 1:
        raise ValueError("g must be a positive integer")
    return max_rep(s) <= g
