"""Finite integer sets with sum-representation counting.

A set S of nonnegative integers (optionally viewed modulo n) is a B*[g]
set when no value t has more than g ordered representations t = s1 + s2
with s1, s2 in S.  The representation-count profile r(t) is the central
object: S is B*[g] iff max_t r(t) <= g.

The profile is counted exactly by one FFT autoconvolution of the
indicator of S at a power-of-two size N, rounded to integers.  From
N = _FOUR_STEP_MIN on, the transforms run on D. H. Bailey's four-step
schedule ("FFTs in external or hierarchical memory", J. Supercomputing
4 (1990)): batches of row and column FFTs of about sqrt(N) points, which
stay in cache where one N-point transform would not.  Below it, one
rfft/irfft pair is cheaper (BENCH_intsets.json).  The rounding error
has a proven bound below 0.05 for every admissible set on either
schedule, and every call checks the rounding distance, the total k^2,
the first moment 2 k sum(S) and the sign of the counts, raising
ArithmeticError rather than return a wrong count.
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
_FOUR_STEP_MIN = 1 << 15


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


def _indicator_rfft(idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """rfft along axis 0 of the 0/1 array of `shape` that is 1 at the flat positions idx.

    The indicator lives only in this call, so it is freed as soon as the
    transform has read it.
    """
    x = np.zeros(shape)
    x.reshape(-1)[idx] = 1.0
    return np.fft.rfft(x, axis=0)


def _one_step(idx: np.ndarray, size: int) -> np.ndarray:
    """The cyclic autoconvolution at `size` of the indicator of idx, by one rfft/irfft pair."""
    f = _indicator_rfft(idx, (size,))
    f *= f
    return np.fft.irfft(f, size)


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


def _four_step(idx: np.ndarray, size: int) -> np.ndarray:
    """The autoconvolution of `_one_step`, on Bailey's four-step schedule.

    With t = log2 size, n1 = 2^floor(t/2) and n2 = size/n1, x[a n2 + b] is
    entry [a, b] of an (n1, n2) matrix, and its DFT is
    X[k1 + n1 k2] = sum_b W_n2^(b k2) W^(k1 b) sum_a W_n1^(a k1) x[a n2 + b]:
    an rfft along axis 0 (k1 <= n1/2 determines the rest for real x), the
    twiddles W^(k1 b), an fft along axis 1.  The squared spectrum stays in
    that [k1, k2] order, and the inverse runs the same stages backwards
    with conjugate twiddles, ending in an irfft along axis 0 that returns
    the profile in natural order.
    """
    t = size.bit_length() - 1
    n1 = 1 << t // 2
    n2 = size // n1
    lo, hi = _twiddles(size, n1, n2)
    f = _indicator_rfft(idx, (n1, n2))
    blocks = f.reshape(len(f), hi.shape[1], -1, copy=False)  # b = B b_hi + b_lo
    blocks *= lo
    blocks *= hi
    np.fft.fft(f, axis=1, out=f)
    f *= f
    np.fft.ifft(f, axis=1, out=f)
    blocks *= lo.conj()
    blocks *= hi.conj()
    return np.fft.irfft(f, n1, axis=0).reshape(-1)


def representation_counts(s: IntSet) -> np.ndarray:
    """r(t) = #{(s1, s2) in S^2 : s1 + s2 = t} as an int64 array indexed by t.

    Index t runs over [0, 2 max(S)] in the integer setting and over
    [0, n) in the modular one, where sums are reduced mod n.  Ordered
    pairs are counted, so (a, b) and (b, a) both contribute.

    The profile is the autoconvolution c = x * x of the indicator x of s,
    computed as irfft(rfft(x)**2) at a power-of-two size N >= 2 max(s) + 1
    (at least 2, so log2 N >= 1) and rounded to integers.  From
    N = _FOUR_STEP_MIN on, both transforms run as `_four_step`; below it,
    as one numpy rfft/irfft pair.  A modular profile folds the linear one
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
    from t = 15 on, where the four-step starts.  The inputs are
    ||x||_2^2 = k, ||X||_inf <= sum(x) = k and ||c||_2 <= sqrt(||c||_1
    ||c||_inf) <= k^(3/2).  The forward error E has ||E||_2 <= eps_F
    sqrt(N k), and the inverse has norm 1/sqrt N, so squaring's 2 X E
    adds at most 2 eps_F k^(3/2) and the inverse's own error eps_F
    ||c||_2 <= eps_F k^(3/2).  The product's rounding (sqrt 2 gamma_2
    ||X||_inf ||X||_2 / sqrt N, about 2.9 u k^(3/2)) and E^2 (at most
    eps_F^2 sqrt N k) fit in the 3 (10 t u - eps_F) k^(3/2) >= 9.9 u
    k^(3/2) left over on one step (t <= 14) or 81 u k^(3/2) on four
    (t >= 15).  So |c_hat(t) - c(t)| <= bound = 3 eps k^(3/2).  A width
    up to _DENSE_LIMIT = 2^26 admits at most k = 2^26 elements (modular,
    N <= 2^27), where the bound is 0.0494: every admissible set rounds to
    its exact profile, so there is no second path.  Each call still
    checks bound < 1/4.

    Exactness, a posteriori, on every call, since numpy's transforms are
    mixed-radix rather than the theorem's radix-2: every entry lies
    within the bound of its rounded value, the counts sum to k^2, none is
    negative, and the linear profile's first moment sum_t t r(t) is
    2 k sum(S) (compared modulo 2^64).  The moment catches what rounds
    cleanly and keeps the total but moves counts between sums, as a wrong
    twiddle sign does.  A failure raises ArithmeticError; no profile is
    returned.
    Refuses loudly (rather than degrading) when the dense profile would
    be wider than _DENSE_LIMIT entries, the empty set included.
    """
    k = len(s)
    n = s.modulus
    width = 2 * s.max_element + 1 if k else 1  # of the linear profile
    length = n if n is not None else width
    if length > _DENSE_LIMIT:
        raise ValueError(
            f"profile width {length} exceeds the dense limit {_DENSE_LIMIT}")
    if k == 0:
        return np.zeros(length, dtype=np.int64)
    size = max(2, 1 << (width - 1).bit_length())
    eps = 10 * math.log2(size) * 2.0**-53
    bound = 3 * eps * k**1.5
    if not bound < 0.25:
        raise ArithmeticError(f"rounding bound {bound:.3g} of {k} elements is not below 1/4")
    autoconvolution = _four_step if size >= _FOUR_STEP_MIN else _one_step
    c = autoconvolution(np.asarray(s.elements, dtype=np.int64), size)[:width]
    counts = np.rint(c)
    c -= counts
    err = float(np.abs(c, out=c).max())
    del c
    counts = counts.astype(np.int64)
    # sum_t t r(t) = 2 k sum(S) on the linear profile, exact modulo 2^64 in uint64
    moment = int(np.dot(np.arange(width, dtype=np.uint64), counts.view(np.uint64)))
    pair_sum = 2 * k * sum(s.elements) % 2**64
    if n is not None:
        counts = np.pad(counts, (0, -width % n)).reshape(-1, n).sum(axis=0)
    if not (err <= bound and counts.sum() == k * k and counts.min() >= 0
            and moment == pair_sum):
        raise ArithmeticError(
            f"FFT count failed its check: rounding distance {err:.3g} against "
            f"bound {bound:.3g}, total {counts.sum()} against {k * k}, first "
            f"moment {moment} against {pair_sum} (mod 2^64)")
    return counts


def max_rep(s: IntSet) -> int:
    """max_t r(t); s is a B*[g] set exactly when this is <= g."""
    return int(representation_counts(s).max())


def is_bstar(s: IntSet, g: int) -> bool:
    """True when every sum value has at most g ordered representations."""
    if g < 1:
        raise ValueError("g must be a positive integer")
    return max_rep(s) <= g
