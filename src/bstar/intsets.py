"""Finite integer sets with sum-representation counting.

A set S of nonnegative integers (optionally viewed modulo n) is a B*[g]
set when no value t has more than g ordered representations t = s1 + s2
with s1, s2 in S.  The representation-count profile r(t) is the central
object: S is B*[g] iff max_t r(t) <= g.

The profile is counted exactly by one FFT autoconvolution of the
indicator of S at a power-of-two size, rounded to integers.  Its
rounding error has a proven bound below 0.05 for every admissible set,
and every call checks the rounding distance, the total k^2 and the sign
of the counts, raising ArithmeticError rather than return a wrong count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# Hard cap on the dense profile width; far above any table search and
# small enough that the FFT count's rounding bound stays below 0.05.
_DENSE_LIMIT = 1 << 26


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

    def translate(self, c: int) -> "IntSet":
        """S + c (reduced mod n in the modular setting)."""
        if self.modulus is not None:
            return IntSet.of((e + c for e in self.elements), self.modulus)
        if self.elements and self.elements[0] + c < 0:
            raise ValueError("translation would produce negative elements")
        return IntSet(tuple(e + c for e in self.elements))


def representation_counts(s: IntSet) -> np.ndarray:
    """r(t) = #{(s1, s2) in S^2 : s1 + s2 = t} as an int64 array indexed by t.

    Index t runs over [0, 2 max(S)] in the integer setting and over
    [0, n) in the modular one, where sums are reduced mod n.  Ordered
    pairs are counted, so (a, b) and (b, a) both contribute.

    The profile is the autoconvolution c = x * x of the indicator x of s,
    computed as irfft(rfft(x)**2) at a power-of-two size N >= 2 max(s) + 1
    (at least 2, so log2 N >= 1) and rounded to integers.  A modular
    profile folds that linear one by n in integers, so the modulus never
    enters the float arithmetic and every transform has a power-of-two
    size.

    Exactness, a priori.  Write u = 2^-53, t = log2 N and X = F x for the
    unnormalised DFT F.  By N. J. Higham, Accuracy and Stability of
    Numerical Algorithms (2002), Thm 24.2, a radix-2 FFT with twiddles
    accurate to u has relative 2-norm error at most t eta / (1 - t eta),
    eta = u + gamma_4 (sqrt 2 + u) <= 6.7 u: at most 6.7 t u, which
    eps = 10 t u bounds with room to spare (a real transform computes
    half of a complex one).  The inputs are ||x||_2^2 = k,
    ||X||_inf <= sum(x) = k and ||c||_2 <= sqrt(||c||_1 ||c||_inf)
    <= k^(3/2).  The forward error E has ||E||_2 <= eps sqrt(N k), and
    the inverse has norm 1/sqrt N, so squaring's 2 X E adds at most
    2 eps k^(3/2) and the inverse's own error eps ||c||_2 <= eps k^(3/2).
    The product's rounding (sqrt 2 gamma_2 ||X||_inf ||X||_2 / sqrt N,
    about 2.9 u k^(3/2)) and E^2 (at most eps^2 sqrt N k) fit in the
    3 (10 - 6.7) t u k^(3/2) left over.  So |c_hat(t) - c(t)| <= bound
    = 3 eps k^(3/2).  A width up to _DENSE_LIMIT = 2^26 admits at most
    k = 2^26 elements (modular, N <= 2^27), where the bound is 0.0494:
    every admissible set rounds to its exact profile, so there is no
    second path.  Each call still checks bound < 1/4.

    Exactness, a posteriori, on every call, since numpy's transforms are
    mixed-radix rather than the theorem's radix-2: every entry lies
    within the bound of its rounded value, the counts sum to k^2 and none
    is negative.  A failure raises ArithmeticError; no profile is returned.
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
    x = np.zeros(size)
    x[np.asarray(s.elements, dtype=np.int64)] = 1.0
    f = np.fft.rfft(x)
    del x
    f *= f
    c = np.fft.irfft(f, size)[:width]
    del f
    counts = np.rint(c)
    c -= counts
    err = float(np.abs(c, out=c).max())
    counts = counts.astype(np.int64)
    if n is not None:
        counts = np.pad(counts, (0, -width % n)).reshape(-1, n).sum(axis=0)
    if not (err <= bound and counts.sum() == k * k and counts.min() >= 0):
        raise ArithmeticError(
            f"FFT count failed its check: rounding distance {err:.3g} against "
            f"bound {bound:.3g}, total {counts.sum()} against {k * k}")
    return counts


def max_rep(s: IntSet) -> int:
    """max_t r(t); s is a B*[g] set exactly when this is <= g."""
    return int(representation_counts(s).max())


def is_bstar(s: IntSet, g: int) -> bool:
    """True when every sum value has at most g ordered representations."""
    if g < 1:
        raise ValueError("g must be a positive integer")
    return max_rep(s) <= g
