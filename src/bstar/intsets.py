"""Finite integer sets with sum-representation counting.

A set S of nonnegative integers (optionally viewed modulo n) is a B*[g]
set when no value t has more than g ordered representations t = s1 + s2
with s1, s2 in S.  The representation-count profile r(t) is the central
object: S is B*[g] iff max_t r(t) <= g.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

# Hard cap on the dense profile width; far above any table search and
# small enough that int64 pair sums can never wrap.
_DENSE_LIMIT = 1 << 26

# The bincount runs over row blocks of at most this many ordered pairs.
_PAIR_BLOCK_LIMIT = 4 * 10**7


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

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in set(self.elements)

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

    def dilate(self, u: int) -> "IntSet":
        """u * S mod n; only meaningful in the modular setting."""
        if self.modulus is None:
            raise ValueError("dilation requires a modulus")
        return IntSet.of(((u * e) % self.modulus for e in self.elements), self.modulus)

    def to_json(self) -> str:
        return json.dumps({"modulus": self.modulus, "elements": list(self.elements)})

    @classmethod
    def from_json(cls, text: str) -> "IntSet":
        obj = json.loads(text)
        if not (isinstance(obj, dict) and isinstance(obj.get("elements"), list)
                and "modulus" in obj):
            raise ValueError('set JSON must be an object with keys "elements" (a list) '
                             'and "modulus"')
        return cls(tuple(obj["elements"]), obj["modulus"])


@dataclass(frozen=True)
class RepProfile:
    """Dense table of r(t) = #{(s1, s2) in S^2 : s1 + s2 = t}.

    Index t runs over [0, 2*max(S)] in the integer setting and over
    [0, n) in the modular one.  Ordered pairs are counted, so (a, b)
    and (b, a) both contribute.
    """

    counts: np.ndarray
    modulus: Optional[int] = None

    def count(self, t: int) -> int:
        if self.modulus is not None:
            t %= self.modulus
        if 0 <= t < len(self.counts):
            return int(self.counts[t])
        return 0

    def items(self) -> Iterator[tuple[int, int]]:
        """(t, r(t)) pairs for the nonzero counts."""
        for t in np.nonzero(self.counts)[0]:
            yield int(t), int(self.counts[t])

    @property
    def max_count(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def representation_counts(s: IntSet) -> RepProfile:
    """All ordered pair sums of s, reduced mod n when a modulus is present.

    Refuses loudly (rather than degrading) when the dense profile would
    be wider than _DENSE_LIMIT entries.
    """
    k = len(s)
    n = s.modulus
    if k == 0:
        length = min(n, _DENSE_LIMIT) if n is not None else 1
        return RepProfile(np.zeros(length, dtype=np.int64), n)
    length = n if n is not None else 2 * s.max_element + 1
    if length > _DENSE_LIMIT:
        raise ValueError(
            f"profile width {length} exceeds the dense limit {_DENSE_LIMIT}")
    a = np.asarray(s.elements, dtype=np.int64)
    counts = np.zeros(length, dtype=np.int64)
    block = max(1, _PAIR_BLOCK_LIMIT // k)
    for lo in range(0, k, block):
        sums = (a[lo:lo + block, None] + a[None, :]).ravel()
        if n is not None:
            sums %= n
        counts += np.bincount(sums, minlength=length)
    return RepProfile(counts, n)


def max_rep(s: IntSet) -> int:
    """max_t r(t); s is a B*[g] set exactly when this is <= g."""
    return representation_counts(s).max_count


def is_bstar(s: IntSet, g: int) -> bool:
    """True when every sum value has at most g ordered representations."""
    if g < 1:
        raise ValueError("g must be a positive integer")
    return max_rep(s) <= g
