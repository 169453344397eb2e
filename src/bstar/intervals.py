"""Finite unions of intervals in [0,1) and their largest symmetric subsets.

The largest subset of E symmetric under x -> s - x is E & (s - E).  Its
measure m(s) is the self-convolution of the indicator of E, so for
E = U [a_i, b_i) it is piecewise linear in s, and its second derivative
is a sum of point masses: +1 at a_i + a_j and b_i + b_j, -1 at a_i + b_j
and b_i + a_j.  One sweep over these 4k^2 breakpoints in sorted order,
accumulating the slope, gives m at every sum of two endpoints in
O(k^2 log k); D(E) = max_s m(s) is attained at one of those sums.

The sweep runs on integers.  Every endpoint, Fraction or float (a float
is a dyadic rational), is put on a common grid over the lcm of the
denominators, and values are converted back only at the end: to
Fractions for exact sets, to correctly rounded floats otherwise.

Geometry "line" reflects within the reals; "circle" reflects modulo 1,
where m_circle(s) = m(s) + m(s + 1) for s in [0, 1).
"""
from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .intsets import IntSet

Number = object  # Fraction or float, tagged by IntervalSet.exact


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted half-open intervals [a, b) inside [0, 1)."""

    intervals: tuple[tuple[Number, Number], ...]
    geometry: str = "line"

    def __post_init__(self):
        if self.geometry not in ("line", "circle"):
            raise ValueError("geometry must be 'line' or 'circle'")
        prev_end = None
        for a, b in self.intervals:
            if not 0 <= a < b <= 1:
                raise ValueError("intervals must satisfy 0 <= a < b <= 1")
            if prev_end is not None and a < prev_end:
                raise ValueError("intervals must be disjoint and sorted")
            prev_end = b

    @classmethod
    def of(cls, pairs: Sequence[tuple[Number, Number]], geometry: str = "line") -> "IntervalSet":
        """Sort and merge touching or overlapping intervals."""
        cleaned = sorted((a, b) for a, b in pairs if b > a)
        merged: list[list[Number]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return cls(tuple((a, b) for a, b in merged), geometry)

    @property
    def exact(self) -> bool:
        return all(isinstance(a, Fraction) and isinstance(b, Fraction)
                   for a, b in self.intervals)

    @property
    def measure(self):
        zero = Fraction(0) if self.exact else 0.0
        return sum((b - a for a, b in self.intervals), zero)


@dataclass(frozen=True)
class SymmetricSubsetResult:
    d_value: Number
    center: Number
    per_center_function: Optional[tuple[tuple[Number, Number], ...]] = None


def _sweep(intervals, circle: bool) -> tuple[int, list[tuple[int, int]]]:
    """m at every candidate reflection sum, exactly, in integer units.

    Returns ``(scale, rows)`` with rows ``(sigma, units)`` in ascending
    sigma, meaning m(sigma / scale) = units / scale.  The candidates are
    the sums of two endpoints, reduced modulo 1 on the circle.  Pairs may
    overlap or have zero length; there must be at least one.
    """
    ratios = [x.as_integer_ratio() for pair in intervals for x in pair]
    scale = math.lcm(*[den for _, den in ratios])
    grid = [num * (scale // den) for num, den in ratios]
    starts, ends = grid[0::2], grid[1::2]
    kinks = []  # (position, jump in slope): the point masses of m''
    for a, b in zip(starts, ends):
        for c, d in zip(starts, ends):
            kinks += ((a + c, 1), (b + d, 1), (a + d, -1), (b + c, -1))
    if circle:  # m_circle(s) = m(s) + m(s + 1), so m is needed at both
        sums = sorted({sigma % scale for sigma, _ in kinks})
        kinks += [(sigma + shift, 0) for sigma in sums for shift in (0, scale)]
    kinks.sort()
    rows = []
    value = slope = 0
    prev = kinks[0][0]
    for sigma, weight in kinks:
        if sigma != prev:
            rows.append((prev, value))
            value += slope * (sigma - prev)
            prev = sigma
        slope += weight
    rows.append((prev, value))
    if circle:
        line = dict(rows)
        return scale, [(sigma, line[sigma] + line[sigma + scale]) for sigma in sums]
    return scale, rows


def largest_symmetric_subset(e: IntervalSet,
                             include_profile: bool = False) -> SymmetricSubsetResult:
    """Exact D(E), the center attaining it, and optionally m at every candidate.

    Values are Fractions for exact sets and correctly rounded floats
    otherwise.  Ties break toward the smaller center.
    """
    if not e.intervals:
        zero = Fraction(0) if e.exact else 0.0
        return SymmetricSubsetResult(zero, zero, ((zero, zero),) if include_profile else None)
    scale, rows = _sweep(e.intervals, e.geometry == "circle")
    sigma, units = max(rows, key=operator.itemgetter(1))
    div = Fraction if e.exact else operator.truediv
    profile = None
    if include_profile:
        profile = tuple((div(s, 2 * scale), div(u, scale)) for s, u in rows)
    return SymmetricSubsetResult(div(units, scale), div(sigma, 2 * scale), profile)


def a_of_s(s: IntSet, n: int) -> IntervalSet:
    """Block picture of an integer set: the union of [(v-1)/n, v/n)."""
    if s.modulus is not None:
        raise ValueError("block picture expects a plain integer set")
    if any(v < 1 or v > n for v in s.elements):
        raise ValueError("elements must lie in {1..n}")
    return IntervalSet.of([(Fraction(v - 1, n), Fraction(v, n)) for v in s.elements])


# ---------------------------------------------------------------------------
# upper bounds on Delta_k via derivative-free minimization
# ---------------------------------------------------------------------------

def _build_intervals(vec, k: int, eps: float):
    """Gap/length vector -> k intervals of total measure eps in [0, 1]."""
    gaps = vec[0::2]
    lens = vec[1::2]
    sl = sum(lens)
    if sl <= 0:
        return None
    lens = [x * eps / sl for x in lens]
    sg = sum(gaps)
    if sg <= 0:
        gaps = [0.0] * k + [1.0 - eps]
    else:
        gaps = [x * (1.0 - eps) / sg for x in gaps]
    out = []
    pos = 0.0
    for i in range(k):
        pos += gaps[i]
        out.append((pos, pos + lens[i]))
        pos += lens[i]
    return out


def _d_trial(intervals) -> float:
    """D of the optimizer's float pairs, which need not form an IntervalSet."""
    scale, rows = _sweep(intervals, circle=False)
    return max(units for _, units in rows) / scale


def _coarse_descent(vec, k, eps, value):
    step = 0.25
    while step > 1e-4:
        improved = False
        for i in range(len(vec)):
            for sgn in (1.0, -1.0):
                trial = list(vec)
                trial[i] = max(0.0, trial[i] + sgn * step)
                ivs = _build_intervals(trial, k, eps)
                if ivs is None:
                    continue
                v = _d_trial(ivs)
                if v < value - 1e-12:
                    vec, value = trial, v
                    improved = True
        if not improved:
            step *= 0.5
    return vec, value


def _polish(intervals, value):
    """Measure-preserving moves: whole-interval shifts and length transfers."""
    ivs = [list(p) for p in intervals]
    k = len(ivs)

    def valid(v):
        pos = 0.0
        for a, b in v:
            if a < pos - 1e-15 or b <= a:
                return False
            pos = b
        return pos <= 1.0 + 1e-15

    moves = [("shift", i, 0) for i in range(k)]
    moves += [(kind, i, j) for i in range(k) for j in range(k) if i != j
              for kind in ("xfer_rr", "xfer_rl")]
    step = 0.02
    while step > 1e-9:
        improved = False
        for kind, i, j in moves:
            for sgn in (1.0, -1.0):
                d = sgn * step
                trial = [list(p) for p in ivs]
                if kind == "shift":
                    trial[i][0] += d
                    trial[i][1] += d
                elif kind == "xfer_rr":
                    trial[i][1] -= d
                    trial[j][1] += d
                else:
                    trial[i][1] -= d
                    trial[j][0] -= d
                if not valid(trial):
                    continue
                v = _d_trial(trial)
                if v < value - 1e-15:
                    ivs, value = trial, v
                    improved = True
        if not improved:
            step *= 0.5
    return [tuple(p) for p in ivs], value


def delta_k_upper(k: int, epsilon: float, restarts: int = 200,
                  seed: int = 0) -> tuple[float, IntervalSet]:
    """Best found D(E) over unions of k intervals with measure epsilon.

    Multi-start: random gap/length seeds, a renormalized coordinate
    descent, then a measure-preserving polish.  The result is an upper
    bound on the k-interval symmetric-subset threshold, not a certified
    infimum.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if k == 1:
        witness = IntervalSet.of([(0.0, float(epsilon))])
        return float(epsilon), witness
    rng = random.Random(seed)
    dim = 2 * k + 1
    best_val, best_ivs = math.inf, None
    for _ in range(restarts):
        vec = [rng.random() for _ in range(dim)]
        ivs = _build_intervals(vec, k, epsilon)
        if ivs is None:
            continue
        vec, val = _coarse_descent(vec, k, epsilon, _d_trial(ivs))
        ivs, val = _polish(_build_intervals(vec, k, epsilon), val)
        if val < best_val:
            best_val, best_ivs = val, ivs
    clipped = [(min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)) for a, b in best_ivs]
    return best_val, IntervalSet.of(clipped)
