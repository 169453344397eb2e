"""Finite unions of intervals in [0,1) and their largest symmetric subsets.

The largest subset of E symmetric under x -> s - x is E & (s - E).  Its
measure m(s) is the self-convolution of the indicator of E, so for
E = U [a_i, b_i) it is piecewise linear in s, with kinks only at sums
of two endpoints; D(E) = max_s m(s) is attained at one of those sums,
and so is the smallest center attaining it.

Every endpoint, Fraction or float (a float is a dyadic rational), is
put on a common integer grid of step 1/L, L the lcm of the
denominators, and m is computed exactly, in units of 1/L, at every sum
of two endpoints, by one of two paths:

- Sweep.  The second derivative of m is a sum of point masses: +1 at
  a_i + a_j and b_i + b_j, -1 at a_i + b_j and b_i + a_j.  One sweep
  over these 4k^2 breakpoints in sorted order, accumulating the slope,
  gives m at every sum in O(k^2 log k), whatever L is.
- Grid.  E is the union of the L-grid cells [c/L, (c+1)/L) it contains.
  Two such cells convolve to a tent of height 1/L peaking at
  (c + c' + 1)/L, so m(sigma/L) = r(sigma - 1)/L, where r is the
  representation profile of the cell set C.  The candidate sums are the
  support of the profile of the endpoint set.  Each profile is one FFT
  autoconvolution, O(L log L) whatever k is, and exact under the
  rounding bound proved in `intsets.representation_counts`.  m is read
  at the candidates only, not at every grid point: on the circle a
  plateau of maxima can wrap through 0, which need not be a candidate.

Cost rule (`_grid_pays`, measured in BENCH_dee.json by
scripts/bench_dee.py, both paths timed in the same rounds): the grid path
runs for k >= 8 intervals with L <= 4k^2 (the sweep's breakpoint
count) on the line, or L <= 16k^2 on the circle, where the sweep does
twice the work, and with L within the dense profile limit.  The sweep
runs otherwise: for few intervals, where it is cheaper than the grid
path's fixed numpy cost, and for float sets with their huge dyadic
grids.  The two paths agree exactly: both give the same integer
m at the same candidate sums, so D, the smallest center attaining it
and the profile are the same numbers whichever runs.  They are
returned as Fractions, for float endpoints too.

Geometry "line" reflects within the reals; "circle" reflects modulo 1,
where m_circle(s) = m(s) + m(s + 1) for s in [0, 1).  On the grid that
is the profile of C modulo L, and the candidates are the sums modulo L.
"""
from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .intsets import _DENSE_LIMIT, IntSet, representation_counts

Number = object  # Fraction or float


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
    def measure(self) -> Fraction:
        """The exact measure; a float endpoint is a dyadic rational."""
        return sum((Fraction(b) - Fraction(a) for a, b in self.intervals), Fraction(0))


@dataclass(frozen=True)
class SymmetricSubsetResult:
    d_value: Fraction
    center: Fraction
    per_center_function: Optional[tuple[tuple[Fraction, Fraction], ...]] = None


def _on_grid(intervals) -> tuple[int, list[int]]:
    """``(L, grid)``: L the lcm of the denominators, grid the endpoints times L.

    The grid lists a0, b0, a1, b1, ... as integers.
    """
    ratios = [x.as_integer_ratio() for pair in intervals for x in pair]
    scale = math.lcm(*[den for _, den in ratios])
    return scale, [num * (scale // den) for num, den in ratios]


def _sweep(scale: int, grid: list[int], circle: bool) -> list[tuple[int, int]]:
    """m at every candidate reflection sum, exactly, in integer units.

    Returns rows ``(sigma, units)`` in ascending sigma, meaning
    m(sigma / scale) = units / scale.  The candidates are the sums of two
    endpoints, reduced modulo 1 on the circle.  Pairs may overlap or have
    zero length; there must be at least one.
    """
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
        return [(sigma, line[sigma] + line[sigma + scale]) for sigma in sums]
    return rows


def _autoconvolution(scale: int, grid: list[int], circle: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `_sweep`, as two arrays ``(sigmas, units)``, from the grid cells.

    The intervals must be disjoint.  m(sigma / scale) = r(sigma - 1) / scale,
    r the representation profile of the cell set, taken modulo scale on
    the circle, an exact integer count.  The candidate sums are the
    (2k)^2 pair sums of the endpoints, reduced modulo scale on the circle,
    found by one bincount.
    """
    points = np.asarray(grid, dtype=np.int64)
    edges = (np.bincount(points[0::2], minlength=scale + 1)
             - np.bincount(points[1::2], minlength=scale + 1))
    cells = np.flatnonzero(np.cumsum(edges[:scale]))  # cell c is [c, c + 1) in grid units
    modulus = scale if circle else None
    counts = representation_counts(IntSet(tuple(cells.tolist()), modulus))
    if circle:
        units = np.roll(counts, 1)  # units[sigma] = r((sigma - 1) mod scale)
    else:
        units = np.zeros(2 * scale + 1, dtype=np.int64)
        units[1:len(counts) + 1] = counts
    sums = (points[:, None] + points).ravel()
    sigmas = np.flatnonzero(np.bincount(sums % scale if circle else sums))
    return sigmas, units[sigmas]


def _grid_pays(scale: int, k: int, circle: bool) -> bool:
    """The cost rule: the grid path runs for k intervals on the grid of step 1/scale.

    The grid path costs O(L log L) plus one `representation_counts` call's
    fixed cost and an O(k^2) bincount, and the sweep O(k^2 log k), twice
    that on the circle, where it reads m at s and s + 1.  In BENCH_dee.json
    (medians of 21 alternating rounds) the sweep wins at every L for
    k = 5, and from k = 8 the grid wins up to L = 4k^2 (the sweep's
    breakpoint count) on the line and up to 16k^2 on the circle, and
    loses beyond.  Its profile of length 2L + 1 must also fit the dense
    limit.
    """
    return k >= 8 and scale <= min((16 if circle else 4) * k * k, (_DENSE_LIMIT - 1) // 2)


def largest_symmetric_subset(e: IntervalSet,
                             include_profile: bool = False) -> SymmetricSubsetResult:
    """Exact D(E), the center attaining it, and optionally m at every candidate.

    Every value is a Fraction.  Ties break toward the smaller center.
    `_grid_pays` picks the grid path or the sweep; both give the same rows.
    """
    if not e.intervals:
        zero = Fraction(0)
        return SymmetricSubsetResult(zero, zero, ((zero, zero),) if include_profile else None)
    scale, grid = _on_grid(e.intervals)
    circle = e.geometry == "circle"
    if _grid_pays(scale, len(e.intervals), circle):
        sigmas, units = _autoconvolution(scale, grid, circle)
        best = int(np.argmax(units))  # the first maximum: the smallest center
        sigma, value = int(sigmas[best]), int(units[best])
        rows = zip(sigmas.tolist(), units.tolist()) if include_profile else None
    else:
        rows = _sweep(scale, grid, circle)
        sigma, value = max(rows, key=operator.itemgetter(1))
    profile = None
    if include_profile:
        profile = tuple((Fraction(s, 2 * scale), Fraction(u, scale)) for s, u in rows)
    return SymmetricSubsetResult(Fraction(value, scale), Fraction(sigma, 2 * scale), profile)


def a_of_s(s: IntSet, n: int) -> IntervalSet:
    """Block picture of an integer set: the union of [(v-1)/n, v/n)."""
    if s.modulus is not None:
        raise ValueError("block picture expects a plain integer set")
    if any(v < 1 or v > n for v in s.elements):
        raise ValueError("elements must lie in {1..n}")
    runs: list[list[int]] = []  # [first, last] of each run of consecutive elements
    for v in s.elements:
        if runs and runs[-1][1] == v - 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return IntervalSet(tuple((Fraction(lo - 1, n), Fraction(hi, n)) for lo, hi in runs))


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
    scale, grid = _on_grid(intervals)
    return max(units for _, units in _sweep(scale, grid, circle=False)) / scale


def _descend(state, value, moves, step, stop, tol):
    """Step-halving pattern search from state, whose D is value.

    move(state, d) gives (trial state, its intervals), or None when the
    trial is out of bounds.  A pass tries every move at +step and then
    -step, in order, and takes each trial whose D is below value - tol;
    a pass that takes none halves step, until step is at most stop.
    """
    while step > stop:
        improved = False
        for move in moves:
            for sgn in (1.0, -1.0):
                trial = move(state, sgn * step)
                if trial is None:
                    continue
                v = _d_trial(trial[1])
                if v < value - tol:
                    state, value = trial[0], v
                    improved = True
        if not improved:
            step *= 0.5
    return state, value


def _coordinate_moves(k, eps):
    """Coarse moves on the gap/length vector: one coordinate, floored at 0."""
    def nudge(i, vec, d):
        trial = list(vec)
        trial[i] = max(0.0, trial[i] + d)
        ivs = _build_intervals(trial, k, eps)
        return None if ivs is None else (trial, ivs)

    return [functools.partial(nudge, i) for i in range(2 * k + 1)]


def _polish_moves(k):
    """Measure-preserving moves: whole-interval shifts, then length
    transfers from interval i's right end to interval j's right or left end."""
    def ordered(ivs):
        pos = 0.0
        for a, b in ivs:
            if a < pos - 1e-15 or b <= a:
                return None
            pos = b
        return (ivs, ivs) if pos <= 1.0 + 1e-15 else None

    def shift(i, ivs, d):
        trial = [list(p) for p in ivs]
        trial[i][0] += d
        trial[i][1] += d
        return ordered(trial)

    def transfer(i, j, end, ivs, d):
        trial = [list(p) for p in ivs]
        trial[i][1] -= d
        trial[j][end] += d if end else -d
        return ordered(trial)

    return [functools.partial(shift, i) for i in range(k)] + [
        functools.partial(transfer, i, j, end)
        for i in range(k) for j in range(k) if i != j for end in (1, 0)]


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
    coarse, polish = _coordinate_moves(k, epsilon), _polish_moves(k)
    for _ in range(restarts):
        vec = [rng.random() for _ in range(dim)]
        ivs = _build_intervals(vec, k, epsilon)
        if ivs is None:
            continue
        vec, val = _descend(vec, _d_trial(ivs), coarse, 0.25, 1e-4, 1e-12)
        ivs, val = _descend(_build_intervals(vec, k, epsilon), val, polish, 0.02, 1e-9, 1e-15)
        if val < best_val:
            best_val, best_ivs = val, ivs
    clipped = [(min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)) for a, b in best_ivs]
    return best_val, IntervalSet.of(clipped)
