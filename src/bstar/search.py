"""Exhaustive branch-and-bound search for extremal B*[g] sets.

Three decision engines answer "is there a B*[g] set of size k inside
[1, n] (integer kind) or Z_n (modular kind)?":

* modular mask engine: a counting DFS that keeps the dense
  representation profile r(t), copied on each extension, and holds its
  rejections as bit masks over Python big ints: the sums where no pair
  fits any more, the candidates they block, and the canonical bans
  below.  About one modular candidate in ten is accepted (DFS calls
  against nodes: 903 of 10,984 at (g, n, k) = (2, 47, 7), 29,874 of
  297,896 at (3, 53, 9)), so a level reads its candidates off one mask
  and tests only their diagonal.
* integer counting engine, for g >= 3: the same DFS as a range loop
  that tests each candidate's sums against r(t), indexed by the sum
  itself (length 2n - 1, so integer sums never wrap).  It accepts far
  more of its candidates (54,976 of 252,244 at (3, 36, 10), 11,612 of
  26,040 at (4, 21, 10)), and there the masks' work on each accepted
  element does not pay: the mask engine, given an integer question as
  the same question in Z_(2n - 1), where its sums do not wrap, spent
  1.53 s against 1.10 s at (3, 45, 10), 0.130 against 0.092 s at
  (3, 36, 10) and 0.027 against 0.017 s at (4, 21, 10), with the same
  nodes (d0cc637's engines from 0, median of 5 alternating rounds,
  CPython 3.11 on a shared 2-core x86 host).
* integer g = 2: a bitmask DFS, the one engine with the Golomb-ruler
  distance bound below.  A candidate x is blocked exactly when some pair
  sum x + y would collide with an existing pair or diagonal sum, so the
  viable-extension mask is kept incrementally with shifts.  It stays as
  its own engine because, measured while the counting engine also had
  the bound, it decided integer Sidon questions 1.3x faster (n = 55,
  k = 10, infeasible, both 642,314 nodes: 0.43 s against 0.55 s, the
  median of 5 alternating rounds of scripts/bench_search.py, CPython
  3.11 on a shared 2-core x86 host).

Each engine has a compiled twin in _core.c, the same loop in C,
including the canonical bans (_third_element_bans, the coarse gcd mask
and the grown _pair_bans table).  The first _branch of a process has
_corelib build it with cc -O2 -shared -fPIC into __pycache__ next to
the source (or the user's own 0700 folder in the temporary directory),
under a name keyed by the source's checksums, and load it through
ctypes; a process that cannot build or load it has None for it.
_branch runs a branch on the core where it loaded, and on the Python
engine where it did not or where the core answers that the branch lies
past its fixed widths, which _core.c defines and checks:

* k <= 64, counts in bytes as in the Python bytearrays (g <= 255), and
  node limits below 2^62;
* integer g = 2 on unsigned __int128 masks: n <= 128;
* modular masks of 2n bits in at most eight 64-bit words: n <= 256;
* integer g != 2 profiles of 2n - 1 counts: n <= 4096.

The node and budget contract holds on either path.  The core visits the
same candidates in the same order, charges them in the same runs
against the same allowance, handed out _POLL_NODES at a time, and at
every refill polls the decision's stop flag, which it reads through the
flag's ctypes.addressof.  So it returns the same witness and nodes, and
its status becomes the same BudgetExceeded at the same point, or
_Stopped.  On the main thread, where there is no flag, the core takes
SIGINT for the length of a branch, so Ctrl-C ends it within _POLL_NODES
nodes as it ends a Python engine, with KeyboardInterrupt; in threads,
the main thread takes it and sets the flag.  The core took the same
nodes 18-56 times faster than the Python engines: modular (2, 72, 9)
4.6 ms against 147 ms, integer (3, 45, 10) 30 ms against 1.07 s,
integer (2, 55, 10) 3.5 ms against 194 ms, and the R and C tables 0.045
and 0.043 s against 1.63 and 1.30 s (BENCH_search.json, medians of 5
alternating rounds, CPython 3.11 on a shared 2-core x86 host).  The
Python engines stay as the path for hosts without cc and for branches
past the core's widths.

Both questions are translation invariant, so a decision searches the
sets that start at 0, integer ones in [0, n - 1], and exists_set
shifts an integer witness into [1, n]; the DFS yields the
lexicographically first witness.  A decision is one loop over the
branches, one per second element in increasing order, on the calling
thread or in threads; it stops at the first witness, and its nodes and
its budget are those of the branches it consumed, in either mode.  A
node is one candidate tried, in every engine, whichever test rejects it.
A call into the core releases the GIL, so two threads took integer
(2, 85, 12) from 0.386 to 0.234 s and (3, 57, 11) from 0.360 to 0.193 s
(medians of 9 alternating rounds, CPython 3.11, a shared 2-core x86
host).  Modular decisions gain nothing, as the canonical rule leaves one
branch or one with nearly all the nodes, and the Python engines hold the
GIL: on them threads run at about serial speed.

Four rules prune the DFS:

* suffix span floors (both kinds, every engine).  A subset of a B*[g]
  set is B*[g], and a modular set read as integers in [0, n - 1] is an
  integer one, so the last m elements of a k-set span at least
  fl[m] - 1 with fl[m] = infeasibility_floor("integer", g, m).  With
  depth elements placed a candidate therefore satisfies
  e <= top + 1 - fl[k - depth], where top = n - 1 is the largest
  admissible element.
  This is the sub-ruler bound of optimal Golomb-ruler searches.
* a mirror rule (both kinds, every engine, every search), as in
  optimal Golomb-ruler searches (Shearer 1990).  x -> S[0] + S[-1] - x
  maps a B*[g] set to a B*[g] set on the same range with its gap
  sequence reversed, so the DFS keeps only sets whose first gap
  d1 = S[1] - S[0] is at most their last gap.  A branch fixes d1: the
  last element starts at S[-1] + d1, and for m = k - depth >= 2 the
  m - 1 elements from e to the last but one span at least fl[m - 1] - 1,
  so e <= top + 1 - fl[m - 1] - d1.
* an affine canonical rule (modular kind), after
  orderly generation (R. C. Read, "Every one a winner", 1978; B. D.
  McKay, "Isomorph-free exhaustive generation", 1998).  x -> u (x - a)
  mod n, with u a unit, maps B*[g] sets to B*[g] sets, so a decision
  need only search the lexicographically least member L of each orbit.
  The DFS cuts a prefix P of a set when P already shows that the set is
  not such an L.  That is sound because more elements can only lower the
  order statistics of an image: if an image of P starts below P, the
  image of every completion starts below it too.  Some unit u has
  u d = gcd(d, n), so x -> u (x - y) sends a pair y, y + d to 0 and
  gcd(d, n); L[1] is therefore the least gcd(d, n) over the differences
  d of L.  Three necessary conditions follow:
  - L[1] divides n (take d = L[1]), so _search builds only the branches
    whose second element divides n;
  - every difference d of L has gcd(d, n) >= L[1], so a branch with
    second = s > 1 bans every e with gcd(e - y, n) < s for a placed y;
  - in the branch s = 1, with t = L[2]: for each ordered pair (a, b) of
    L with b - a a unit and each other element c,
    (c - a)(b - a)^-1 >= t; else the map sending a, b to 0, 1 gives an
    image that starts 0, 1 and then a value below t.  The third element
    t is checked on {0, 1, t} directly; after it, each accepted element
    bans the residues that would break the test with a placed pair.
    Those pair bans are the union of what each v in [2, t) contributes,
    and the DFS takes third elements in increasing order, finishing each
    one's subtree first, so a branch grows one table of them as t rises
    (_pair_bans) in place of building one for each t.
  The bans are one-bit-per-residue int masks: each accepted element ORs
  in its own, shifted to its position, and a level's candidates are read
  off the mask with the blocked ones, so the rule costs nothing per
  candidate.  L passes the span floors, and the mirror rule too:
  x -> -x is in the group, so L's first gap is at most its last.
* a Golomb-ruler distance bound (integer kind, g = 2, bitmask engine
  only), as in exhaustive Golomb-ruler searches (J. B. Shearer,
  IEEE Trans. Inf. Theory 36, 1990; A. Dollas, W. T. Rankin and
  D. McCracken, IEEE Trans. Inf. Theory 44, 1998).  An integer set is
  B*[2] exactly when its positive differences are distinct, since
  a - b = c - d means a + d = b + c.  Let a candidate e join, D be the
  mask of the differences of the set with e, and r = k - 1 - depth the
  elements still to come.  With e they form a ruler of r + 1 marks in
  [e, top]: its C(r + 1, 2) differences are distinct, miss D and lie in
  [1, top - e], and its r consecutive gaps are r of them that sum to
  its span.  So e is rejected when [1, top - e] holds fewer than
  C(r + 1, 2) integers outside D, or when the r least of them sum to
  more than top - e (_ruler_span).  e's own differences only add to D,
  so the same test on the level's D, before any e joins, already
  rejects every e above top minus its span, and the level's walk ends
  there.  A rejected candidate is one node, as under every rule.

_bounds applies the first two rules once per branch: a candidate at
depth d lies in [S[-1] + gap[d], cap[d]], with gap[1] = gap[k - 1] = d1,
the fixed second element, every other gap 1, and cap the span floors'
caps narrowed by the mirror rule, cap[1] at most d1.  Integer candidates
exceed every placed element, so a candidate's diagonal 2e lies above
every sum in the profile, and the integer counting engine tests its
pair sums only; modular sums wrap, so the modular engine tests it.

The mirror rule keeps the lexicographically first witness W: W's
reflection is a witness from 0 whose second element is W's last gap, so
W's first gap is at most its last gap and the DFS still meets W first.
The canonical rule keeps W too: every image of W that contains 0 is
itself a witness, so it is not below W, and W is the least member of
its own orbit.  The distance
bound cuts only prefixes that no B*[2] set in [0, n - 1] completes, so
it never cuts a prefix of W.  The DFS runs in lexicographic order, so it
meets W before any other canonical witness, and one search returns the
lexicographically first witness.

min_n uses that integer feasibility is monotone in n (a witness inside
[1, n] also fits in [1, n + 1]).  It decides n_limit and then descends:
while the last witness ends at some w above the counting floor, it
decides w - 1.  The first witness in [1, n] that ends at w is also the
first one in [1, w], so the descent returns the witness that a decision
at the minimum would, and its one infeasible decision, at min_n - 1,
certifies every smaller n.  Modular feasibility is not monotone; there
every n is decided separately, with counting lower bounds used to skip
provably infeasible prefixes of the range.
"""
from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass, replace
from math import gcd
from typing import Optional

from .intsets import IntSet

DEFAULT_BUDGET = 10**9

# A decision runs its branches in threads from this n on: opening its
# threads costs about 0.35 ms, more than most smaller decisions take on
# the core.  With two workers the R and C tables (k <= 10, g <= 7 and
# k <= 9, g <= 6) took 0.085 and 0.060 s with it, 0.110 and 0.085 s
# without (medians of 15 alternating rounds, a shared 2-core x86 host).
_PARALLEL_MIN_N = 30


class BudgetExceeded(RuntimeError):
    """The node budget ran out before the decision was certified."""


def _check_kind(kind: str) -> None:
    if kind not in ("integer", "modular"):
        raise ValueError("kind must be 'integer' or 'modular'")


def _check_effort(budget: int, workers: int) -> None:
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if workers < 1:
        raise ValueError("workers must be positive")


@dataclass(frozen=True)
class SearchProblem:
    kind: str  # "integer" | "modular"
    g: int
    k: int
    n_start: int
    n_limit: int
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        _check_kind(self.kind)
        if self.g < 1 or self.k < 1:
            raise ValueError("g and k must be positive")
        if self.n_start > self.n_limit:
            raise ValueError("empty search range")
        _check_effort(self.budget, self.workers)


@dataclass(frozen=True)
class SearchResult:
    min_n: Optional[int]  # None = not found within [n_start, n_limit]
    witness: Optional[IntSet]
    nodes_explored: int
    exhaustive: bool


@dataclass(frozen=True)
class Decision:
    """Outcome of one feasibility question at fixed (kind, g, n, k)."""

    witness: Optional[IntSet]
    nodes: int

    @property
    def feasible(self) -> bool:
        return self.witness is not None


class _Stopped(Exception):
    """A thread's branch was abandoned after the decision ended; never consumed."""


# A branch polls its decision's stop flag once per this many nodes.
_POLL_NODES = 4096


class _Budget:
    """Node allowance of one branch, handed out _POLL_NODES at a time.

    charge (a run of count nodes) stays one subtraction and one test;
    every refill, the first one included, also polls the stop flag, a
    ctypes byte or None, so a thread quits a branch that is no longer
    needed within _POLL_NODES nodes, or one run when that is longer.
    """
    __slots__ = ("left", "reserve", "stop")

    def __init__(self, limit: int, stop=None):
        self.left, self.reserve, self.stop = 0, limit, stop

    def charge(self, count: int):
        self.left -= count
        if self.left < 0:
            self._refill()

    def _refill(self):
        """Cover the overdraft -left from the reserve, or raise."""
        if self.reserve < -self.left:
            raise BudgetExceeded("node budget exhausted")
        if self.stop is not None and self.stop.value:
            raise _Stopped
        take = min(self.reserve, max(_POLL_NODES, -self.left))
        self.reserve -= take
        self.left += take


def infeasibility_floor(kind: str, g: int, k: int) -> int:
    """Smallest n not excluded by counting arguments.

    All k^2 ordered sums must fit under the cap g, with the parity
    refinement that odd counts only occur at doubled elements; for g = 2
    the distinct unordered pairs inject into difference (modular) or sum
    (integer) values.
    """
    _check_kind(kind)
    if g == 1 and k > 1:
        return 1 << 60  # two elements already force r(a+b) = 2
    pairs = k * (k - 1) // 2
    if kind == "modular":
        if g % 2 == 0:
            floor = -(-(k * k) // g)
        else:
            floor = -(-(k * k - k) // (g - 1)) if g > 1 else k
        if g == 2:
            floor = max(floor, 2 * pairs)
        return max(k, floor)
    floor = -(-(k * k) // (2 * g))
    if g == 2:
        floor = max(floor, pairs + 1)
    elif g == 3 and k > 1:
        floor = max(floor, -(-(pairs + 3) // 2))
    return max(k, floor)


def _last_candidates(g: int, k: int, top: int) -> list[int]:
    """Largest candidate at each depth < k when elements end at top.

    A subset of a B*[g] set is B*[g], so the last m elements of a k-set
    span at least fl[m] - 1, with fl[1] = 1 and
    fl[m] = infeasibility_floor("integer", g, m): a candidate placed
    after depth elements is at most top + 1 - fl[k - depth].
    """
    fl = [0, 1] + [infeasibility_floor("integer", g, m) for m in range(2, k + 1)]
    return [top + 1 - fl[k - depth] for depth in range(k)]


def _bounds(last: list[int], second: int) -> tuple[list[int], list[int]]:
    """(gap, cap): a candidate at depth d of the branch lies in [S[-1] + gap[d], cap[d]].

    The branch's set starts at 0, so the second element that the branch
    fixes is its first gap.  The mirror rule makes the last gap at least
    second, so the set without its last element ends by top - second,
    and its candidate at depth d is at most last[d + 1] - second.
    """
    cap = [min(c, after - second) for c, after in zip(last, last[1:])] + last[-1:]
    cap[1] = min(cap[1], second)
    gap = [1] * len(last)
    gap[1] = gap[-1] = second
    return gap, cap


# ---------------------------------------------------------------------------
# Golomb-ruler distance bound (integer g = 2, bitmask engine)
# ---------------------------------------------------------------------------

def _ruler_span(D: int, r: int, room: int) -> int:
    """Least span of r more marks after the last one, or room + 1 if above room.

    D is the mask of the differences used so far.  With the last mark the
    r marks form a ruler of r + 1 marks, whose C(r + 1, 2) differences are
    distinct, miss D and lie in [1, span]; its r consecutive gaps are r of
    them and sum to span.  So the span is at least the sum of the r least
    integers outside D, and it fits in room only if [1, room] holds at least
    C(r + 1, 2) of them.  The walk stops as soon as the sum passes room.
    """
    free = ~D & ((2 << room) - 2)  # bits 1..room
    if free.bit_count() < r * (r + 1) // 2:
        return room + 1
    span = 0
    for _ in range(r):
        low = free & -free
        span += low.bit_length() - 1
        if span > room:
            return room + 1
        free ^= low
    return span


# ---------------------------------------------------------------------------
# integer g = 2 bitmask engine
# ---------------------------------------------------------------------------

def _decide_sidon_int(k: int, gap: list[int], cap: list[int], budget: _Budget):
    """All unordered pair sums (diagonals included) distinct; integers in [0, top].

    D is the mask of positive differences and B the mask of blocked
    future elements.  (gap, cap) are the branch's _bounds for
    _last_candidates(2, k, top), top = n - 1.  The distance bound
    rejects a candidate e when _ruler_span of D with e's differences
    passes top - e, and ends a level's walk at top minus _ruler_span of
    the level's D.  Nodes are charged as in _decide_counts_int, one per
    candidate of the range, whether the mask or the bound rejects it, so
    on the same branch it spends _decide_counts_int's nodes less those
    of the subtrees the bound cuts.
    """
    charge = budget.charge
    top = cap[-1]  # the last element's cap

    def rec(S, D, B, depth):
        if depth == k:
            return tuple(S)
        lo, hi = S[-1] + gap[depth], cap[depth]
        if lo > hi:
            return None
        rest = k - 1 - depth  # marks still to come after e
        end = min(hi, top - _ruler_span(D, rest, top - lo))
        cand = ~B & ((2 << end) - 1) & -(1 << lo)
        charged = lo  # the candidates below charged are paid for
        while cand:
            lsb = cand & -cand
            e = lsb.bit_length() - 1
            cand ^= lsb
            charge(e + 1 - charged)
            charged = e + 1
            new_diffs = 0
            for y in S:
                new_diffs |= 1 << (e - y)
            D2 = D | new_diffs
            if _ruler_span(D2, rest, top - e) > top - e:
                continue
            B2 = B | (D2 << e)
            for y in S:
                B2 |= new_diffs << y
            S.append(e)
            out = rec(S, D2, B2, depth + 1)
            S.pop()
            if out is not None:
                return out
        if hi >= charged:
            charge(hi + 1 - charged)
        return None

    return rec([0], 0, 0, 1)


# ---------------------------------------------------------------------------
# integer counting engine
# ---------------------------------------------------------------------------

def _decide_counts_int(g: int, k: int, gap: list[int], cap: list[int], budget: _Budget):
    """Keep the profile r(t); reject a candidate whose sums would exceed g.

    Integers in [0, top], top = cap[-1] = n - 1, have sums in
    [0, 2n - 2], so r has length 2n - 1 and is indexed by the sum itself.  A
    pair adds 2 to r and a diagonal adds 1; pair sums of the new element
    never meet each other or its diagonal, so each is tested against the
    profile before the element arrived.  A candidate e exceeds every
    placed element, so every sum in r is at most 2 S[-1] < 2e: r(2e) is
    0, and the diagonal is not tested.  An accepted candidate extends a
    copy of the profile, so nothing is undone.  (gap, cap) are the
    branch's _bounds for _last_candidates(g, k, n - 1).

    Every candidate is one node, charged in runs: the candidates up to an
    accepted one before its subtree, the rest of the range when the loop
    ends.  The charges come in the same order as one node per candidate
    would, so the count and the point where the budget runs out are the
    same.  exists_set takes _decide_sidon_int for g = 2.  This engine
    answers g = 2 as well, without the Golomb-ruler distance bound, and
    the tests hold the bitmask engine to its witness in every branch.
    """
    most = g - 2  # a pair fits only where r[t] <= g - 2
    charge = budget.charge

    def rec(S, r, depth):
        if depth == k:
            return tuple(S)
        lo, hi = S[-1] + gap[depth], cap[depth]
        charged = lo  # the candidates below charged are paid for
        for e in range(lo, hi + 1):
            for y in S:
                if r[e + y] > most:
                    break
            else:  # every sum of e fits: pay up to e, extend a copy, recurse
                charge(e + 1 - charged)
                charged = e + 1
                r2 = r[:]
                r2[2 * e] += 1
                for y in S:
                    r2[e + y] += 2
                out = rec(S + [e], r2, depth + 1)
                if out is not None:
                    return out
        if hi >= charged:
            charge(hi + 1 - charged)
        return None

    r = bytearray(2 * cap[-1] + 1)
    r[0] = 1
    return rec([0], r, 1)


# ---------------------------------------------------------------------------
# modular mask engine
# ---------------------------------------------------------------------------

def _third_element_bans(n: int) -> int:
    """Mask of the t in [2, n) for which {0, 1, t} has an affine image below it.

    For each ordered pair (a, b) of the triple with b - a a unit, the map
    x -> (x - a)(b - a)^-1 sends a, b to 0, 1 and the third element c to
    v = (c - a)(b - a)^-1; the image starts 0, 1, v, so v < t puts it
    below (0, 1, t).
    """
    return sum(1 << t for t in range(2, n)
               if any(gcd(b - a, n) == 1 and (c - a) * pow(b - a, -1, n) % n < t
                      for a, b, c in itertools.permutations((0, 1, t))))


def _pair_bans(n: int) -> Generator[list[int], int, None]:
    """Generator of bans[d]: the residues that a pair {p, p + d} rules out.

    A least set of its affine orbit with second element 1 and third t has
    v = (c - a)(b - a)^-1 >= t for each ordered pair (a, b) with b - a a
    unit and each other element c.  For 2 <= v < t and x a unit, the
    ordered pair (p, p + d) rules out a third element at
    p + v d when d is a unit (the pair is a, b; the new element c),
    p + x when d = v x (the pair is a, c; the new element b = a + x),
    p - x when d = (v - 1) x (the pair is b, c; the new element a = b - x),
    and bans[d] also holds what (p + d, p) rules out, shifted by d.
    A mask holds each offset o from p twice, at bits o and n + o, so
    bans[d] >> n - p has the banned residues at their own bits below n.

    The table for t is the union of what each v < t contributes, so one
    table grows with t: the generator first yields the table for t = 2
    (no bans), and each t sent after it, larger than the one before, ORs
    in the contributions of the v it has not yet seen and yields the same
    list, extended in place.
    """
    units = [x for x in range(1, n) if gcd(x, n) == 1]
    at = [(1 | 1 << n) << o for o in range(n)]  # o and n + o
    bans = [0] * n
    grown = 2  # the table holds every v below grown
    while True:
        t = yield bans
        for v in range(grown, t):
            for x in units:
                vx, wx = v * x % n, (v - 1) * x % n
                # each ordered pair's offset, then the reversed pair's
                bans[x] |= at[vx]
                bans[n - x] |= at[wx]
                bans[vx] |= at[x]
                bans[n - vx] |= at[n - wx]
                bans[wx] |= at[n - x]
                bans[n - wx] |= at[n - vx]
        grown = t


def _decide_modular(g: int, n: int, k: int, gap: list[int], cap: list[int],
                    budget: _Budget, second: int, canonical: bool = False):
    """The counting DFS in Z_n, with the rejections kept as bit masks.

    r(t) is kept as a bytearray for the exact counts, copied on each
    extension.  sat holds the sums with r(t) > g - 2, where no pair sum
    fits, doubled at bits t and n + t, so sat >> y has bit e set exactly
    when r((e + y) mod n) is full.  B, the candidates that some placed y
    blocks, is OR_y sat >> y; an accepted e extends it from the newly
    full sums only, B | sat >> e | OR_y new >> y.  The candidates of a
    level are the set bits of ~(B | ban) in [lo, hi], and only the
    diagonal test r(2e mod n) >= g is made for each.  Nodes are charged
    in runs, as in _decide_counts_int: one per candidate of the range,
    whether a mask or the diagonal test rejects it.  (gap, cap) are the
    branch's _bounds for _last_candidates(g, k, n - 1); second is the
    element that the branch fixes, read only by the canonical bans.

    ban is 0 without canonical.  With canonical it holds the residues
    that the affine canonical rule rules out for the next element, and
    each accepted element adds its own: in a branch with second > 1,
    every e + o with gcd(o, n) < second; in the branch second = 1, the
    triple test on {0, 1, t} while the third element t is chosen, then
    the pair bans of each new ordered pair, from one _pair_bans table
    that the branch extends to each t it accepts.  That rule keeps the
    lexicographically first witness, the least member of its orbit.
    """
    most = g - 2  # a pair fits only where r[t] <= g - 2
    charge = budget.charge
    at = [(1 | 1 << n) << t for t in range(n)]  # t and n + t
    mark = None  # (S, e, ban) -> the bans after e joins S; None keeps ban as it is
    ban = 0

    if canonical and second > 1:
        coarse = sum(at[o] for o in range(1, n) if gcd(o, n) < second)

        def mark(S, e, ban):
            return ban | coarse >> n - e

        ban = mark(None, 0, ban)
    elif canonical:
        grow = _pair_bans(n)
        bans = next(grow)

        def mark(S, e, ban):
            if len(S) == 1:  # the triple test still bans the third element
                return ban
            if len(S) == 2:  # t = e: the earlier t's subtrees are done, so grow to e
                grow.send(e)
                ban = bans[1] >> n
            for y in S:
                ban |= bans[e - y] >> n - y
            return ban

        ban = _third_element_bans(n)

    def rec(S, r, sat, B, ban, depth):
        if depth == k:
            return tuple(S)
        lo, hi = S[-1] + gap[depth], cap[depth]
        if lo > hi:
            return None
        cand = ~(B | ban) & ((1 << hi + 1) - 1) & -(1 << lo)
        charged = lo  # the candidates below charged are paid for
        while cand:
            lsb = cand & -cand
            e = lsb.bit_length() - 1
            cand ^= lsb
            d = 2 * e - n if 2 * e >= n else 2 * e
            if r[d] >= g:
                continue
            # every sum of e fits: pay up to e, extend copies, recurse
            charge(e + 1 - charged)
            charged = e + 1
            r2 = r[:]
            r2[d] += 1
            new = at[d] if r2[d] > most else 0
            for y in S:
                t = e + y - n if e + y >= n else e + y
                r2[t] += 2
                if r2[t] > most:
                    new |= at[t]
            sat2 = sat | new
            B2 = B | sat2 >> e
            if new:
                for y in S:
                    B2 |= new >> y
            out = rec(S + [e], r2, sat2, B2, ban if mark is None else mark(S, e, ban),
                      depth + 1)
            if out is not None:
                return out
        if hi >= charged:
            charge(hi + 1 - charged)
        return None

    r = bytearray(n)
    r[0] = 1
    sat = at[0] if 1 > most else 0
    return rec([0], r, sat, sat, ban, 1)  # B = sat >> 0 for S = [0]


# The compiled core, a _corelib.Core, once _branch has first asked for it;
# None where it cannot be built or loaded, _UNLOADED before that.
_UNLOADED = object()
_core = _UNLOADED


def _branch(args, stop=None):
    """(witness tuple or None, nodes) of one branch; BudgetExceeded past limit nodes.

    The core runs the branch where it loaded and the branch fits it, the
    Python engine otherwise, with the same answer and nodes; either polls
    stop, the decision's flag in a thread, and raises _Stopped once it is
    set.  _corelib is imported here, so a process that decides nothing
    never loads it.
    """
    global _core
    kind, g, n, k, last, second, limit, canonical = args
    gap, cap = _bounds(last, second)
    if _core is _UNLOADED:
        from ._corelib import load
        _core = load()
    if _core is not None:
        status, witness, nodes = _core.branch(kind, g, n, k, gap, cap, second, limit,
                                              canonical, stop, _POLL_NODES)
        if status == _core.OVER:
            raise BudgetExceeded("node budget exhausted")
        if status == _core.STOPPED:
            raise _Stopped
        if status != _core.UNFIT:
            return witness, nodes
    budget = _Budget(limit, stop)
    if kind == "modular":
        witness = _decide_modular(g, n, k, gap, cap, budget, second, canonical)
    elif g == 2:
        witness = _decide_sidon_int(k, gap, cap, budget)
    else:
        witness = _decide_counts_int(g, k, gap, cap, budget)
    return witness, limit - budget.left - budget.reserve


def _search(kind: str, g: int, n: int, k: int, budget: int, workers: int,
            canonical: bool):
    """(witness tuple or None, nodes): the branches in order, up to a witness.

    Both kinds search sets that start at 0: integer ones in [0, n - 1],
    modular ones in Z_n.  Under the mirror rule a branch whose first gap
    second exceeds last[2] - second is empty, so the branches end before
    it.  A branch's job may spend what the consumed branches left when it
    is queued, ahead branches before its turn: one on the calling thread,
    twice the threads in a pool, so that a thread whose branch ends takes
    the next job at once.  A limit is never below what is left at its
    turn, so the loop tests the total too, and neither the answer, the
    nodes nor the budget's outcome depends on the schedule.  On leaving,
    the loop sets the stop flag, which threads poll every _POLL_NODES
    nodes, and joins them.
    """
    last = _last_candidates(g, k, n - 1)
    end = last[1] if k < 3 else min(last[1], last[2] // 2)
    seconds = range(1, end + 1)
    if canonical:  # a least affine image's second element divides n
        seconds = [s for s in seconds if n % s == 0]
    workers = min(workers, len(seconds)) if n >= _PARALLEL_MIN_N else 1
    pool, stop, ahead = None, None, 1
    if workers > 1:  # a branch on the core runs without the GIL
        import ctypes
        from concurrent.futures import ThreadPoolExecutor
        pool, stop, ahead = ThreadPoolExecutor(workers), ctypes.c_byte(), 2 * workers
    nodes, witness = 0, None

    def start(second):
        """A call that returns the branch's (witness, nodes): a queued job's or one to run."""
        job = (kind, g, n, k, last, second, budget - nodes, canonical)
        return pool.submit(_branch, job, stop).result if pool else lambda: _branch(job)

    todo = iter(seconds)
    try:
        queued = list(map(start, itertools.islice(todo, ahead)))
        while queued:
            witness, spent = queued.pop(0)()
            nodes += spent
            if nodes > budget:
                raise BudgetExceeded("node budget exhausted")
            if witness is not None:
                break
            queued.extend(map(start, itertools.islice(todo, 1)))
    finally:
        if pool:
            stop.value = 1
            pool.shutdown(cancel_futures=True)
    return witness, nodes


def exists_set(kind: str, g: int, n: int, k: int,
               budget: int = DEFAULT_BUDGET, workers: int = 1) -> Decision:
    """Find the lexicographically first witness, or certify none exists.

    Raises BudgetExceeded when the node budget runs out; an exhausted
    search never reports infeasible silently.  With workers > 1 the
    answer, the node count and the budget's outcome stay independent of
    scheduling.  Every search keeps one reflection of each set, which
    still meets the lexicographically first witness first.  The modular
    kind searches only the least member of each affine orbit, which the
    lexicographically first witness is.  An integer witness, found
    from 0, is shifted into [1, n] at the one exit.
    """
    _check_kind(kind)
    if g < 1 or k < 1 or n < 1:
        raise ValueError("g, n, k must be positive")
    _check_effort(budget, workers)
    if n < infeasibility_floor(kind, g, k):
        return Decision(None, 0)
    witness, nodes = (0,), 0
    if k > 1:
        witness, nodes = _search(kind, g, n, k, budget, workers, canonical=kind == "modular")
    if witness is not None:
        witness = (IntSet.of(witness, n) if kind == "modular"
                   else IntSet.of([e + 1 for e in witness]))
    return Decision(witness, nodes)


def min_n(problem: SearchProblem) -> SearchResult:
    """Smallest n in [n_start, n_limit] admitting a size-k B*[g] set."""
    p = problem
    floor = infeasibility_floor(p.kind, p.g, p.k)
    lo = max(p.n_start, floor)
    if lo > p.n_limit:
        return SearchResult(None, None, 0, exhaustive=p.n_start <= floor)
    nodes = 0

    if p.kind == "integer":
        # Feasibility is monotone in n, and the first witness in [1, n]
        # that ends at w is also the first one in [1, w]: descend through
        # the witnesses' ends until w - 1 is infeasible, which certifies
        # every smaller n.
        dec = exists_set(p.kind, p.g, p.n_limit, p.k, p.budget, p.workers)
        nodes += dec.nodes
        if not dec.feasible:
            return SearchResult(None, None, nodes, exhaustive=True)
        best = dec.witness
        while best.max_element >= lo:
            end = best.max_element
            if end == floor:
                return SearchResult(end, best, nodes, exhaustive=True)
            dec = exists_set(p.kind, p.g, end - 1, p.k, p.budget, p.workers)
            nodes += dec.nodes
            if not dec.feasible:
                return SearchResult(end, best, nodes, exhaustive=True)
            if end == lo:  # lo - 1 is feasible too
                break
            best = dec.witness
        # n_start lies above the minimum; best is the first witness in [1, lo]
        return SearchResult(lo, best, nodes, exhaustive=False)

    # modular: feasibility is not monotone in n, so decide every n
    for n in range(lo, p.n_limit + 1):
        dec = exists_set(p.kind, p.g, n, p.k, p.budget, p.workers)
        nodes += dec.nodes
        if dec.feasible:
            return SearchResult(n, dec.witness, nodes, exhaustive=p.n_start <= floor)
    return SearchResult(None, None, nodes, exhaustive=p.n_start <= floor)


def table_rows(kind: str, g_min: int, g_max: int, max_k: int,
               budget: int = DEFAULT_BUDGET, workers: int = 1):
    """Yield (g, k, SearchResult) for the min-n table, row by row.

    Each g starts at k = g + 1, the least k for which [1, k], whose
    max_rep is k, is no witness; it searches n up to 8k^2/g + 16, and
    stops at the first k with no witness in that range.  min n is
    nondecreasing in k, so each search starts at the previous row's
    value.  A subset
    of a B*[g] set is B*[g], so no n below that value admits a k-set
    either: a row is exhaustive when the previous one was.
    """
    for g in range(g_min, g_max + 1):
        start, below_proved = 1, True
        for k in range(g + 1, max_k + 1):
            res = min_n(SearchProblem(kind, g, k, start, 8 * k * k // g + 16,
                                      budget, workers))
            if res.min_n is None:
                break
            res = replace(res, exhaustive=res.exhaustive or below_proved)
            yield g, k, res
            start, below_proved = res.min_n, res.exhaustive
