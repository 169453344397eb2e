"""Exhaustive branch-and-bound search for extremal B*[g] sets.

A decision answers "is there a B*[g] set of size k inside [1, n]
(integer kind) or Z_n (modular kind)?" as a DFS over one branch at a
time.  A branch runs in a compiled core, _core.c, which holds three
engines, each the fastest in C on its questions:

* modular mask engine: the counting DFS with its rejections as bit
  masks, the sums where no pair fits any more, the candidates they
  block, and the canonical bans below; a level reads its candidates off
  one mask and tests only their diagonal.  About one modular candidate
  in ten is accepted (DFS calls against nodes: 903 of 10,984 at
  (g, n, k) = (2, 47, 7), 29,874 of 297,896 at (3, 53, 9)).
* integer counting engine, for g != 2: the same DFS as a range loop that
  tests each candidate's pair sums against the profile r(t), indexed by
  the sum itself (length 2n - 1, so integer sums never wrap).  It accepts
  far more of its candidates (54,976 of 252,244 at (3, 36, 10), 11,612 of
  26,040 at (4, 21, 10)).
* integer g = 2 bitmask engine, the one with the Golomb-ruler distance
  bound below.  A candidate x is blocked exactly when some pair sum
  x + y would collide with an existing pair or diagonal sum, so the
  viable-extension mask is kept incrementally with shifts.  A C counting
  loop with the same bound spent the same nodes in about 2.7 times its
  time at (2, 72, 11) and (2, 85, 12) (ROADMAP).

Its Python twin is _decide, one range loop for every question: the
counting DFS over a profile of n counts (modular) or 2n - 1 (integer),
with the canonical bans of the modular kind and the distance bound of
integer g = 2, and the same witness and nodes as the core's engines.
The first call of _loaded_core in a process has _corelib build the core
with cc -O2 -shared -fPIC into __pycache__ next to the source (or the
user's own 0700 folder in the temporary directory), under a name keyed
by the source's checksums, and load it through ctypes; a process that
cannot build or load it has None for it.  _branch runs a branch on the
core where it loaded, and on _decide where it did not or where the core
answers that the branch lies past its fixed widths, which the _core.c
header lists.

The node and budget contract holds on either path.  A node is one
candidate tried, in every engine, whichever test rejects it.  A branch
charges its candidates to its limit in runs: the candidates up to an
accepted one before its subtree, the rest of the range when a level
ends, in the order that one node per candidate would, and it raises
BudgetExceeded once the charges pass the limit.  The core visits the same
candidates in the same order and charges them in the same runs, so it
returns _decide's witness and nodes, and runs out at the same point.  (A
limit of 2^62 nodes or more runs on the core as 2^62 - 1, which no
branch reaches.)  The core hands out a limit _POLL_NODES nodes at a time
and polls at every refill: in a thread, the decision's stop flag, which
it reads through the flag's ctypes.addressof, so a branch that is no
longer needed ends with _Stopped; on the main thread, where there is no
flag, SIGINT, which it takes for the length of a branch, so Ctrl-C ends
a branch within _POLL_NODES nodes, with KeyboardInterrupt, as it ends
_decide at once.  The core took the same nodes 24-91 times faster than
_decide: modular (2, 72, 9) 4.6 ms against 225 ms, integer (3, 45, 10)
29 ms against 1.43 s, integer (2, 55, 10) 3.6 ms against 323 ms, and
the R and C tables 0.048 and 0.044 s against 2.46 and 1.80 s
(BENCH_search.json, medians of 5 alternating rounds, CPython 3.11 on a
shared 2-core x86 host).  _decide is the path for hosts without cc and
for branches past the core's widths, and the independent reference that
the tests hold the core's masks to.

Both questions are translation invariant, so a decision searches the
sets that start at 0, integer ones in [0, n - 1], and exists_set
shifts an integer witness into [1, n]; the DFS yields the
lexicographically first witness.  A decision is one loop over the
branches, one per second element in increasing order; it stops at the
first witness, and its nodes and its budget are those of the branches it
consumed, serially or in threads.  With workers > 1 its branches run in
threads only where all of these hold: n >= _PARALLEL_MIN_N, there is
more than one branch, and the core takes the question (Core.fits).  A
call into the core releases the GIL, so two threads took integer
(2, 85, 12) from 0.386 to 0.234 s and (3, 57, 11) from 0.360 to 0.193 s
(medians of 9 alternating rounds, CPython 3.11, a shared 2-core x86
host).  _decide holds the GIL, and on it two threads took integer
(3, 45, 10) in 1.59-1.80 s against 1.45-1.62 s serially (3 alternating
rounds, same host), so every other decision runs on the calling thread.
Modular decisions gain little, as the canonical rule leaves one branch
or one with nearly all the nodes.

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
  in its own, shifted to its position, so the rule costs one bit test
  per candidate in _decide, and nothing per candidate in the core, which
  reads a level's candidates off the mask with the blocked ones.  L
  passes the span floors, and the mirror rule too: x -> -x is in the
  group, so L's first gap is at most its last.
* a Golomb-ruler distance bound (integer kind, g = 2 only), as in
  exhaustive Golomb-ruler searches (J. B. Shearer, IEEE Trans. Inf.
  Theory 36, 1990; A. Dollas, W. T. Rankin and D. McCracken, IEEE
  Trans. Inf. Theory 44, 1998).  An integer set is B*[2] exactly when
  its positive differences are distinct, since a - b = c - d means
  a + d = b + c.  Let a candidate e join, D be the
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
every sum in the profile, and the core's integer counting engine tests
its pair sums only; modular sums wrap, so the modular engine tests it.
_decide tests it in both kinds, where it never rejects an integer
candidate.

The mirror rule keeps the lexicographically first witness W: W's
reflection is a witness from 0 whose second element is W's last gap, so
W's first gap is at most its last gap and the DFS still meets W first.
The canonical rule keeps W too: every image of W that contains 0 is
itself a witness, so it is not below W, and W is the least member of
its own orbit.  The distance bound cuts only prefixes that no B*[2]
set in [0, n - 1] completes, so it never cuts a prefix of W.  The DFS
runs in lexicographic order, so it meets W before any other canonical
witness, and one search returns the lexicographically first witness.

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
    """A thread's branch on the core was abandoned after the decision ended; never consumed."""


# A branch on the core polls its decision's stop flag, or Ctrl-C, once per
# this many nodes.
_POLL_NODES = 4096


class _Budget:
    """Node allowance of one branch on _decide: left is what it has not spent.

    charge (a run of count nodes) is one subtraction and one test.  No
    branch on _decide runs in a thread, so there is no flag to poll, and
    Ctrl-C reaches it as KeyboardInterrupt between any two bytecodes.
    """
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def charge(self, count: int):
        self.left -= count
        if self.left < 0:
            raise BudgetExceeded("node budget exhausted")


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
# Golomb-ruler distance bound (integer g = 2)
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
# modular canonical bans
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


# ---------------------------------------------------------------------------
# the search loop
# ---------------------------------------------------------------------------

def _decide(kind: str, g: int, n: int, k: int, gap: list[int], cap: list[int],
            budget: _Budget, second: int, canonical: bool):
    """The counting DFS of one branch: its first witness from 0 as a tuple, or None.

    The profile r, a bytearray of size counts, holds the representation
    counts of the placed set: size is n for the modular kind and 2n - 1
    for the integer kind, whose sums lie in [0, 2n - 2] and never wrap, so
    r[t - size] is r[t mod size] for every sum t of two elements of
    [0, n - 1] in either kind.  A pair adds 2 to r
    and a diagonal 1; a level tests each candidate e of its range
    [S[-1] + gap[depth], cap[depth]] in turn, a ban bit, then its diagonal
    r(2e) >= g, then its pair sums r(e + y) > g - 2 against the profile
    before e (pair sums of e never meet each other or 2e).  An accepted
    candidate extends a copy of the profile, so nothing is undone.  (gap,
    cap) are the branch's _bounds for _last_candidates(g, k, n - 1), and
    second is the element that the branch fixes, read only by the bans.

    Every candidate is one node, charged in runs: the candidates up to an
    accepted one before its subtree, the rest of the range when the loop
    ends.  The charges come in the order that one node per candidate
    would, so the count and the point where the budget runs out are the
    same.

    The bans, a one-bit-per-residue int mask, are 0 but with canonical in
    the modular kind, where they hold the residues that the affine
    canonical rule rules out for the next element, and each accepted
    element adds its own: in a branch with second > 1, every e + o with
    gcd(o, n) < second; in the branch second = 1, the triple test on
    {0, 1, t} while the third element t is chosen, then the pair bans of
    each new ordered pair, from one _pair_bans table that the branch
    extends to each t it accepts.

    Integer g = 2 adds the Golomb-ruler distance bound on D, the mask of
    the set's differences: a level's walk ends at top minus _ruler_span of
    its D, and a candidate that passes the sum tests, once charged, is
    rejected when _ruler_span of D with its differences passes top - e.
    So this loop visits _core.c's engines' candidates in their order and
    spends their nodes: the modular mask engine's, the integer counting
    engine's and the bitmask engine's.
    """
    size = n if kind == "modular" else 2 * n - 1
    most = g - 2  # a pair fits only where r[t] <= g - 2
    ruler = kind == "integer" and g == 2
    top = n - 1
    charge = budget.charge
    mark = None  # (S, e, ban) -> the bans after e joins S; None keeps ban as it is
    ban = 0

    if kind == "modular" and canonical:
        at = [(1 | 1 << n) << t for t in range(n)]  # t and n + t
        if second > 1:
            coarse = sum(at[o] for o in range(1, n) if gcd(o, n) < second)

            def mark(S, e, ban):
                return ban | coarse >> n - e

            ban = mark(None, 0, ban)
        else:
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

    def rec(S, r, D, ban, depth):
        if depth == k:
            return tuple(S)
        lo, hi = S[-1] + gap[depth], cap[depth]
        if lo > hi:
            return None
        rest = k - 1 - depth  # elements still to come after e
        end = min(hi, top - _ruler_span(D, rest, top - lo)) if ruler else hi
        charged = lo  # the candidates below charged are paid for
        for e in range(lo, end + 1):
            x = e - size  # r[x + y] is r((e + y) mod size)
            if ban >> e & 1 or r[x + e] >= g:
                continue
            for y in S:
                if r[x + y] > most:
                    break
            else:  # every sum of e fits: pay up to e, extend a copy, recurse
                charge(e + 1 - charged)
                charged = e + 1
                D2 = D
                if ruler:
                    for y in S:
                        D2 |= 1 << e - y
                    if _ruler_span(D2, rest, top - e) > top - e:
                        continue
                r2 = r[:]
                r2[x + e] += 1
                for y in S:
                    r2[x + y] += 2
                out = rec(S + [e], r2, D2, ban if mark is None else mark(S, e, ban),
                          depth + 1)
                if out is not None:
                    return out
        if hi >= charged:
            charge(hi + 1 - charged)
        return None

    r = bytearray(size)
    r[0] = 1
    return rec([0], r, 0, ban, 1)


# The compiled core, a _corelib.Core, once _loaded_core has first been
# called; None where it cannot be built or loaded, _UNLOADED before that.
_UNLOADED = object()
_core = _UNLOADED


def _loaded_core():
    """The compiled core, loaded at the first call of a process, or None.

    _corelib is imported here, so a process that decides nothing never
    loads it.
    """
    global _core
    if _core is _UNLOADED:
        from ._corelib import load
        _core = load()
    return _core


def _branch(args, stop=None):
    """(witness tuple or None, nodes) of one branch; BudgetExceeded past limit nodes.

    The core runs the branch where it loaded and the branch fits it,
    _decide otherwise, with the same answer and nodes.  On the core,
    stop, the decision's flag in a thread, ends the branch with _Stopped
    once it is set.
    """
    kind, g, n, k, last, second, limit, canonical = args
    gap, cap = _bounds(last, second)
    core = _loaded_core()
    if core is not None:
        status, witness, nodes = core.branch(kind, g, n, k, gap, cap, second, limit,
                                             canonical, stop, _POLL_NODES)
        if status == core.OVER:
            raise BudgetExceeded("node budget exhausted")
        if status == core.STOPPED:
            raise _Stopped
        if status != core.UNFIT:
            return witness, nodes
    budget = _Budget(limit)
    witness = _decide(kind, g, n, k, gap, cap, budget, second, canonical)
    return witness, limit - budget.left


def _search(kind: str, g: int, n: int, k: int, budget: int, workers: int,
            canonical: bool):
    """(witness tuple or None, nodes): the branches in order, up to a witness.

    Both kinds search sets that start at 0: integer ones in [0, n - 1],
    modular ones in Z_n.  Under the mirror rule a branch whose first gap
    second exceeds last[2] - second is empty, so the branches end before
    it.  The branches run in threads only where the module docstring's
    rule sends them there.  Then every branch is open to the threads at
    once, with the whole budget: each thread takes the next one that none
    has taken, and stops after one with a witness or an error, since the
    loop reads no branch past it.  Serially each branch gets what the
    branches before it left.  The loop consumes the branches in order and
    tests the total, so neither the answer, the nodes nor the budget's
    outcome depends on the schedule.  On leaving, it sets the stop flag,
    which the core polls every _POLL_NODES nodes, and joins the threads.
    """
    last = _last_candidates(g, k, n - 1)
    end = last[1] if k < 3 else min(last[1], last[2] // 2)
    seconds = range(1, end + 1)
    if canonical:  # a least affine image's second element divides n
        seconds = [s for s in seconds if n % s == 0]
    workers = min(workers, len(seconds)) if n >= _PARALLEL_MIN_N else 1
    pool = None
    if workers > 1 and (core := _loaded_core()) is not None and core.fits(kind, g, n, k):
        import ctypes
        from concurrent.futures import Future, ThreadPoolExecutor
        pool, stop, todo = ThreadPoolExecutor(workers), ctypes.c_byte(), iter(seconds)
        jobs = {s: Future() for s in seconds}

        def work():
            """Run the next branch that no thread has taken, up to one with a witness or an error."""
            for s in todo:  # the GIL makes each step of the shared iterator atomic
                try:
                    jobs[s].set_result(_branch((kind, g, n, k, last, s, budget, canonical), stop))
                except BaseException as exc:  # the loop raises it when it reads branch s
                    jobs[s].set_exception(exc)
                    return
                if jobs[s].result()[0] is not None:
                    return
    nodes, witness = 0, None
    try:
        for _ in range(workers if pool else 0):
            pool.submit(work)
        for second in seconds:
            witness, spent = (jobs[second].result() if pool else
                              _branch((kind, g, n, k, last, second, budget - nodes, canonical)))
            nodes += spent
            if nodes > budget:
                raise BudgetExceeded("node budget exhausted")
            if witness is not None:
                break
    finally:
        if pool:
            stop.value = 1
            pool.shutdown()
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
