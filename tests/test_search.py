import collections
import functools
import hashlib
import importlib
import itertools
import multiprocessing
import os
import random
from math import gcd
from multiprocessing.pool import RemoteTraceback
from pathlib import Path

import pytest

from bstar.intsets import IntSet, is_bstar
from bstar.search import (
    _POLL_NODES,
    BudgetExceeded,
    SearchProblem,
    _bounds,
    _Budget,
    _decide_counts_int,
    _decide_modular,
    _decide_sidon_int,
    _last_candidates,
    _pair_bans,
    _ruler_span,
    _search,
    _third_element_bans,
    exists_set,
    infeasibility_floor,
    min_n,
)


def brute_first(kind, g, n, k):
    """Pruneless reference enumeration (no canonical form, no bounds).

    Returns the lexicographically first size-k B*[g] set, or None.
    """
    universe = range(n) if kind == "modular" else range(1, n + 1)
    mod = n if kind == "modular" else None
    return next((combo for combo in itertools.combinations(universe, k)
                 if is_bstar(IntSet.of(combo, mod), g)), None)


def brute_exists(kind, g, n, k):
    return brute_first(kind, g, n, k) is not None


def test_decision_examples():
    dec = exists_set("modular", 3, 7, 4)
    assert dec.witness.elements == (0, 1, 2, 4)
    assert not exists_set("integer", 2, 34, 8).feasible
    dec = exists_set("integer", 2, 35, 8)
    assert dec.feasible and is_bstar(dec.witness, 2) and dec.witness.max_element <= 35


def test_min_n_examples():
    res = min_n(SearchProblem("modular", 5, 10, 1, 40))
    assert res.min_n == 28 and res.exhaustive
    assert is_bstar(res.witness, 5) and len(res.witness) == 10

    res = min_n(SearchProblem("integer", 2, 4, 1, 30))
    assert res.min_n == 7 and res.exhaustive

    res = min_n(SearchProblem("integer", 1, 1, 1, 5))
    assert res.min_n == 1 and res.witness.elements == (1,)


def test_witnesses_always_verify():
    for kind, g, k in [("integer", 3, 6), ("modular", 4, 7), ("integer", 5, 8)]:
        res = min_n(SearchProblem(kind, g, k, 1, 120))
        assert res.min_n is not None
        assert is_bstar(res.witness, g)
        assert len(res.witness) == k
        if kind == "modular":
            assert res.witness.modulus == res.min_n
        else:
            assert res.witness.max_element <= res.min_n


def test_pruned_matches_brute_force():
    rng = random.Random(20240917)
    cases = []
    for _ in range(80):
        kind = rng.choice(["integer", "modular"])
        g = rng.randint(1, 6)
        n = rng.randint(2, 16)
        k = rng.randint(1, min(6, n))
        cases.append((kind, g, n, k))
    # every small question for the kinds and g the span floors and the
    # canonical rule touch most: modular g = 2..4 and integer g = 2, 3
    cases += [(kind, g, n, k)
              for kind, gs in (("modular", (2, 3, 4)), ("integer", (2, 3)))
              for g in gs for n in range(3, 17) for k in range(3, min(6, n) + 1)]
    for case in cases:
        # canonical form fixes the first element to the smallest one, so
        # the engines' witness is the first combination in element order
        dec = exists_set(*case)
        assert (dec.witness.elements if dec.feasible else None) == brute_first(*case), case


def test_node_counts_repeat():
    for kind, g, k, limit in [("modular", 3, 7, 40), ("integer", 3, 8, 40)]:
        problem = SearchProblem(kind, g, k, 1, limit)
        assert min_n(problem).nodes_explored == min_n(problem).nodes_explored > 0


def test_decision_digest():
    """Every small decision's answer and node count, frozen: 1,736 decisions, 41,140 nodes."""
    digest, decisions, nodes = hashlib.sha256(), 0, 0
    for kind in ("integer", "modular"):
        for g in range(1, 5):
            for k in range(1, 8):
                for n in range(1, 32):
                    dec = exists_set(kind, g, n, k)
                    witness = dec.witness.elements if dec.feasible else None
                    digest.update(repr((kind, g, n, k, witness, dec.nodes)).encode())
                    decisions, nodes = decisions + 1, nodes + dec.nodes
    assert (decisions, nodes) == (1736, 41140)
    assert digest.hexdigest() == (
        "3d597fd8cd340df73b6875e9703000ab754285c64d0bdf2133aa3873ca83602f")


def test_min_n_monotone_in_k_and_g():
    values = {}
    for g in (2, 3, 4):
        for k in (4, 5, 6):
            values[g, k] = min_n(SearchProblem("integer", g, k, 1, 80)).min_n
    for g in (2, 3, 4):
        assert values[g, 4] <= values[g, 5] <= values[g, 6]
    for k in (4, 5, 6):
        assert values[2, k] >= values[3, k] >= values[4, k]


def test_not_found_within_limit():
    res = min_n(SearchProblem("integer", 2, 8, 1, 30))
    assert res.min_n is None and res.witness is None and res.exhaustive


def test_narrow_range_is_not_exhaustive():
    # range starts above the true minimum (7): value is range-relative
    res = min_n(SearchProblem("modular", 3, 4, 8, 20))
    assert res.min_n == 8  # e.g. {0,1,3,5} mod 8
    assert not res.exhaustive


def test_budget_exceeded_is_loud():
    with pytest.raises(BudgetExceeded):
        exists_set("integer", 2, 50, 9, budget=50)
    # an effort that means nothing is refused, not run as budget 0 or serially
    for budget, workers, message in ((-1, 1, "budget must be nonnegative"),
                                     (0, 0, "workers must be positive"),
                                     (0, -3, "workers must be positive")):
        with pytest.raises(ValueError, match=message):
            exists_set("integer", 2, 4, 1, budget, workers)
        with pytest.raises(ValueError, match=message):
            SearchProblem("integer", 2, 3, 1, 10, budget, workers)
    assert exists_set("integer", 2, 4, 1, budget=0).feasible
    assert SearchProblem("integer", 2, 3, 1, 10, budget=0).budget == 0


def test_an_unknown_kind_is_refused():
    # "Modular" is neither kind; no entry point reads it as the integer
    # kind, or answers before it looks at the kind (k > n)
    for call in (lambda: exists_set("Modular", 2, 12, 4),
                 lambda: exists_set("Modular", 2, 3, 4),
                 lambda: infeasibility_floor("Modular", 2, 4),
                 lambda: SearchProblem("Modular", 2, 4, 1, 12)):
        with pytest.raises(ValueError, match="kind must be 'integer' or 'modular'"):
            call()


def test_floor_is_sound():
    for kind in ("integer", "modular"):
        for g in (2, 3, 4, 5):
            for k in range(1, 7):
                floor = infeasibility_floor(kind, g, k)
                if floor - 1 > 16 or floor <= k:
                    continue
                assert not brute_exists(kind, g, floor - 1, k)


def test_workers_match_serial():
    # n >= 30 sends each question through the branch workers, which
    # stop at the first branch holding a witness: the parallel node
    # count equals the serial one, feasible or not
    cases = [
        (("modular", 2, 31, 6), True),
        (("modular", 3, 30, 7), True),    # the canonical search is sharded too
        (("modular", 2, 44, 7), False),
        (("integer", 3, 30, 7), True),
        (("integer", 2, 30, 7), True),    # bitmask engine in the workers
        (("integer", 2, 34, 8), False),
    ]
    for case, feasible in cases:
        serial = exists_set(*case)
        parallel = exists_set(*case, workers=2)
        assert serial.feasible == feasible, case
        assert serial.witness == parallel.witness, case
        assert serial.nodes == parallel.nodes, case


def test_stop_flag_ends_a_branch(monkeypatch):
    # a pool worker polls the flag at a branch's first node and then
    # every _POLL_NODES nodes; a raised flag drops the branch at once.
    # The branch second = 2 of modular (3, 56, 9) is one the canonical
    # rule keeps (2 divides 56), with no witness.
    from bstar import search
    job = ("modular", 3, 56, 9, search._last_candidates(3, 9, 55), 2, 10**9, True)
    monkeypatch.setattr(search, "_stop", multiprocessing.Value("b", 1, lock=False))
    with pytest.raises(search._Stopped):
        search._branch(job)
    search._stop.value = 0
    witness, nodes = search._branch(job)
    assert witness is None and nodes > search._POLL_NODES


def test_early_stop_with_more_workers_than_cores(monkeypatch):
    # the witness turns up in the first of 16 branches while later, long
    # branches still run or wait; the pool stops them by the flag and is
    # joined, leaving no process
    sizes = []

    def pool(processes, *args):
        sizes.append(processes)
        return real_pool(processes, *args)

    real_pool = multiprocessing.Pool
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    case = ("integer", 3, 48, 10)
    workers = min(os.cpu_count() or 1, 15) + 1
    serial = exists_set(*case)
    parallel = exists_set(*case, workers=workers)
    assert serial.feasible and serial.witness == parallel.witness
    assert serial.nodes == parallel.nodes
    assert sizes == [workers]
    assert multiprocessing.active_children() == []


def test_the_pool_has_at_most_one_worker_per_branch(monkeypatch):
    # modular (3, 53, 9) has one branch under the canonical rule (53 is
    # prime) and runs in-process; (3, 30, 7) has six, one per divisor of
    # 30 up to its end.  The fake pool starts no process.
    sizes = []

    class FakePool:
        def __init__(self, processes, *args):
            sizes.append(processes)

        imap = staticmethod(map)

        def close(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    for case, workers, pools in ((("modular", 3, 53, 9), 2, []),
                                 (("modular", 3, 30, 7), 4, [4]),
                                 (("modular", 3, 30, 7), 8, [6])):
        sizes.clear()
        serial = exists_set(*case)
        parallel = exists_set(*case, workers=workers)
        assert (parallel.witness, parallel.nodes) == (serial.witness, serial.nodes), case
        assert sizes == pools, (case, workers)


def test_budget_means_the_same_with_workers():
    # the budget caps the decision's total nodes with or without workers:
    # it raises one node short of the serial count and passes at it
    cases = [("modular", 2, 44, 7), ("integer", 2, 34, 8),   # infeasible
             ("modular", 3, 30, 7), ("integer", 3, 30, 7)]   # feasible
    for case in cases:
        serial = exists_set(*case)
        for workers in (1, 2):
            with pytest.raises(BudgetExceeded):
                exists_set(*case, budget=serial.nodes - 1, workers=workers)
            dec = exists_set(*case, budget=serial.nodes, workers=workers)
            assert (dec.witness, dec.nodes) == (serial.witness, serial.nodes), (case, workers)


def test_a_pool_branch_that_overruns_raises_in_its_worker():
    # the first branch of integer (2, 34, 8) alone spends 5,223 nodes, so
    # a budget of 5,000 runs out inside the pool worker; the pool re-raises
    # its BudgetExceeded when the loop reaches that branch
    with pytest.raises(BudgetExceeded) as pooled:
        exists_set("integer", 2, 34, 8, budget=5000, workers=2)
    assert isinstance(pooled.value.__cause__, RemoteTraceback)
    with pytest.raises(BudgetExceeded):
        exists_set("integer", 2, 34, 8, budget=5000)


def test_budget_boundary_inside_a_run():
    # the engines charge their candidates in runs; every budget
    # below a decision's nodes must still run out, wherever it falls in
    # a run of rejected candidates, and the exact count must pass.  The
    # counts are one node per candidate tried.
    # Integer (2, 26, 7) spends 862 nodes under the floors, the mirror rule
    # and the masks alone; the Golomb-ruler distance bound rejects
    # candidates that the masks accept, and still charges each one.
    cases = [(("integer", 3, 15, 7), None, 522),
             (("integer", 3, 28, 8), (1, 2, 3, 5, 9, 15, 20, 25), 268),
             (("integer", 2, 26, 7), (1, 2, 5, 11, 19, 24, 26), 200),
             (("modular", 3, 17, 6), None, 261),
             (("modular", 4, 14, 7), (0, 1, 2, 4, 8, 9, 11), 140)]
    for case, witness, nodes in cases:
        dec = exists_set(*case, budget=nodes)
        assert (dec.witness.elements if dec.feasible else None, dec.nodes) == (witness, nodes)
        for budget in range(nodes):
            with pytest.raises(BudgetExceeded):
                exists_set(*case, budget=budget)


def test_budget_charges_runs():
    budget = _Budget(10)
    budget.charge(4)
    budget.charge(1)
    budget.charge(0)
    budget.charge(5)
    with pytest.raises(BudgetExceeded):
        budget.charge(1)
    # a run longer than one refill is covered in one go
    budget = _Budget(3 * _POLL_NODES)
    budget.charge(2 * _POLL_NODES + 1)
    assert budget.left >= 0
    assert 3 * _POLL_NODES - budget.left - budget.reserve == 2 * _POLL_NODES + 1
    with pytest.raises(BudgetExceeded):
        budget.charge(_POLL_NODES)


def ruler_difference_masks(r, room):
    """The difference masks of the rulers 0 < x1 < ... < xr <= room with 0 as a mark
    and all C(r + 1, 2) differences distinct."""
    masks = []
    for marks in itertools.combinations(range(1, room + 1), r):
        diffs = [b - a for a, b in itertools.combinations((0,) + marks, 2)]
        if len(set(diffs)) == len(diffs):
            masks.append(sum(1 << d for d in diffs))
    return masks


def test_ruler_span_admits_every_ruler_that_fits():
    # the Golomb-ruler distance bound against brute force: for every mask D
    # of used differences over [1, room], whenever r marks can follow a
    # mark within room on distinct differences that miss D, the bound
    # accepts (a span of at most room); otherwise it may reject, and a
    # rejection reads room + 1.  Differences above room never matter.
    rejected = 0
    for room in range(15):
        for r in range(5):
            rulers = ruler_difference_masks(r, room)
            for D in range(0, 2 << room, 2):
                span = _ruler_span(D, r, room)
                assert span == _ruler_span(D | 1 << room + 1 | 1 << room + 9, r, room)
                if any(not U & D for U in rulers):
                    assert span <= room, (D, r, room)
                else:
                    assert span <= room + 1, (D, r, room)
                    rejected += span == room + 1
    # positive control: the bound rejects, by either of its two tests.
    # With 1, 2, 3 used, two more marks within 8 need gaps 4 and 5 at
    # least; with 3 used, the three differences of two more marks cannot
    # all lie in [1, 3].
    assert rejected > 0
    assert _ruler_span(0b1110, 2, 8) == 9 and _ruler_span(0b1110, 2, 9) == 9
    assert _ruler_span(0b1000, 2, 3) == 4 and _ruler_span(0b1000, 2, 4) == 3


def upward_min_n(p):
    """(min n, witness, exhaustive) from exists_set at every n of the range, upward."""
    for n in range(p.n_start, p.n_limit + 1):
        dec = exists_set(p.kind, p.g, n, p.k)
        if dec.feasible:
            below = n > 1 and exists_set(p.kind, p.g, n - 1, p.k).feasible
            return n, dec.witness, not below
    return None, None, True


def test_integer_descent_matches_upward_scan(monkeypatch):
    # min_n descends through the ends of the witnesses it finds; it must
    # give the upward scan's answer on every range, and when the range
    # holds the minimum above the counting floor, exactly one decision,
    # the one at the minimum - 1, is infeasible
    from bstar import search
    decided = []

    def counted(*args):
        dec = exists_set(*args)
        decided.append(dec.feasible)
        return dec

    monkeypatch.setattr(search, "exists_set", counted)
    for g in (2, 3, 4):
        for k in range(1, 8):
            floor = infeasibility_floor("integer", g, k)
            least = upward_min_n(SearchProblem("integer", g, k, 1, 4 * k * k))[0]
            ranges = [(1, least + 12), (floor, least), (least - 2, least + 5),
                      (least, least), (least, least + 7), (least + 3, least + 9),
                      (1, least - 1), (least - 3, least - 1)]
            for n_start, n_limit in ranges:
                if not 1 <= n_start <= n_limit:
                    continue
                problem = SearchProblem("integer", g, k, n_start, n_limit)
                decided.clear()
                res = min_n(problem)
                assert (res.min_n, res.witness, res.exhaustive) == upward_min_n(problem), problem
                proof = res.exhaustive and res.min_n != floor and n_limit >= floor
                assert decided.count(False) == int(proof), (problem, decided)


def spent(decide, *args, **kwargs):
    """(witness, nodes) of one branch call."""
    budget = _Budget(10**8)
    return decide(*args, budget=budget, **kwargs), 10**8 - budget.left - budget.reserve


def test_bitmask_engine_returns_the_counting_engines_witnesses_in_fewer_nodes():
    # integer g = 2 is the one question two engines can answer; both
    # explore candidates in increasing order under the span floors and
    # the mirror rule, so each branch must return the same witness, not
    # just agree on feasibility, and the decision must return the
    # lexicographically first witness.  Only the bitmask engine applies
    # the Golomb-ruler distance bound, which cuts subtrees and never a
    # witness, so it spends no more nodes in any branch, and fewer over
    # the sweep (2,140 against 2,352 in its 891 branches).  Under the
    # mirror rule a branch's witness, which starts at 0, ends on a gap
    # no shorter than its first one, second.
    total = [0, 0]  # bitmask, counting nodes
    for n in range(4, 26):
        for k in (3, 4, 5):
            fast = exists_set("integer", 2, n, k)
            last = _last_candidates(2, k, n - 1)
            branches = [spent(_decide_counts_int, 2, k, *_bounds(last, second))
                        for second in range(1, n)]
            for second, (slow, slow_nodes) in enumerate(branches, 1):
                witness, nodes = spent(_decide_sidon_int, k, *_bounds(last, second))
                assert witness == slow and nodes <= slow_nodes, (n, k, second)
                total[0] += nodes
                total[1] += slow_nodes
                if slow is not None:
                    assert slow[-1] - slow[-2] >= second, (n, k, second)
            slow = next(filter(None, (w for w, _ in branches)), None)
            slow = None if slow is None else tuple(e + 1 for e in slow)  # into [1, n]
            witness = fast.witness.elements if fast.feasible else None
            assert witness == slow == brute_first("integer", 2, n, k), (n, k)
    assert total[0] < total[1], total


def test_bench_search_script_runs_on_a_small_cell(monkeypatch):
    # scripts/bench_search.py reads its answers off exists_set and times
    # them in alternating rounds; a changed interface must fail here, not
    # at the next benchmark run.  R(2, 7) = 26: one cell on each side of it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    bench = importlib.import_module("bench_search")
    for n in (25, 26):
        dec = exists_set("integer", 2, n, 7)
        assert bench.decide(("integer", 2, n, 7)) == (
            dec.witness.elements if dec.feasible else None, dec.nodes), n
    # the timed rounds keep each call's answer and one time per round
    cases = (("integer", 2, 26, 7), ("integer", 3, 19, 7))
    rows = bench.timed_rounds([lambda case=case: bench.decide(case) for case in cases])
    for case, row in zip(cases, rows):
        dec = exists_set(*case)
        assert (row["witness"], row["nodes"]) == (list(dec.witness.elements), dec.nodes), case
    assert all(len(row["runs_s"]) == bench.ROUNDS and row["relative"] >= 1.0 for row in rows)
    assert [bench.engine(case) for case in cases] == ["bitmask", "integer counting"]


def floors_first(kind, g, n, k):
    """(lexicographically first witness or None, nodes) under the span floors alone.

    A DFS in element order with the caps of _last_candidates, which
    test_pruned_matches_brute_force checks, and no mirror or canonical
    rule; it spends one node per candidate, as the engines do.
    """
    first = 0 if kind == "modular" else 1
    length = n if kind == "modular" else 2 * n + 1
    last = _last_candidates(g, k, n - 1 + first)
    r = bytearray(length)
    r[2 * first % length] = 1
    S = [first]
    nodes = 0

    def rec(depth):
        nonlocal nodes
        if depth == k:
            return tuple(S)
        for e in range(S[-1] + 1, last[depth] + 1):
            nodes += 1
            d = 2 * e % length
            if r[d] >= g:
                continue
            for y in S:
                if r[(e + y) % length] > g - 2:
                    break
            else:
                r[d] += 1
                for y in S:
                    r[(e + y) % length] += 2
                S.append(e)
                out = rec(depth + 1)
                S.pop()
                r[d] -= 1
                for y in S:
                    r[(e + y) % length] -= 2
                if out is not None:
                    return out
        return None

    return rec(1), nodes


def test_mirror_and_canonical_rules_match_a_floors_only_search():
    # past brute force's reach: exists_set, with the mirror rule in every
    # search and the affine canonical rule deciding in Z_n, returns the
    # witness of a DFS with neither rule, or none when that DFS finds
    # none.  The canonical pass's witness is a set both rules keep: its
    # second element divides n, every difference has a gcd with n at
    # least that, and its first gap is at most its last gap.  Modular
    # k = 8 at g = 2, 3 is left out: the floors-only search alone takes
    # seconds there.
    spent = {}  # (kind, g == 2) -> [floors-only, exists_set] nodes on infeasible n
    for kind in ("integer", "modular"):
        for g in range(2, 6):
            for k in range(4, 9):
                if kind == "modular" and k == 8 and g < 4:
                    continue
                floor = infeasibility_floor(kind, g, k)
                for n in range(floor, floor + 13):
                    case = (kind, g, n, k)
                    reference, reference_nodes = floors_first(*case)
                    dec = exists_set(*case)
                    assert (dec.witness.elements if dec.feasible else None) == reference, case
                    if reference is None:
                        total = spent.setdefault((kind, g == 2), [0, 0])
                        total[0] += reference_nodes
                        total[1] += dec.nodes
                        continue
                    if kind == "integer":
                        continue
                    w, _ = _search(*case, 10**9, 1, canonical=True)
                    assert is_bstar(IntSet.of(w, n), g), case
                    assert len(w) == k and w[0] == 0 and w[-1] < n, case
                    assert n % w[1] == 0, case
                    pairs = itertools.combinations(w, 2)
                    assert all(gcd(b - a, n) >= w[1] for a, b in pairs), case
                    assert w[1] - w[0] <= w[-1] - w[-2], case
    # the rules prune in every engine: the bitmask one (integer g = 2),
    # the integer counting one and the modular mask one.  Each bound sits just above the
    # share spent today (0.112, 0.552, 0.0256, 0.0967 of the floors-only
    # nodes), so a cap one looser or a rule left out of an engine fails.
    # Integer g = 2 spends 0.643 without the Golomb-ruler distance bound,
    # so the bitmask engine cannot lose it.
    most = {("integer", True): 0.12, ("integer", False): 0.56,
            ("modular", True): 0.027, ("modular", False): 0.099}
    for group, (reference_nodes, nodes) in spent.items():
        assert nodes <= most[group] * reference_nodes, (group, reference_nodes, nodes)


def least_affine_image(S, n):
    """The least sorted image of S under x -> u (x - a) mod n, u a unit, a in S.

    The least member of an orbit contains 0, so a ranges over S only.
    """
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    return min(tuple(sorted(u * (x - a) % n for x in S)) for u in units for a in S)


@functools.lru_cache(maxsize=None)
def least_images(n, k):
    """{least affine image: its largest representation count} over the
    k-subsets of Z_n that hold 0 and are B*[4]: every orbit of B*[g] sets,
    g <= 4, has a member holding 0."""
    least = {}
    for rest in itertools.combinations(range(1, n), k - 1):
        S = (0,) + rest
        rep = max(collections.Counter((a + b) % n for a in S for b in S).values())
        if rep <= 4:
            least[least_affine_image(S, n)] = rep
    return least


SMALL_MODULAR = [(n, k) for n in range(3, 19) for k in range(3, min(6, n) + 1)]


def test_canonical_decision_matches_brute_force():
    # the decision pass alone, with the affine canonical rule, finds a
    # witness exactly when one exists
    for n, k in SMALL_MODULAR:
        reps = least_images(n, k).values()
        for g in (2, 3, 4):
            witness, _ = _search("modular", g, n, k, 10**9, 1, canonical=True)
            assert (witness is None) == all(rep > g for rep in reps), (g, n, k)


def pair_bans_from_scratch(n, t):
    """The pair bans for third element t, built for this t alone: the
    offsets that each v in [2, t) and unit x give the ordered pair
    (p, p + d), then those of (p + d, p) shifted by d, as masks holding
    each residue o at bits o and n + o."""
    units = [x for x in range(1, n) if gcd(x, n) == 1]
    offs = [set() for _ in range(n)]
    for v in range(2, t):
        for x in units:
            offs[x].add(v * x % n)
            offs[v * x % n].add(x)
            offs[(v - 1) * x % n].add(n - x)
    bans = []
    for d in range(n):
        residues = offs[d] | {(o + d) % n for o in offs[n - d]} if d else set()
        mask = sum(1 << o for o in residues)
        bans.append(mask | mask << n)
    return bans


@functools.lru_cache(maxsize=None)
def byte_pair_bans(n, t):
    """pair_bans_from_scratch(n, t) as byte masks: bit o moved to bit 8 o."""
    return [sum(1 << 8 * o for o in range(2 * n) if mask >> o & 1)
            for mask in pair_bans_from_scratch(n, t)]


def byte_table_branch(g, n, k, last, budget, second, canonical=False):
    """A modular branch as a range loop over a byte table of bans.

    The reference for _decide_modular: it works out each level's range
    from last and second itself, where the engine reads it off _bounds,
    tests each candidate of the range in turn, a ban byte first, then its
    diagonal and pair sums against r(t) indexed (e + y) % n, and charges
    nodes in the same runs.
    With canonical, each level's bans are a bytes table: the gcd test of
    a branch with second > 1, the triple test while the third element t
    is chosen, then the pair bans of pair_bans_from_scratch(n, t) for
    every pair placed, read back from integer masks with to_bytes.
    """
    charge = budget.charge
    mark = None
    ban = bytes(n)
    if canonical and second > 1:
        coarse = {o for o in range(1, n) if gcd(o, n) < second}

        def mark(S, e, ban):
            return bytes(ban[x] or (x - e) % n in coarse for x in range(n))

        ban = mark(None, 0, ban)
    elif canonical:
        def mark(S, e, ban):
            if len(S) == 1:
                return ban
            if len(S) == 2:
                bans = byte_pair_bans(n, e)
                mask = bans[1] >> 8 * n
            else:
                bans = byte_pair_bans(n, S[2])
                mask = int.from_bytes(ban, "little")
            for y in S:
                mask |= bans[(e - y) % n] >> 8 * (n - y)
            return mask.to_bytes(2 * n, "little")

        ban = bytes(t > 1 and any(gcd(b - a, n) == 1 and (c - a) * pow(b - a, -1, n) % n < t
                                  for a, b, c in itertools.permutations((0, 1, t)))
                    for t in range(n))

    def rec(S, r, depth, ban):
        if depth == k:
            return tuple(S)
        # the last gap is at least the first, second: the elements before
        # the last one end by last[k - 1] - second, and so on down
        hi = last[depth] if depth == k - 1 else min(last[depth], last[depth + 1] - second)
        if depth == 1:
            lo, hi = second, min(second, hi)
        else:
            lo = S[-1] + (second if depth == k - 1 else 1)
        charged = lo
        for e in range(lo, hi + 1):
            if ban[e]:
                continue
            d = 2 * e % n
            if r[d] >= g:
                continue
            for y in S:
                if r[(e + y) % n] > g - 2:
                    break
            else:
                charge(e + 1 - charged)
                charged = e + 1
                r2 = r[:]
                r2[d] += 1
                for y in S:
                    r2[(e + y) % n] += 2
                out = rec(S + [e], r2, depth + 1, ban if mark is None else mark(S, e, ban))
                if out is not None:
                    return out
        if hi >= charged:
            charge(hi + 1 - charged)
        return None

    r = bytearray(n)
    r[0] = 1
    return rec([0], r, 1, ban)


def test_mask_engine_matches_the_byte_table_loop():
    # every modular branch, with and without the canonical rule, returns
    # the byte-table loop's witness and nodes, and one node less of budget
    # runs out in both
    for n, k in SMALL_MODULAR:
        for g in range(2, 6):
            last = _last_candidates(g, k, n - 1)
            for canonical in (False, True):
                for second in range(1, last[1] + 1):
                    kwargs = {"second": second, "canonical": canonical}
                    cases = {byte_table_branch: (g, n, k, last),
                             _decide_modular: (g, n, k, *_bounds(last, second))}
                    reference = spent(byte_table_branch, *cases[byte_table_branch], **kwargs)
                    assert spent(_decide_modular, *cases[_decide_modular], **kwargs) == reference, \
                        (g, n, k, kwargs)
                    if reference[1]:
                        for decide, case in cases.items():
                            with pytest.raises(BudgetExceeded):
                                decide(*case, _Budget(reference[1] - 1), **kwargs)


def test_grown_pair_bans_match_a_table_built_for_each_t():
    # one table grown as the third element rises, with steps of one and
    # jumps, equals the table built from scratch for each t after every
    # step; prime and composite n
    rng = random.Random(1)
    for n in range(3, 61):
        sequences = [[t for t in (3, 4, 7, 8) if t < n], [n - 1],
                     sorted(rng.sample(range(3, n), min(5, n - 3)))]
        for ts in sequences:
            grow = _pair_bans(n)
            bans = next(grow)
            assert bans == pair_bans_from_scratch(n, 2), n
            for t in ts:
                assert grow.send(t) is bans  # extended in place
                assert bans == pair_bans_from_scratch(n, t), (n, ts, t)


def test_least_affine_images_pass_the_canonical_rule():
    # the least member L of each orbit of B*[g] sets (g <= 4) passes all
    # three parts of the rule, and none of the engine's masks bans L's
    # next element at any depth: the triple mask bans no L[2], and the
    # pair bans of L[:j] ban no L[j].  The canonical branch second = L[1]
    # of every g that L is B*[g] for finds a witness.
    for n, k in SMALL_MODULAR:
        branches = {(g, L[1]) for L, rep in least_images(n, k).items() for g in range(rep, 5)}
        for g, second in branches:
            last = _last_candidates(g, k, n - 1)
            assert _decide_modular(g, n, k, *_bounds(last, second), _Budget(10**9), second,
                                   canonical=True) is not None, (g, n, k, second)
        for L in least_images(n, k):
            s, t = L[1], L[2]
            assert n % s == 0, (n, L)
            assert all(gcd(b - a, n) >= s for a, b in itertools.combinations(L, 2)), (n, L)
            if s > 1:
                continue
            assert all((c - a) * pow(b - a, -1, n) % n >= t
                       for a, b in itertools.permutations(L, 2) if gcd(b - a, n) == 1
                       for c in L if c not in (a, b)), (n, L)
            assert not _third_element_bans(n) >> t & 1, (n, L)
            grow = _pair_bans(n)
            next(grow)
            bans = grow.send(t)
            for j in range(3, k):
                banned = 0
                for p, q in itertools.combinations(L[:j], 2):
                    banned |= bans[q - p] >> n - p
                assert not banned >> L[j] & 1, (n, L, j)
    # positive control: after a prefix (0, 1, t) that passes the triple
    # test, the pair bans hold exactly the c > t for which a triple of
    # (0, 1, t, c) holding c maps an ordered pair with a unit difference to
    # 0, 1 and its third element below t, and each such prefix has an
    # affine image below it
    controls = 0
    for n in (13, 16, 17, 18):
        triple = _third_element_bans(n)
        grow = _pair_bans(n)
        next(grow)
        for t in range(2, n - 1):
            if triple >> t & 1:
                continue
            bans = grow.send(t)
            banned = 0
            for p, q in itertools.combinations((0, 1, t), 2):
                banned |= bans[q - p] >> n - p
            for c in range(t + 1, n):
                P = (0, 1, t, c)
                below = any(gcd(b - a, n) == 1 and (w - a) * pow(b - a, -1, n) % n < t
                            for a, b, w in itertools.permutations(P, 3) if c in (a, b, w))
                assert bool(banned >> c & 1) == below, (n, P)
                if below:
                    assert least_affine_image(P, n) < P, (n, P)
                    controls += 1
    assert controls, "no prefix was banned"
