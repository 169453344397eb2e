import importlib
import json
import operator
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstar.intsets import IntSet, max_rep, representation_counts
from bstar import intervals
from bstar.intervals import IntervalSet, a_of_s, delta_k_upper, largest_symmetric_subset
from test_acceptance import WITNESS_TABLE


def random_interval_set(rng, k, exact=False):
    pts = sorted(rng.random() for _ in range(2 * k))
    if exact:
        pts = [F(round(p * 720), 720) for p in pts]
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    return IntervalSet.of([p for p in pairs if p[1] > p[0]])


def test_single_interval():
    res = largest_symmetric_subset(IntervalSet.of([(F(0), F(1, 4))]))
    assert res.d_value == F(1, 4) and res.center == F(1, 8)


def test_mirror_pair():
    res = largest_symmetric_subset(IntervalSet.of([(F(0), F(1, 4)), (F(3, 4), F(1))]))
    assert res.d_value == F(1, 2) and res.center == F(1, 2)


def test_block_picture_peak():
    s = IntSet.of([1, 2, 3, 5, 8, 13])
    e = a_of_s(s, 13)
    assert len(e.intervals) == 4 and e.measure == F(6, 13)
    assert largest_symmetric_subset(e).d_value == F(3, 13)


def test_a_of_s_edges():
    assert a_of_s(IntSet.of([1]), 2).intervals == ((F(0), F(1, 2)),)
    assert a_of_s(IntSet.of(range(1, 8)), 7).intervals == ((F(0), F(1)),)
    with pytest.raises(ValueError):
        a_of_s(IntSet.of([0]), 5)


def test_a_of_s_is_the_union_of_its_blocks():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 40)
        els = rng.sample(range(1, n + 1), rng.randint(1, n))
        blocks = IntervalSet.of([(F(v - 1, n), F(v, n)) for v in els])
        assert a_of_s(IntSet.of(els), n) == blocks


def test_bridge_exactness_random_sets():
    # a_of_s(S, n) has a block [(v-1)/n, v/n) at each v, so the profile row
    # at s = (t-1)/n is m(s) = r_S(t)/n, with t taken mod n on the circle
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 24)
        els = rng.sample(range(1, n + 1), rng.randint(1, min(8, n)))
        picture = a_of_s(IntSet.of(els), n)
        for s, geometry in ((IntSet.of(els), "line"),
                            (IntSet.of([v % n for v in els], n), "circle")):
            res = largest_symmetric_subset(IntervalSet(picture.intervals, geometry),
                                           include_profile=True)
            assert res.d_value == F(max_rep(s), n)
            counts = representation_counts(s)
            for center, value in res.per_center_function:
                t = 2 * n * center + 1
                assert t.denominator == 1
                t = int(t) % n if s.modulus else int(t)
                # on the line the last candidate, t = 2 max(S) + 1, has no pair
                assert value == F(int(counts[t]) if t < len(counts) else 0, n)


def test_scaling_exact():
    rng = random.Random(4)
    for _ in range(15):
        e = random_interval_set(rng, rng.randint(1, 4), exact=True)
        if not e.intervals:
            continue
        t = F(rng.randint(1, 4), 5)
        d = largest_symmetric_subset(e).d_value
        scaled = IntervalSet(tuple((a * t, b * t) for a, b in e.intervals))
        assert largest_symmetric_subset(scaled).d_value == t * d


def symmetric_difference_measure(s, t):
    """lambda(S diamond T) by a sweep over the endpoints of both sets."""
    events = sorted({x for ivs in (s.intervals, t.intervals) for pair in ivs for x in pair})

    def covered(ivs, x):
        return any(a <= x < b for a, b in ivs)

    return sum(hi - lo for lo, hi in zip(events, events[1:])
               if covered(s.intervals, lo) != covered(t.intervals, lo))


def test_symmetric_difference_examples():
    # the oracle of the Lipschitz test below
    a = IntervalSet.of([(0.0, 0.5)])
    b = IntervalSet.of([(0.5, 1.0)])
    c = IntervalSet.of([(0.25, 0.75)])
    assert symmetric_difference_measure(a, a) == 0.0
    assert symmetric_difference_measure(a, b) == 1.0
    assert symmetric_difference_measure(a, c) == 0.5
    assert symmetric_difference_measure(IntervalSet.of([(F(0), F(1, 3))]),
                                        IntervalSet.of([(F(1, 6), F(1, 2))])) == F(1, 3)


def test_diamond_lipschitz_on_random_pairs():
    rng = random.Random(5)
    for _ in range(60):
        s = random_interval_set(rng, rng.randint(1, 4))
        t = random_interval_set(rng, rng.randint(1, 4))
        if not s.intervals or not t.intervals:
            continue
        ds = largest_symmetric_subset(s).d_value
        dt = largest_symmetric_subset(t).d_value
        assert abs(ds - dt) <= 2 * symmetric_difference_measure(s, t) + 1e-12


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_trivial_bounds(data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    raw = sorted(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2 * k, max_size=2 * k)))
    pairs = [(raw[2 * i], raw[2 * i + 1]) for i in range(k) if raw[2 * i + 1] > raw[2 * i]]
    if not pairs:
        return
    e = IntervalSet.of(pairs)
    res = largest_symmetric_subset(e, include_profile=True)
    d = res.d_value
    lam = e.measure
    assert all(0 <= v <= d for _, v in res.per_center_function)
    assert d >= lam * lam / 2 - 1e-12
    assert d >= 2 * lam - 1 - 1e-12
    assert d <= lam + 1e-12


def test_circle_trivial_bound_is_squared():
    rng = random.Random(6)
    for _ in range(25):
        base = random_interval_set(rng, rng.randint(1, 4))
        if not base.intervals:
            continue
        e = IntervalSet(base.intervals, geometry="circle")
        d = largest_symmetric_subset(e).d_value
        lam = e.measure
        assert d >= lam * lam - 1e-12
        line_d = largest_symmetric_subset(base).d_value
        assert d >= line_d - 1e-12  # wraparound can only help


def test_circle_wraparound_reflection():
    # [0, 1/4) u [1/2, 5/8) admits the full-set symmetric wraparound
    e = IntervalSet.of([(F(0), F(1, 4)), (F(1, 2), F(5, 8))], geometry="circle")
    assert largest_symmetric_subset(e).d_value == F(1, 4)


def test_ties_break_toward_smaller_center():
    # three equally good reflection centers exist; the smallest wins
    e = IntervalSet.of([(F(0), F(1, 10)), (F(2, 10), F(3, 10)), (F(5, 10), F(6, 10))])
    res = largest_symmetric_subset(e)
    assert res.d_value == F(1, 5)
    assert res.center == F(3, 20)


def test_profile_matches_function():
    # dyadic endpoints are exact as floats, so both modes agree row for row
    rng = random.Random(7)
    cases = [[(F(0), F(1, 4)), (F(1, 2), F(3, 4))]]
    for _ in range(30):
        pts = sorted(F(rng.randint(0, 1024), 1024) for _ in range(2 * rng.randint(1, 5)))
        cases.append(list(zip(pts[0::2], pts[1::2])))
    for pairs in cases:
        for geometry in ("line", "circle"):
            e = IntervalSet.of(pairs, geometry)
            if not e.intervals:
                continue
            res = largest_symmetric_subset(e, include_profile=True)
            assert max(v for _, v in res.per_center_function) == res.d_value
            centers = [c for c, _ in res.per_center_function]
            assert centers == sorted(centers)
            floats = IntervalSet(tuple((float(a), float(b)) for a, b in e.intervals), geometry)
            fl = largest_symmetric_subset(floats, include_profile=True)
            assert (fl.d_value, fl.center) == (float(res.d_value), float(res.center))
            assert fl.per_center_function == tuple(
                (float(c), float(v)) for c, v in res.per_center_function)


def both_paths(e):
    """The sweep's rows and the grid path's rows for e, as (sigma, units) pairs."""
    scale, grid = intervals._on_grid(e.intervals)
    circle = e.geometry == "circle"
    sigmas, units = intervals._autoconvolution(scale, grid, circle)
    return scale, intervals._sweep(scale, grid, circle), list(zip(sigmas.tolist(),
                                                                  units.tolist()))


def assert_paths_agree(e):
    """Both paths give the same rows, and the public result is the sweep's, as Fractions."""
    scale, sweep, grid = both_paths(e)
    assert grid == sweep, e
    sigma, units = max(sweep, key=operator.itemgetter(1))
    res = largest_symmetric_subset(e, include_profile=True)
    assert res.d_value == F(units, scale) and res.center == F(sigma, 2 * scale), e
    assert res.per_center_function == tuple((F(s, 2 * scale), F(u, scale)) for s, u in sweep)


def grid_aligned(rng, k, scale, geometry):
    """Up to k intervals with endpoints on the grid of step 1/scale."""
    pts = sorted(rng.sample(range(scale + 1), min(2 * k, scale + 1) // 2 * 2))
    return IntervalSet.of([(F(a, scale), F(b, scale)) for a, b in zip(pts[0::2], pts[1::2])],
                          geometry)


def test_grid_path_matches_sweep_on_random_grid_sets():
    rng = random.Random(9)
    for _ in range(400):
        k = rng.randint(1, 12)
        scale = rng.randint(1, 8 * k * k)  # both sides of the line's 4k^2 rule
        for geometry in ("line", "circle"):
            assert_paths_agree(grid_aligned(rng, k, scale, geometry))
    for _ in range(50):  # touching intervals, which only the constructor admits
        scale = rng.randint(7, 60)
        pts = sorted(F(v, scale) for v in rng.sample(range(scale + 1), rng.randint(2, 8)))
        for geometry in ("line", "circle"):
            assert_paths_agree(IntervalSet(tuple(zip(pts, pts[1:])), geometry))


def test_grid_path_matches_sweep_on_acceptance_sets():
    # criterion 7's block pictures, on the line and on the circle
    for x, witness, _ in WITNESS_TABLE.values():
        picture = a_of_s(IntSet.of(witness), x)
        for geometry in ("line", "circle"):
            assert_paths_agree(IntervalSet(picture.intervals, geometry))
    # criterion 8's sets, rounded to the grid 4k^2 and to a finer one
    rng = np.random.default_rng(20240918)
    for _ in range(300):
        k = int(rng.integers(3, 6))
        pts = np.sort(rng.random(2 * k))
        for scale in (4 * k * k, 1009):
            pairs = [(F(round(a * scale), scale), F(round(b * scale), scale))
                     for a, b in zip(pts[0::2], pts[1::2])]
            for geometry in ("line", "circle"):
                e = IntervalSet.of(pairs, geometry)
                if e.intervals:
                    assert_paths_agree(e)


def test_grid_path_keeps_a_plateau_that_wraps_through_zero():
    # m_circle is maximal on a plateau through s = 0, which is no sum of two
    # endpoints; the smallest candidate on it is 2/73, a center of 1/73
    e = IntervalSet.of([(F(9, 73), F(15, 73)), (F(56, 73), F(66, 73))], "circle")
    res = largest_symmetric_subset(e)
    assert (res.d_value, res.center) == (F(12, 73), F(1, 73))
    scale, _, grid = both_paths(e)
    sigma, units = max(grid, key=operator.itemgetter(1))
    assert (F(units, scale), F(sigma, 2 * scale)) == (F(12, 73), F(1, 73))
    assert_paths_agree(e)


def test_cost_rule_picks_the_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong path")

    rng = random.Random(3)
    monkeypatch.setattr(intervals, "_sweep", refuse)
    largest_symmetric_subset(grid_aligned(rng, 10, 400, "line"))  # k = 10 at L = 4k^2
    largest_symmetric_subset(grid_aligned(rng, 10, 1600, "circle"))  # and at L = 16k^2
    largest_symmetric_subset(grid_aligned(rng, 8, 256, "line"))  # the least k, k = 8
    largest_symmetric_subset(grid_aligned(rng, 8, 1024, "circle"))
    monkeypatch.undo()
    monkeypatch.setattr(intervals, "_autoconvolution", refuse)
    fib = a_of_s(IntSet.of([1, 2, 3, 5, 8, 13]), 13)  # 4 intervals: too few for the grid
    assert largest_symmetric_subset(fib).d_value == F(3, 13)
    for e in (grid_aligned(rng, 10, 401, "line"), grid_aligned(rng, 10, 1601, "circle")):
        assert intervals._on_grid(e.intervals)[0] in (401, 1601)  # one past each bound
        largest_symmetric_subset(e)
    tiny = largest_symmetric_subset(IntervalSet.of([(0.0, 1e-300)]))
    assert (tiny.d_value, tiny.center) == (1e-300, 5e-301)
    huge = IntervalSet.of([(F(0), F(1, 3)), (F(1, 2), F(1000000006, 1000000007))])
    res = largest_symmetric_subset(huge, include_profile=True)
    assert (res.d_value, res.center) == (F(2, 3), F(5, 12))


def test_the_cost_rule_is_the_benchmarked_one():
    # on every row of BENCH_dee.json that times both paths, the path that
    # _grid_pays picks is at most 25% slower than the other one
    record = json.loads((Path(__file__).resolve().parent.parent / "BENCH_dee.json").read_text())
    for row in record["block_pictures"] + record["crossover"]:
        if row.get("grid_s") and row.get("sweep_s"):
            grid = intervals._grid_pays(row["L"], row["intervals"], row["geometry"] == "circle")
            picked, other = ("grid_s", "sweep_s") if grid else ("sweep_s", "grid_s")
            assert row[picked] <= 1.25 * row[other], row


def test_bench_dee_script_times_both_paths(monkeypatch):
    # scripts/bench_dee.py reads intervals' private _on_grid, _sweep,
    # _autoconvolution and _grid_pays, and the other bench scripts import
    # its helpers; a renamed name must fail here, not at the next
    # benchmark run.  Its first block picture takes the grid, and the
    # sweep agrees with it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    bench = importlib.import_module("bench_dee")
    row = bench.time_both(bench.runs_picture(random.Random(bench.SEED), 15), True)
    assert row["agree"] is True and row["path"] == "grid" and row["intervals"] == 15
    assert all(row[key] > 0 for key in ("grid_s", "sweep_s", "public_s"))


def test_bench_scripts_share_one_timing_method_and_one_record_header(monkeypatch):
    # every scripts/bench_*.py times its calls by bench_dee.rounds_of_seconds,
    # which runs odd rounds in reverse order, and opens its record with
    # bench_dee.provenance; every checked-in BENCH_*.json holds its keys
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "scripts"))
    bench = importlib.import_module("bench_dee")
    order = []
    times = bench.rounds_of_seconds([lambda i=i: order.append(i) for i in range(3)], 4)
    assert order == [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]
    assert len(times) == 4 and all(len(row) == 3 and min(row) > 0 for row in times)
    seconds, relative = bench.medians([[1.0, 2.0], [3.0, 3.0], [2.0, 8.0]])
    assert (seconds, relative) == ([2.0, 3.0], [1.0, 2.0])
    keys = set(bench.provenance())
    records = sorted(root.glob("BENCH_*.json"))
    assert len(records) >= 4
    for path in records:
        assert keys <= set(json.loads(path.read_text())["provenance"]), path.name


def test_delta_k_single_interval_is_exact():
    value, witness = delta_k_upper(1, 0.37)
    assert value == pytest.approx(0.37)
    assert witness.measure == pytest.approx(0.37)


def test_delta_k_needs_a_restart():
    for k in (1, 2):
        with pytest.raises(ValueError, match="restarts must be positive"):
            delta_k_upper(k, 0.5, restarts=0)


def test_delta_k_two_intervals_quick():
    value, witness = delta_k_upper(2, 0.75, restarts=25, seed=2)
    assert value == pytest.approx(0.5, abs=1e-3)
    assert largest_symmetric_subset(witness).d_value <= 0.5 + 1e-3
    assert witness.measure == pytest.approx(0.75, abs=1e-9)
