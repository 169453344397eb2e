#!/usr/bin/env python3
"""Time representation_counts and max_rep against the transform size, on both FFT schedules.

    python3 scripts/bench_intsets.py [--out BENCH_intsets.json]

`intsets.representation_counts` computes a profile by one FFT
autoconvolution at a power-of-two size N.  From N = _FOUR_STEP_MIN on it
runs Bailey's four-step schedule (`_four_step`), below it one numpy
rfft/irfft pair (`_one_step`); either way the profile is rounded and
checked block by block.  `max_rep` of an integer set takes the same
blocks but keeps only their running maximum, no profile.  For N = 2^10
to 2^24 this script times both public calls on each schedule, by moving
`_FOUR_STEP_MIN` below or above N for the timing, checks that both
schedules return the same profile and maximum, records each call's
tracemalloc peak in units of 8N bytes (one float array of N entries),
and writes the record as JSON.  The set at each N is seeded: its largest
element is N/2 - 1, so N is the transform size, plus min(N/16, 10^4)
random elements below it (10^4 is the size of the `random-sets`
workload's integer sets, whose N is 2^21).

The four calls at one N run in ROUNDS alternating rounds
(`bench_dee.rounds_of_seconds`), and a time is the median over the
rounds.  The record's `crossover` is the least N from which the
four-step representation_counts is faster at every larger N;
`_FOUR_STEP_MIN` should equal it.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from bench_dee import medians, provenance, rounds_of_seconds, write_record  # noqa: E402

from bstar import intsets  # noqa: E402
from bstar.intsets import IntSet, max_rep, representation_counts  # noqa: E402

SEED = 23
LOG_SIZES = range(10, 25)
MAX_ELEMENTS = 10**4
ROUNDS = 21


@contextlib.contextmanager
def schedule(four_step: bool, size: int):
    """Make representation_counts take the given schedule at `size`."""
    saved = intsets._FOUR_STEP_MIN
    intsets._FOUR_STEP_MIN = size if four_step else 2 * size
    try:
        yield
    finally:
        intsets._FOUR_STEP_MIN = saved


def count(s: IntSet, four_step: bool, size: int, fn=representation_counts):
    """fn(s), of transform size `size`, on the given schedule."""
    with schedule(four_step, size):
        return fn(s)


def peak(s: IntSet, four_step: bool, size: int, fn) -> float:
    """The tracemalloc peak of one count, in units of 8N bytes."""
    tracemalloc.start()
    try:
        count(s, four_step, size, fn)
        return tracemalloc.get_traced_memory()[1] / (8 * size)
    finally:
        tracemalloc.stop()


# (record key, four-step schedule?, call); the keys name the times and the peaks
CALLS = (("one_step", False, representation_counts), ("four_step", True, representation_counts),
         ("max_rep_one_step", False, max_rep), ("max_rep_four_step", True, max_rep))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_intsets.json"))
    args = ap.parse_args()

    rng = np.random.default_rng(SEED)
    rows = []
    for log_size in LOG_SIZES:
        size = 1 << log_size
        top = size // 2 - 1
        k = min(size // 16, MAX_ELEMENTS)
        s = IntSet.of([top, *rng.choice(top, k - 1, replace=False).tolist()])
        profile = count(s, False, size)
        if not (np.array_equal(profile, count(s, True, size))
                and count(s, False, size, max_rep) == count(s, True, size, max_rep)
                == profile.max()):
            raise AssertionError(f"the schedules disagree at N = {size}")
        seconds, _ = medians(rounds_of_seconds(
            [lambda four=four, fn=fn: count(s, four, size, fn) for _, four, fn in CALLS], ROUNDS))
        row = {"N": size, "elements": len(s)}
        row.update((f"{key}_s", t) for (key, _, _), t in zip(CALLS, seconds))
        row["speedup"] = row["one_step_s"] / row["four_step_s"]
        row["max_rep_speedup"] = row["max_rep_one_step_s"] / row["max_rep_four_step_s"]
        row["peak_8N"] = {key: peak(s, four, size, fn) for key, four, fn in CALLS}
        rows.append(row)
        print(f"N=2^{log_size:2d} k={len(s):5d} counts: one step {row['one_step_s'] * 1e3:9.3f} ms "
              f"four step {row['four_step_s'] * 1e3:9.3f} ms x{row['speedup']:.2f}  max_rep: one "
              f"step {row['max_rep_one_step_s'] * 1e3:9.3f} ms four step "
              f"{row['max_rep_four_step_s'] * 1e3:9.3f} ms x{row['max_rep_speedup']:.2f}  peaks "
              + " ".join(f"{v:.2f}" for v in row["peak_8N"].values()), flush=True)

    crossover = rows[-1]["N"]
    for row in reversed(rows):
        if row["speedup"] <= 1:
            break
        crossover = row["N"]
    record = {
        "what": "median seconds per call over ROUNDS alternating rounds of representation_counts "
                "(one_step_s, four_step_s) and max_rep (max_rep_*) on a set of transform size N, "
                "with one rfft/irfft pair and with the four-step schedule, and each call's "
                "tracemalloc peak in units of 8N bytes (peak_8N)",
        "provenance": provenance(seed=SEED, rounds=ROUNDS),
        "crossover": crossover,
        "four_step_min": intsets._FOUR_STEP_MIN,
        "sizes": rows,
    }
    print(f"crossover N = {crossover}, intsets._FOUR_STEP_MIN = {intsets._FOUR_STEP_MIN}")
    write_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
