#!/usr/bin/env python3
"""Time exact D(E) against the number of intervals, on both of its paths.

    python3 scripts/bench_dee.py [--out BENCH_dee.json]

`largest_symmetric_subset` computes m at every sum of two endpoints either
by a breakpoint sweep, O(k^2 log k) for k intervals, or by one FFT
autoconvolution of the cells of the endpoints' grid of step 1/L,
O(L log L); `_grid_pays` picks one.  This script times
both paths (`_sweep` and `_autoconvolution` on the same grid) and the
public call on two families of seeded inputs, checks that the two paths
return the same rows, and writes the record as JSON:

- block pictures `a_of_s(S, n)` of random sets made of exactly k runs
  of consecutive elements, k = 15 to 1643, on the line (L = n, about 4k);
- the crossover grid: random sets of k intervals on the grid L, for L
  from 4k^2 / 64 to 64 * 4k^2 (up to L = 2^20), on the line and on the
  circle.

The calls on one input run in ROUNDS alternating rounds
(`rounds_of_seconds`), each round every call once, the order reversed
in every other round, so that the load of a shared host, which changes
from one round to the next, falls on every call alike; a time is the
median over the rounds.  The sweep holds its 4k^2 breakpoints as Python
tuples, about 100 bytes each, so it is only timed up to
SWEEP_MAX_INTERVALS intervals.

Its helpers `rounds_of_seconds`, `medians`, `provenance` and
`write_record` are the timing method and the record header of every
`scripts/bench_*.py`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bstar import intervals  # noqa: E402
from bstar.intsets import IntSet  # noqa: E402

SEED = 19
PICTURE_RUNS = (15, 25, 45, 109, 200, 424, 609, 1643)
CROSSOVER_K = (5, 8, 10, 15, 45, 135)
CROSSOVER_RATIOS = (1 / 64, 1 / 16, 1 / 4, 1, 4, 16, 64)  # L / (4 k^2)
MAX_L = 1 << 20  # keeps each FFT below 100 MB
SWEEP_MAX_INTERVALS = 609  # the sweep's tuples take about 150 MB here, 1 GB at 1643
ROUNDS = 21


def runs_picture(rng: random.Random, runs: int) -> intervals.IntervalSet:
    """a_of_s(S, n) for a random S in [1, n] made of exactly `runs` runs."""
    elements, pos = [], 0
    for _ in range(runs):
        pos += rng.randint(1, 3)  # a gap of at least one
        length = rng.randint(1, 3)
        elements.extend(range(pos, pos + length))
        pos += length
    return intervals.a_of_s(IntSet(tuple(elements)), pos + rng.randint(0, 3))


def grid_set(rng: random.Random, k: int, scale: int, geometry: str) -> intervals.IntervalSet:
    """k intervals with distinct endpoints on the grid of step 1/scale."""
    pts = sorted(rng.sample(range(scale + 1), 2 * k))
    return intervals.IntervalSet(
        tuple((Fraction(a, scale), Fraction(b, scale)) for a, b in zip(pts[0::2], pts[1::2])),
        geometry)


def time_both(e: intervals.IntervalSet, with_sweep: bool) -> dict:
    """Median seconds of the grid path, the public call and, when with_sweep, the sweep on e,
    all three timed in the same rounds."""
    scale, grid = intervals._on_grid(e.intervals)
    circle = e.geometry == "circle"
    sigmas, units = intervals._autoconvolution(scale, grid, circle)
    calls, agree = [lambda: intervals._autoconvolution(scale, grid, circle),
                    lambda: intervals.largest_symmetric_subset(e)], None
    if with_sweep:
        agree = intervals._sweep(scale, grid, circle) == list(zip(sigmas.tolist(), units.tolist()))
        if not agree:
            raise AssertionError(f"the paths disagree on {len(e.intervals)} intervals, L = {scale}")
        calls.append(lambda: intervals._sweep(scale, grid, circle))
    grid_s, public_s, *sweep_s = medians(rounds_of_seconds(calls, ROUNDS))[0]
    return {"intervals": len(e.intervals), "L": scale, "geometry": e.geometry,
            "path": "grid" if intervals._grid_pays(scale, len(e.intervals), circle) else "sweep",
            "grid_s": grid_s, "sweep_s": (sweep_s or [None])[0], "agree": agree, "public_s": public_s}


def git_rev() -> str:
    """HEAD's commit, with a -dirty suffix when the checkout has changes."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def package_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("bstar")
    except metadata.PackageNotFoundError:
        for line in (ROOT / "pyproject.toml").read_text().splitlines():
            if line.startswith("version"):
                return line.split("=", 1)[1].strip().strip('"')
    return "unknown"


def rounds_of_seconds(calls, rounds: int) -> list[list[float]]:
    """Seconds of each call in each round; odd rounds run the calls in reverse order."""
    times = []
    for r in range(rounds):
        row = [0.0] * len(calls)
        order = range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))
        for i in order:
            t0 = time.perf_counter()
            calls[i]()
            row[i] = time.perf_counter() - t0
        times.append(row)
    return times


def medians(times: list[list[float]]) -> tuple[list[float], list[float]]:
    """Each call's median seconds over the rounds of rounds_of_seconds, and its median relative
    time: its seconds over the fastest call of the round, which the load of a shared host,
    changing from one round to the next, moves less."""
    relative = [[t / min(row) for t in row] for row in times]
    return ([statistics.median(ts) for ts in zip(*times)],
            [statistics.median(rs) for rs in zip(*relative)])


def provenance(**extra) -> dict:
    """The provenance of a BENCH_*.json record: the package, commit, Python, numpy and core
    count, then the script's own settings in extra."""
    return {"package_version": package_version(), "git_rev": git_rev(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), **extra}


def write_record(path, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


def show(row: dict) -> None:
    sweep = f"{row['sweep_s'] * 1e3:10.3f}" if row["sweep_s"] is not None else "         -"
    print(f"{row['geometry']:6s} k={row['intervals']:5d} L={row['L']:8d} {row['path']:5s} "
          f"grid {row['grid_s'] * 1e3:8.3f} ms  sweep {sweep} ms  "
          f"public {row['public_s'] * 1e3:8.3f} ms", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_dee.json"))
    args = ap.parse_args()

    rng = random.Random(SEED)
    pictures = []
    for runs in PICTURE_RUNS:
        row = time_both(runs_picture(rng, runs), runs <= SWEEP_MAX_INTERVALS)
        pictures.append(row)
        show(row)
    crossover = []
    for k in CROSSOVER_K:
        scales = {max(2 * k, round(ratio * 4 * k * k)) for ratio in CROSSOVER_RATIOS}
        for scale in sorted(x for x in scales if x <= MAX_L):
            for geometry in ("line", "circle"):
                row = time_both(grid_set(rng, k, scale, geometry),
                                k <= SWEEP_MAX_INTERVALS)
                row["ratio_to_4k2"] = scale / (4 * k * k)
                crossover.append(row)
                show(row)

    record = {
        "what": "median seconds per call over ROUNDS alternating rounds of exact D(E): the grid "
                "path (_autoconvolution), the sweep (_sweep) and largest_symmetric_subset, which "
                "picks one",
        "provenance": provenance(seed=SEED, sweep_max_intervals=SWEEP_MAX_INTERVALS, rounds=ROUNDS),
        "block_pictures": pictures,
        "crossover": crossover,
    }
    write_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
