#!/usr/bin/env python3
"""Time the min-n search layer: decision nodes and nodes/s, and table totals.

    python3 scripts/bench_search.py [--out BENCH_search.json]

A node is one candidate tried, on either path and in every engine, so
nodes/s compares paths and engines as well as questions.  This script
decides fixed questions (kind, g, n, k), all infeasible, serially; the
engine named is the one the compiled core takes:

- modular (2, 47, 7), (2, 72, 9), (3, 53, 9) and (5, 27, 10), modular
  mask engine; (5, 27, 10) is the infeasible n just below C(5, 10) = 28;
- integer (4, 21, 10) and (3, 45, 10), integer counting engine;
- integer (2, 55, 10), bitmask engine.

It also streams the tables `bstar table --which R --max-k 10 --g-max 7`
and `--which C --max-k 9 --g-max 6` through `table_rows`.  Each
decision and each table runs on both paths of `search._branch`: the
compiled core and `search._decide`, the one Python loop for every
question (the core's handle set to None).
Where the core cannot be built, the record says so and holds the
Python path alone.  All calls run in ROUNDS alternating rounds
(`bench_dee.rounds_of_seconds`), each round every call once, the order
reversed in every other round, so that the load of a shared host, which
changes from one round to the next, falls on every call alike.  A
call's `seconds` is the median over the rounds, and a decision's
`relative` time, by which the record ranks them as `bench_kernels.py`
ranks its sweeps, is the median of its seconds over the fastest
decision on the same path in each round.  Every round and both paths
must give the same witness and nodes, and for a table the same cells
and node total.  The script writes the record as JSON.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_dee import medians, provenance, rounds_of_seconds, write_record  # noqa: E402

from bstar import _corelib, search  # noqa: E402

DECISIONS = (("modular", 2, 47, 7), ("modular", 2, 72, 9), ("modular", 3, 53, 9),
             ("modular", 5, 27, 10),
             ("integer", 4, 21, 10), ("integer", 3, 45, 10), ("integer", 2, 55, 10))
TABLES = (("R", "integer", 10, 7), ("C", "modular", 9, 6))  # which, kind, max k, max g
ROUNDS = 5


def decide(case):
    dec = search.exists_set(*case)
    return (dec.witness.elements if dec.feasible else None), dec.nodes


def engine(case) -> str:
    """The core's engine for case; the Python path answers every case with _decide."""
    kind, g = case[:2]
    if kind == "modular":
        return "modular mask"
    return "integer counting" if g > 2 else "bitmask"


def table(kind: str, max_k: int, g_max: int):
    """(the cells (g, k, min n), nodes) of one min-n table, streamed through table_rows."""
    rows = list(search.table_rows(kind, 2, g_max, max_k))
    return [(g, k, res.min_n) for g, k, res in rows], sum(res.nodes_explored for _, _, res in rows)


def run_on(core, work, *args):
    """work(*args) on core, a loaded _corelib.Core, or on _decide (None)."""
    saved = search._core
    search._core = core
    try:
        return work(*args)
    finally:
        search._core = saved


def timed_rounds(calls, groups=None) -> list[dict]:
    """Witness, nodes and seconds of each call over ROUNDS alternating rounds; every round must
    give each call's first answer.  A call's relative time is taken against the fastest call
    of its group (groups[i], one group by default) in each round."""
    answers = [[] for _ in calls]
    times = rounds_of_seconds([lambda i=i: answers[i].append(calls[i]()) for i in range(len(calls))],
                              ROUNDS)
    groups = groups or [None] * len(calls)
    relative = [0.0] * len(calls)
    for group in set(groups):
        members = [i for i, label in enumerate(groups) if label == group]
        for i, value in zip(members, medians([[row[i] for i in members] for row in times])[1]):
            relative[i] = value
    rows = []
    for i, (mine, ts, seconds) in enumerate(zip(answers, zip(*times), medians(times)[0])):
        if any(answer != mine[0] for answer in mine):
            raise AssertionError(f"call {i} answered {mine[1:]} after {mine[0]}")
        witness, nodes = mine[0]
        rows.append({"witness": None if witness is None else list(witness), "nodes": nodes,
                     "seconds": seconds, "nodes_per_s": nodes / seconds,
                     "relative": relative[i], "runs_s": list(ts)})
    return rows


def on_both_paths(paths, rows) -> dict:
    """One record entry from the rows of the same call on each path: the answer, which both
    paths must give, each path's timing, and the Python path's seconds over the core's."""
    first = rows[0]
    for path, row in zip(paths, rows):
        if (row["witness"], row["nodes"]) != (first["witness"], first["nodes"]):
            raise AssertionError(f"the {path} path answered {row['witness']}, {row['nodes']} "
                                 f"where the {paths[0]} path answered {first['witness']}, "
                                 f"{first['nodes']}")
    entry = {"witness": first["witness"], "nodes": first["nodes"]}
    for path in ("core", "python"):
        row = rows[paths.index(path)] if path in paths else None
        entry[path] = None if row is None else {
            key: row[key] for key in ("seconds", "nodes_per_s", "relative", "runs_s")}
    entry["python_over_core"] = (entry["python"]["seconds"] / entry["core"]["seconds"]
                                 if entry["core"] else None)
    return entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_search.json"))
    args = ap.parse_args()

    core = _corelib.load()
    handles = {"core": core, "python": None} if core is not None else {"python": None}
    paths = list(handles)
    print(f"paths: {', '.join(paths)}", flush=True)

    calls = ([functools.partial(run_on, handles[path], decide, case)
              for case in DECISIONS for path in paths] +
             [functools.partial(run_on, handles[path], table, *t[1:])
              for t in TABLES for path in paths])
    groups = [path for _ in DECISIONS for path in paths] + [None] * (len(TABLES) * len(paths))
    rows = timed_rounds(calls, groups)
    per_call = [on_both_paths(paths, rows[i:i + len(paths)]) for i in range(0, len(rows), len(paths))]

    decisions = [{"case": list(case), "engine": engine(case), **entry}
                 for case, entry in zip(DECISIONS, per_call)]
    for row in decisions:
        times = "  ".join(f"{path} {row[path]['seconds']:8.4f} s {row[path]['nodes_per_s']:11.0f} "
                          f"nodes/s" for path in paths)
        factor = f"  x{row['python_over_core']:.1f}" if row["python_over_core"] else ""
        print(f"{row['engine']:16s} {tuple(row['case'])}: {row['nodes']:9d} nodes  {times}{factor}",
              flush=True)

    tables = []
    for (which, _, max_k, g_max), entry in zip(TABLES, per_call[len(DECISIONS):]):
        cells = entry.pop("witness")  # a table call answers with its cells
        for path in paths:  # tables are not ranked
            del entry[path]["relative"]
        tables.append({"which": which, "max_k": max_k, "g_max": g_max, "rows": len(cells), **entry})
        times = "  ".join(f"{path} {entry[path]['seconds']:.3f} s" for path in paths)
        print(f"table {which} --max-k {max_k} --g-max {g_max}: {len(cells)} rows "
              f"{entry['nodes']} nodes  {times}", flush=True)

    record = {
        "what": "serial exists_set decisions at fixed (kind, g, n, k) and the R and C min-n "
                "tables, each on the compiled core and on search._decide: nodes, the "
                "median seconds over ROUNDS alternating rounds, the median time relative to "
                "each round's fastest decision on the same path, and the Python path's seconds "
                "over the core's",
        "provenance": provenance(rounds=ROUNDS),
        "paths": paths,
        "decisions": decisions,
        "tables": tables,
    }
    write_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
