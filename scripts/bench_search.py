#!/usr/bin/env python3
"""Time the min-n search layer: decision nodes and nodes/s, and table totals.

    python3 scripts/bench_search.py [--out BENCH_search.json]

A node is one candidate tried, in every engine, so nodes/s compares
engines as well as questions.  This script decides fixed questions
(kind, g, n, k), all infeasible, serially:

- modular (2, 47, 7), (2, 72, 9), (3, 53, 9) and (5, 27, 10), modular
  mask engine; (5, 27, 10) is the infeasible n just below C(5, 10) = 28;
- integer (4, 21, 10) and (3, 45, 10), integer counting engine;
- integer (2, 55, 10), bitmask engine.

It also streams the tables `bstar table --which R --max-k 10 --g-max 7`
and `--which C --max-k 9 --g-max 6` through `table_rows`.  The
decisions and the two tables run in ROUNDS alternating rounds
(`bench_dee.rounds_of_seconds`), each round every call once, the order
reversed in every other round, so that the load of a shared host, which
changes from one round to the next, falls on every call alike.  A
call's `seconds` is the median over the rounds, and a decision's
`relative` time, by which the record ranks them as `bench_kernels.py`
ranks its sweeps, is the median of its seconds over the fastest
decision of each round.  Every round must give the same witness and
nodes, and for a table the same cells and node total.  The script
writes the record as JSON.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_dee import medians, provenance, rounds_of_seconds, write_record  # noqa: E402

from bstar import search  # noqa: E402

DECISIONS = (("modular", 2, 47, 7), ("modular", 2, 72, 9), ("modular", 3, 53, 9),
             ("modular", 5, 27, 10),
             ("integer", 4, 21, 10), ("integer", 3, 45, 10), ("integer", 2, 55, 10))
TABLES = (("R", "integer", 10, 7), ("C", "modular", 9, 6))  # which, kind, max k, max g
ROUNDS = 5


def decide(case):
    dec = search.exists_set(*case)
    return (dec.witness.elements if dec.feasible else None), dec.nodes


def engine(case) -> str:
    """The engine that exists_set takes for case."""
    kind, g = case[:2]
    if kind == "modular":
        return "modular mask"
    return "integer counting" if g > 2 else "bitmask"


def table(kind: str, max_k: int, g_max: int):
    """(the cells (g, k, min n), nodes) of one min-n table, streamed through table_rows."""
    rows = list(search.table_rows(kind, 2, g_max, max_k))
    return [(g, k, res.min_n) for g, k, res in rows], sum(res.nodes_explored for _, _, res in rows)


def timed_rounds(calls) -> list[dict]:
    """Witness, nodes and seconds of each call over ROUNDS alternating rounds; every round must
    give each call's first answer."""
    answers = [[] for _ in calls]
    times = rounds_of_seconds([lambda i=i: answers[i].append(calls[i]()) for i in range(len(calls))],
                              ROUNDS)
    rows = []
    for i, (mine, ts, seconds, relative) in enumerate(zip(answers, zip(*times), *medians(times))):
        if any(answer != mine[0] for answer in mine):
            raise AssertionError(f"call {i} answered {mine[1:]} after {mine[0]}")
        witness, nodes = mine[0]
        rows.append({"witness": None if witness is None else list(witness), "nodes": nodes,
                     "seconds": seconds, "nodes_per_s": nodes / seconds,
                     "relative": relative, "runs_s": list(ts)})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_search.json"))
    args = ap.parse_args()

    rows = timed_rounds([lambda case=case: decide(case) for case in DECISIONS] +
                        [lambda t=t: table(*t[1:]) for t in TABLES])
    decisions = [{"case": list(case), "engine": engine(case), **row}
                 for case, row in zip(DECISIONS, rows)]
    for row in decisions:
        print(f"{row['engine']:16s} {tuple(row['case'])}: {row['nodes']:9d} nodes {row['seconds']:7.3f} s "
              f"{row['nodes_per_s']:10.0f} nodes/s  x{row['relative']:.1f} of its round's fastest",
              flush=True)

    tables = []
    for (which, _, max_k, g_max), row in zip(TABLES, rows[len(DECISIONS):]):
        cells = row["witness"]  # a table call answers with its cells
        tables.append({"which": which, "max_k": max_k, "g_max": g_max, "rows": len(cells),
                       **{key: row[key] for key in ("nodes", "seconds", "nodes_per_s", "runs_s")}})
        print(f"table {which} --max-k {max_k} --g-max {g_max}: {len(cells)} rows "
              f"{row['nodes']} nodes {row['seconds']:.1f} s", flush=True)

    record = {
        "what": "serial exists_set decisions at fixed (kind, g, n, k), nodes, the median "
                "seconds over ROUNDS alternating rounds and the median time relative to each "
                "round's fastest decision, and the node totals and median seconds of the R and "
                "C min-n tables, timed in the same rounds",
        "provenance": provenance(rounds=ROUNDS),
        "decisions": decisions,
        "tables": tables,
    }
    write_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
