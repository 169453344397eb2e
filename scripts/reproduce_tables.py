#!/usr/bin/env python3
"""Recompute the min-n tables for B*[g] sets and stream them as CSV.

The rows are those of `bstar table`, plus each row's node count and
seconds.  The seconds are the wall time since the previous row, so when
a g stops at a k with no witness in range, that last search is counted
in the next g's first row.

Examples:
    python scripts/reproduce_tables.py --which R --max-k 10 --g-max 7
    python scripts/reproduce_tables.py --which C --max-k 9 --g-max 6 --out c_table.csv
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bstar.search import table_rows  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--which", choices=["C", "R"], required=True,
                    help="C: modular min-n table, R: integer min-n table")
    ap.add_argument("--max-k", type=int, default=9)
    ap.add_argument("--g-min", type=int, default=2)
    ap.add_argument("--g-max", type=int, default=6)
    ap.add_argument("--out", default=None, help="also write the rows to this file")
    args = ap.parse_args()

    kind = "modular" if args.which == "C" else "integer"
    sink = open(args.out, "w") if args.out else None
    header = "kind,g,k,min_n,exhaustive,witness,nodes,seconds"
    print(header)
    if sink:
        sink.write(header + "\n")
    t0 = time.time()
    for g, k, res in table_rows(kind, args.g_min, args.g_max, args.max_k):
        row = ",".join([
            kind, str(g), str(k), str(res.min_n), str(res.exhaustive),
            " ".join(map(str, res.witness.elements)),
            str(res.nodes_explored), f"{time.time() - t0:.2f}",
        ])
        print(row, flush=True)
        if sink:
            sink.write(row + "\n")
            sink.flush()
        t0 = time.time()
    if sink:
        sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
