#!/usr/bin/env python3
"""Time one tail norm against T, blocked and full-array, and sweep the block size.

    python3 scripts/bench_kernels.py [--out BENCH_kernels.json]

`kernels.tail_norm` sums the weighted period w(j) = |C(j)|^p zeta(2p, j/(4T))
for j = 1 .. 4T+1, which `PiecewiseLinearKernel._weights_at` evaluates
`_HURWITZ_BLOCK` values of j at a time.  This script keeps the full-array
evaluation that came before the blocks (`full_array_weights`: one
4T-long array per step) as the reference, and for the K5 kernel at
T = 10^4, 10^5 and 10^6 records

- the seconds of one `tail_norm(kernel, 2, 4/3)` on each evaluation, the
  kernel's coefficients computed beforehand and its period sums emptied
  before each call, with the two results and the weights over
  j = 1 .. 4T+1 asserted equal bit for bit;
- the tracemalloc peak of one such call, also in units of 8 (4T + 1)
  bytes, the size of the weights array itself.

At T = 10^5 it then sweeps the block size from 2^11 to 2^17.  The calls
run in alternating rounds, one call per round on each side, and a time
is the median over the rounds.  The sweep ranks the sizes by the median
of their `relative` times, each call's seconds over the fastest call of
its round, which the load of a shared host, changing from one round to
the next, moves less.  The record's `block` is the least block size
within 5% of the best rank: larger blocks cost more memory, and the
sweep is flat near its minimum.  `_HURWITZ_BLOCK` should equal it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from bench_dee import git_rev, package_version  # noqa: E402

from bstar import kernels  # noqa: E402
from bstar.kernels import PiecewiseLinearKernel, tail_norm  # noqa: E402

FAMILY, N, P = "K5", 2, 4.0 / 3.0  # the certificate's tail lnorm_{2,4/3}
SIZES = (10**4, 10**5, 10**6)
SIZE_ROUNDS = {10**4: 41, 10**5: 15, 10**6: 5}
SWEEP_T = 10**5
SWEEP_BLOCKS = tuple(1 << m for m in range(11, 18))
SWEEP_ROUNDS = 41
TIE = 1.05  # block sizes within 5% of the best rank count as equally fast


def full_array_hurwitz(s: float, a: np.ndarray) -> np.ndarray:
    """The evaluation before blocking: each step over the whole vector."""
    total = np.zeros_like(a)
    for k in range(kernels._HURWITZ_LEAD_TERMS):
        total += (k + a) ** (-s)
    coeffs = kernels._euler_maclaurin_coefficients(s)
    na = a + float(kernels._HURWITZ_LEAD_TERMS)
    x = np.reciprocal(na)
    x *= x
    tail = np.full_like(a, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        tail *= x
        tail += c
    u = np.power(na, -s, out=x)
    tail /= na
    tail += 0.5
    na /= s - 1.0
    tail += na
    tail *= u
    total += tail
    return total


def full_array_weights(kernel, p: float, start: int, count: int) -> np.ndarray:
    js = np.arange(start, start + count)
    weights = full_array_hurwitz(2.0 * p, js / (4.0 * kernel.T))
    weights *= np.abs(np.take(kernel.normalized_coefficients(), js, mode="wrap")) ** p
    return weights


@contextlib.contextmanager
def evaluation(full_array: bool = False, block: int | None = None):
    """Make tail_norm evaluate its weights full-array, or in blocks of `block`."""
    saved = kernels._HURWITZ_BLOCK, PiecewiseLinearKernel._weights_at
    if block is not None:
        kernels._HURWITZ_BLOCK = block
    if full_array:
        PiecewiseLinearKernel._weights_at = full_array_weights
    try:
        yield
    finally:
        kernels._HURWITZ_BLOCK, PiecewiseLinearKernel._weights_at = saved


def one_tail(kernel) -> float:
    kernel._sums.clear()
    return tail_norm(kernel, N, P).value


def check_full_array_identity(kernel) -> None:
    """Assert that both evaluations give the same weights and tail norm, bit for bit."""
    count = 4 * kernel.T + 1
    blocked, weights = one_tail(kernel), kernel._weights_at(P, 1, count)
    with evaluation(full_array=True):
        if one_tail(kernel) != blocked or not np.array_equal(kernel._weights_at(P, 1, count), weights):
            raise AssertionError(f"the blocked weights differ from the full-array ones at T = {kernel.T}")


def rounds_of_seconds(kernel, contexts, rounds: int) -> list[list[float]]:
    """Seconds of one tail norm in each round, under each context in turn."""
    times = []
    for _ in range(rounds):
        row = []
        for ctx in contexts:
            with ctx():
                t0 = time.perf_counter()
                one_tail(kernel)
                row.append(time.perf_counter() - t0)
        times.append(row)
    return times


def peak_bytes(kernel) -> int:
    kernel._sums.clear()
    tracemalloc.start()
    try:
        tail_norm(kernel, N, P)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = ap.parse_args()

    rows = []
    for T in SIZES:
        kernel = PiecewiseLinearKernel.from_family(FAMILY, T)
        kernel.normalized_coefficients()
        check_full_array_identity(kernel)
        with evaluation(full_array=True):
            full_peak = peak_bytes(kernel)
        peak = peak_bytes(kernel)
        times = rounds_of_seconds(kernel, (lambda: evaluation(full_array=True), evaluation),
                                  SIZE_ROUNDS[T])
        full_s, blocked_s = (statistics.median(ts) for ts in zip(*times))
        unit = 8 * (4 * T + 1)
        row = {"T": T, "full_array_s": full_s, "blocked_s": blocked_s, "speedup": full_s / blocked_s,
               "full_array_peak_bytes": full_peak, "blocked_peak_bytes": peak,
               "full_array_peak_units": full_peak / unit, "blocked_peak_units": peak / unit}
        rows.append(row)
        print(f"T={T:>8d} full array {full_s * 1e3:8.2f} ms {full_peak / 1e6:7.2f} MB   "
              f"blocked {blocked_s * 1e3:8.2f} ms {peak / 1e6:7.2f} MB   x{row['speedup']:.2f}",
              flush=True)

    kernel = PiecewiseLinearKernel.from_family(FAMILY, SWEEP_T)
    kernel.normalized_coefficients()
    reference = one_tail(kernel)
    for block in SWEEP_BLOCKS:
        with evaluation(block=block):
            if one_tail(kernel) != reference:
                raise AssertionError(f"block size {block} changes the tail norm")
    contexts = [lambda b=b: evaluation(block=b) for b in SWEEP_BLOCKS]
    times = rounds_of_seconds(kernel, contexts, SWEEP_ROUNDS)
    relative = [[t / min(row) for t in row] for row in times]
    sweep = [{"block": b, "seconds": statistics.median(ts), "relative": statistics.median(rs)}
             for b, ts, rs in zip(SWEEP_BLOCKS, zip(*times), zip(*relative))]
    for row in sweep:
        print(f"block 2^{int(math.log2(row['block'])):2d} at T={SWEEP_T}: "
              f"{row['seconds'] * 1e3:7.2f} ms  x{row['relative']:.3f} of its round's fastest",
              flush=True)
    best = min(row["relative"] for row in sweep)
    block = next(row["block"] for row in sweep if row["relative"] <= TIE * best)

    record = {
        "what": f"seconds and tracemalloc peak bytes of one tail_norm({FAMILY} kernel, {N}, 4/3), "
                "its weights evaluated in blocks of _HURWITZ_BLOCK values and full-array, "
                f"and a sweep of the block size at T = {SWEEP_T}",
        "provenance": {"package_version": package_version(), "git_rev": git_rev(),
                       "python": platform.python_version(), "numpy": np.__version__,
                       "nproc": os.cpu_count()},
        "block": block,
        "hurwitz_block": kernels._HURWITZ_BLOCK,
        "sizes": rows,
        "sweep": sweep,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"block = {block}, kernels._HURWITZ_BLOCK = {kernels._HURWITZ_BLOCK}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
