#!/usr/bin/env python3
"""Time one tail norm against T, Taylor against Euler-Maclaurin zeta, and sweep K and the block size.

    python3 scripts/bench_kernels.py [--out BENCH_kernels.json]

`kernels.tail_norm` sums the weighted period w(j) = |C(j)|^p zeta(2p, j/(4T))
for j = 1 .. 4T+1, which `PiecewiseLinearKernel._weights_at` evaluates
`_HURWITZ_BLOCK` values of j at a time, each zeta value as K =
`_TAYLOR_LEAD_TERMS` direct terms plus one Taylor polynomial of
zeta(s, K + a) (`kernels._taylor_block`).  This script keeps two
references:

- `euler_maclaurin_weights`, the evaluation before the polynomial: the same
  blocks, every zeta value by `kernels._euler_maclaurin_block` (ten direct
  terms and ten Bernoulli terms), about twelve powers per j in all;
- `full_array_weights`, the Taylor evaluation with each step over the
  whole 4T + 1 values, as if there were one block, and the entries past
  a = 5/4 by Euler-Maclaurin written out on its own; tests/test_kernels.py
  checks the blocked evaluation against it too.

For the K5 kernel at T = 10^4, 10^5 and 10^6 it records

- the seconds of one `tail_norm(kernel, 2, 4/3)` on the kernel's own and on
  the Euler-Maclaurin evaluation, the kernel's coefficients computed
  beforehand and its period sums emptied before each call; the weights
  over j = 1 .. 4T+1 of the two agree within 2e-15 relative, and the
  largest relative difference is recorded;
- the tracemalloc peak of one such call, also in units of 8 (4T + 1)
  bytes, the size of the weights array itself;

and asserts that the full-array weights and tail norm equal the blocked
ones bit for bit.

At T = 10^5 it then sweeps the number K of direct terms from 1 to 4 and
the block size from 2^11 to 2^17.  The calls run in alternating rounds,
one call per round on each side, and a time is the median over the
rounds.  A sweep ranks its values by the median of their `relative`
times, each call's seconds over the fastest call of its round, which the
load of a shared host, changing from one round to the next, moves less.
A sweep keeps the module's current value unless another value's rank
beats it by more than 5%, and then takes the best; so a rerun of
unchanged code records the same `lead_terms` and `block`, which
`_TAYLOR_LEAD_TERMS` and `_HURWITZ_BLOCK` should equal.  The block sweep
also records each size's tracemalloc peak and ranks only the sizes that
keep it within 1.5 weight arrays, the budget tests/test_kernels.py holds
one tail norm at T = 10^5 to.
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
SWEEP_LEAD_TERMS = (1, 2, 3, 4)
SWEEP_BLOCKS = tuple(1 << m for m in range(11, 18))
SWEEP_ROUNDS = 41
TIE = 1.05  # a sweep's current value stays unless another's rank is more than 5% better
AGREEMENT = 2e-15  # largest relative difference allowed against Euler-Maclaurin
PEAK_BUDGET = 1.5  # weight arrays, at T = SWEEP_T: larger blocks are not ranked


def euler_maclaurin_weights(kernel, p: float, start: int, count: int) -> np.ndarray:
    """The weights as evaluated before the Taylor polynomial: Euler-Maclaurin for every j."""
    s, scale, c = 2.0 * p, 4.0 * kernel.T, kernel.normalized_coefficients()
    coeffs = kernels._euler_maclaurin_coefficients(s)
    weights = np.empty(count)
    block = kernels._HURWITZ_BLOCK
    size = min(count, block)
    a, work = np.empty(size), np.empty((2, size))
    for lo in range(0, count, block):
        m = min(block, count - lo)
        j = np.arange(start + lo, start + lo + m)
        out = weights[lo:lo + m]
        kernels._euler_maclaurin_block(s, coeffs, np.divide(j, scale, out=a[:m]), out, work[:, :m])
        cp = np.take(c, j, mode="wrap", out=work[0, :m])
        out *= np.power(np.abs(cp, out=cp), p, out=cp)
    return weights


def full_array_euler_maclaurin(s: float, a: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(s, a) as it was evaluated before blocks: each step over all of a.

    It is written out here, not taken from kernels._euler_maclaurin_block,
    so that the blocked evaluation is checked against a separate statement
    of the same sequence of operations.
    """
    total = np.zeros_like(a)
    for k in range(kernels._HURWITZ_LEAD_TERMS):
        total += (k + a) ** (-s)
    coeffs = [b2j / math.factorial(2 * j) * math.prod(s + i for i in range(2 * j - 1))
              for j, b2j in enumerate(kernels._BERNOULLI_2J, start=1)]
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


def full_array_taylor(s: float, a: np.ndarray) -> np.ndarray:
    """The Taylor evaluation of kernels._taylor_block, each step over all of a."""
    coeffs = kernels._taylor_coefficients(s)
    total = np.full_like(a, coeffs[-1])
    u = kernels._TAYLOR_CENTER - a
    for c in reversed(coeffs[:-1]):
        total *= u
        total += c
    for k in range(kernels._TAYLOR_LEAD_TERMS - 1, 0, -1):
        total += (k + a) ** (-s)
    total += a ** (-s)
    return total


def full_array_hurwitz(s: float, a: np.ndarray) -> np.ndarray:
    """zeta(s, a) as _hurwitz_block evaluates it for s below the Taylor cap, each step over all of a."""
    near = a <= 2.0 * kernels._TAYLOR_CENTER
    total = np.empty_like(a)
    total[near] = full_array_taylor(s, a[near])
    total[~near] = full_array_euler_maclaurin(s, a[~near])
    return total


def full_array_weights(kernel, p: float, start: int, count: int) -> np.ndarray:
    js = np.arange(start, start + count)
    weights = full_array_hurwitz(2.0 * p, js / (4.0 * kernel.T))
    weights *= np.abs(np.take(kernel.normalized_coefficients(), js, mode="wrap")) ** p
    return weights


@contextlib.contextmanager
def evaluation(weights=None, block: int | None = None, lead_terms: int | None = None):
    """Make tail_norm evaluate its weights with `weights` in place of _weights_at,
    in blocks of `block`, or with `lead_terms` direct terms before the polynomial."""
    saved = kernels._HURWITZ_BLOCK, kernels._TAYLOR_LEAD_TERMS, PiecewiseLinearKernel._weights_at
    if block is not None:
        kernels._HURWITZ_BLOCK = block
    if lead_terms is not None:
        kernels._TAYLOR_LEAD_TERMS = lead_terms
    if weights is not None:
        PiecewiseLinearKernel._weights_at = weights
    try:
        yield
    finally:
        kernels._HURWITZ_BLOCK, kernels._TAYLOR_LEAD_TERMS, PiecewiseLinearKernel._weights_at = saved


def one_tail(kernel) -> float:
    kernel._sums.clear()
    return tail_norm(kernel, N, P).value


def check_full_array_identity(kernel) -> None:
    """Assert that the blocked and full-array forms give the same weights and tail norm, bit for bit."""
    count = 4 * kernel.T + 1
    blocked, weights = one_tail(kernel), kernel._weights_at(P, 1, count)
    with evaluation(weights=full_array_weights):
        if one_tail(kernel) != blocked or not np.array_equal(kernel._weights_at(P, 1, count), weights):
            raise AssertionError(f"the blocked weights differ from the full-array ones at T = {kernel.T}")


def euler_maclaurin_difference(kernel) -> float:
    """Largest relative difference of the weights from the Euler-Maclaurin ones, asserted <= AGREEMENT."""
    count = 4 * kernel.T + 1
    weights = kernel._weights_at(P, 1, count)
    reference = euler_maclaurin_weights(kernel, P, 1, count)
    nonzero = reference != 0.0
    if not np.array_equal(weights == 0.0, ~nonzero):
        raise AssertionError(f"the weights vanish at other j than Euler-Maclaurin's at T = {kernel.T}")
    worst = float(np.max(np.abs(weights[nonzero] / reference[nonzero] - 1.0)))
    if not worst <= AGREEMENT:
        raise AssertionError(f"the weights differ from Euler-Maclaurin's by {worst:.3g} at T = {kernel.T}")
    return worst


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


def sweep(kernel, key: str, values, context) -> list[dict]:
    """Median seconds and relative time of one tail norm under context(value), for each value."""
    times = rounds_of_seconds(kernel, [lambda v=v: context(v) for v in values], SWEEP_ROUNDS)
    relative = [[t / min(row) for t in row] for row in times]
    return [{key: v, "seconds": statistics.median(ts), "relative": statistics.median(rs)}
            for v, ts, rs in zip(values, zip(*times), zip(*relative))]


def keep_unless_beaten(rows: list[dict], key: str, current) -> object:
    """current, unless another value's relative time beats it by more than TIE, or it is not
    among rows; then the best."""
    best = min(rows, key=lambda row: row["relative"])
    mine = next((row for row in rows if row[key] == current), None)
    return current if mine and mine["relative"] <= TIE * best["relative"] else best[key]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    args = ap.parse_args()

    rows = []
    for T in SIZES:
        kernel = PiecewiseLinearKernel.from_family(FAMILY, T)
        kernel.normalized_coefficients()
        check_full_array_identity(kernel)
        difference = euler_maclaurin_difference(kernel)
        peak = peak_bytes(kernel)
        times = rounds_of_seconds(
            kernel, (lambda: evaluation(weights=euler_maclaurin_weights), evaluation), SIZE_ROUNDS[T])
        before_s, after_s = (statistics.median(ts) for ts in zip(*times))
        unit = 8 * (4 * T + 1)
        row = {"T": T, "euler_maclaurin_s": before_s, "taylor_s": after_s, "speedup": before_s / after_s,
               "taylor_peak_bytes": peak, "taylor_peak_units": peak / unit,
               "max_relative_difference": difference}
        rows.append(row)
        print(f"T={T:>8d} Euler-Maclaurin {before_s * 1e3:8.2f} ms   Taylor {after_s * 1e3:8.2f} ms "
              f"{peak / 1e6:7.2f} MB   x{row['speedup']:.2f}   max rel diff {difference:.2g}", flush=True)

    kernel = PiecewiseLinearKernel.from_family(FAMILY, SWEEP_T)
    kernel.normalized_coefficients()
    for lead_terms in SWEEP_LEAD_TERMS:
        with evaluation(lead_terms=lead_terms):
            euler_maclaurin_difference(kernel)
    lead_sweep = sweep(kernel, "lead_terms", SWEEP_LEAD_TERMS, lambda k: evaluation(lead_terms=k))
    for row in lead_sweep:
        with evaluation(lead_terms=row["lead_terms"]):
            row["taylor_terms"] = kernels._taylor_terms(2.0 * P)
        print(f"K={row['lead_terms']} ({row['taylor_terms']} Taylor terms) at T={SWEEP_T}: "
              f"{row['seconds'] * 1e3:7.2f} ms  x{row['relative']:.3f} of its round's fastest", flush=True)
    lead_terms = keep_unless_beaten(lead_sweep, "lead_terms", kernels._TAYLOR_LEAD_TERMS)

    reference = one_tail(kernel)
    for block in SWEEP_BLOCKS:
        with evaluation(block=block):
            if one_tail(kernel) != reference:
                raise AssertionError(f"block size {block} changes the tail norm")
    block_sweep = sweep(kernel, "block", SWEEP_BLOCKS, lambda b: evaluation(block=b))
    for row in block_sweep:
        with evaluation(block=row["block"]):
            row["peak_units"] = peak_bytes(kernel) / (8 * (4 * SWEEP_T + 1))
        print(f"block 2^{int(math.log2(row['block'])):2d} at T={SWEEP_T}: "
              f"{row['seconds'] * 1e3:7.2f} ms  x{row['relative']:.3f} of its round's fastest  "
              f"peak {row['peak_units']:.3f} weight arrays", flush=True)
    block = keep_unless_beaten([row for row in block_sweep if row["peak_units"] <= PEAK_BUDGET],
                               "block", kernels._HURWITZ_BLOCK)

    record = {
        "what": f"seconds and tracemalloc peak bytes of one tail_norm({FAMILY} kernel, {N}, 4/3), "
                "its zeta values from K direct terms and one Taylor polynomial against "
                "Euler-Maclaurin, and sweeps of K and of the block size at "
                f"T = {SWEEP_T}",
        "provenance": {"package_version": package_version(), "git_rev": git_rev(),
                       "python": platform.python_version(), "numpy": np.__version__,
                       "nproc": os.cpu_count()},
        "lead_terms": lead_terms,
        "taylor_lead_terms": kernels._TAYLOR_LEAD_TERMS,
        "taylor_interval": [0.0, 2.0 * kernels._TAYLOR_CENTER],
        "block": block,
        "hurwitz_block": kernels._HURWITZ_BLOCK,
        "sizes": rows,
        "lead_terms_sweep": lead_sweep,
        "sweep": block_sweep,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"lead_terms = {lead_terms}, kernels._TAYLOR_LEAD_TERMS = {kernels._TAYLOR_LEAD_TERMS}")
    print(f"block = {block}, kernels._HURWITZ_BLOCK = {kernels._HURWITZ_BLOCK}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
