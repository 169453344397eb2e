#!/usr/bin/env python3
"""Time the kernel's coefficient transforms and folded sums against their references, and sweep the block size.

    python3 scripts/bench_kernels.py [--out BENCH_kernels.json]

`kernels.tail_norm` reads the sums S_n = sum over i >= n of |C(i)/c|^p
(i/(4T))^-2p, n = 1 and 2, of one kernel, c the power of two that scales
its largest |C| into [1/2, 1).  `PiecewiseLinearKernel` takes C(j) for
j = 0..2T from the T + 1 edge samples, the even j by one real FFT of
length 2T and the odd j by one real inverse FFT of length T, and folds
the period at j <-> 4T - j: `_folded_weights` gives each pair one
|C/c|^p, two direct powers and one even zeta polynomial,
`_HURWITZ_BLOCK` values of j at a time.  This script keeps the
references, written out as before the split and the fold:

- `reference_coefficients`, C(j) for j = 0..2T as the real part of one
  real FFT of the edge signal zero-padded to length 4T;
- `full_period_coefficients`, C(j) for j = 0..4T-1, the kernel's half
  spectrum mirrored into one period;
- `full_period_weights`, |C(j mod 4T)/c|^p zeta(2p, j/(4T)) for j = n ..
  n+4T-1, every zeta value by Euler-Maclaurin (`full_array_euler_maclaurin`,
  ten direct and ten Bernoulli terms), each step over the whole period.
  Its sum is S_n; tests/test_kernels.py checks the folded sums against its
  `math.fsum`.

For the K5 kernel at T = 10^4, 10^5 and 10^6 it records

- `fft`: seconds of `_half_period_coefficients`, the kernel's two
  half-length transforms (`split_s`), against the 4T reference
  (`reference_s`); the tracemalloc peak of each, also in units of
  8 (2T + 1) bytes, the size of the kernel's coefficient array; and
  the largest difference of the two, in units of 2^-53 sum |e| log2(4T)
  over the edge samples e, asserted within FFT_AGREEMENT;
- `sums`: seconds of one `tail_norm(kernel, 2, 4/3)` (S_1 and S_2 from one
  folded evaluation, `folded_s`), the coefficients computed with the kernel
  and the sums emptied before each call, against `np.sum` of the
  reference weights of the same two periods (`reference_s`); the largest relative difference of the folded
  S_1 and S_2 from the `math.fsum` of the reference, asserted within
  AGREEMENT;
- the tracemalloc peak of one such call, also in units of 8 (4T + 1)
  bytes, the size of the full-period weights array;
- the minor page faults of a fresh kernel's first tail norms and
  certificate (`resource.getrusage` of this process), the work of one
  `spectral` question.

Each pair runs in alternating rounds, one call per round on each side
and the side that goes first alternating, and a time is the median over
the rounds.  At T = 10^5 it then sweeps the block size from 2^11 to
2^17 in the same way, ranks the sizes by the median of their `relative`
times, each call's seconds over the fastest call of its round, which the
load of a shared host, changing from one round to the next, moves less,
and keeps the module's current size unless another's rank beats it by
more than 5%; so a rerun of unchanged code records the same `block`,
which `_HURWITZ_BLOCK` should equal.  The sweep also records each size's
tracemalloc peak and ranks only the sizes that keep it within 1.5
weight arrays, the budget tests/test_kernels.py holds one tail norm at
T = 10^5 to.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from bench_dee import medians, provenance, rounds_of_seconds, write_record  # noqa: E402

from bstar import kernels  # noqa: E402
from bstar.kernels import BoundCertificate, PiecewiseLinearKernel, tail_norm  # noqa: E402

FAMILY, N, P = "K5", 2, 4.0 / 3.0  # the certificate's tail lnorm_{2,4/3}
SIZES = (10**4, 10**5, 10**6)
SIZE_ROUNDS = {10**4: 41, 10**5: 15, 10**6: 5}
SWEEP_T = 10**5
SWEEP_BLOCKS = tuple(1 << m for m in range(11, 18))
SWEEP_ROUNDS = 41
TIE = 1.05  # the current block stays unless another's rank is more than 5% better
AGREEMENT = 1e-15  # largest relative difference of a folded sum from the reference's fsum
FFT_AGREEMENT = 4.0  # largest difference of the two transforms, in units of 2^-53 sum |e| log2(4T)
PEAK_BUDGET = 1.5  # weight arrays, at T = SWEEP_T: larger blocks are not ranked


def full_array_euler_maclaurin(s: float, a: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin zeta(s, a), each step over all of a.

    It is written out here, not taken from kernels._euler_maclaurin,
    so that the kernel is checked against a separate statement of the
    zeta values.
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


def full_period_coefficients(kernel) -> np.ndarray:
    """C(j) for one period, j = 0..4T-1: the kernel's half spectrum and its mirror C(4T - j) = C(j)."""
    half = kernel.normalized_coefficients()
    return np.concatenate([half, half[-2:0:-1]])


def full_period_weights(kernel, p: float, start: int, count: int | None = None) -> np.ndarray:
    """|C(j mod 4T)|^p zeta(2p, j/(4T)) for j = start .. start+count-1; over one period,
    the default count, their sum is S_start."""
    js = np.arange(start, start + (4 * kernel.T if count is None else count))
    weights = full_array_euler_maclaurin(2.0 * p, js / (4.0 * kernel.T))
    weights *= np.abs(np.take(full_period_coefficients(kernel), js, mode="wrap") / kernel._scale) ** p
    return weights


def reference_sum(kernel, p: float, start: int) -> float:
    return math.fsum(full_period_weights(kernel, p, start))


def edge_samples(kernel) -> np.ndarray:
    """e[m] = d[m-1] - d[m] for m = 0..T, d = diff(y) and zero outside its range."""
    d = np.diff(kernel.y)
    return np.r_[0.0, d] - np.r_[d, 0.0]


def reference_coefficients(kernel) -> np.ndarray:
    """C(j) for j = 0..2T as before the split: the real part of one real FFT of the
    edge samples at T..2T of a zero signal of length 4T."""
    T = kernel.T
    edge = np.zeros(4 * T)
    edge[T:2 * T + 1] = edge_samples(kernel)
    return np.fft.rfft(edge).real.copy()


def fft_difference(kernel) -> float:
    """Largest difference of the kernel's coefficients from the reference's, in units of
    2^-53 sum |e| log2(4T), asserted <= FFT_AGREEMENT."""
    unit = 2.0**-53 * float(np.sum(np.abs(edge_samples(kernel)))) * math.log2(4 * kernel.T)
    worst = float(np.max(np.abs(fresh_coefficients(kernel) - reference_coefficients(kernel)))) / unit
    if not worst <= FFT_AGREEMENT:
        raise AssertionError(f"the two transforms differ by {worst:.3g} units at T = {kernel.T}")
    return worst


def fresh_coefficients(kernel) -> np.ndarray:
    """C(j) for j = 0..2T by the kernel's two half-length transforms, computed again."""
    return kernels._half_period_coefficients(kernel.y)


def one_tail(kernel) -> float:
    kernel._sums.clear()
    return tail_norm(kernel, N, P).value


def reference_tail(kernel) -> float:
    """np.sum of each of the two periods in the reference weights over j = 1 .. 4T+1, as one_tail sums them."""
    weights = full_period_weights(kernel, P, 1, 4 * kernel.T + 1)
    return float(np.sum(weights[:-1])) + float(np.sum(weights[1:]))


def agreement(kernel) -> float:
    """Largest relative difference of the folded S_1, S_2 from the reference's fsum, asserted <= AGREEMENT."""
    kernel._sums.clear()
    worst = max(abs(kernel._period_sum(P, start) / reference_sum(kernel, P, start) - 1.0)
                for start in (1, 2))
    if not worst <= AGREEMENT:
        raise AssertionError(f"the folded sums differ from the reference by {worst:.3g} at T = {kernel.T}")
    return worst


@contextlib.contextmanager
def evaluation(block: int):
    """Make tail_norm evaluate its folded weights in blocks of `block`."""
    saved = kernels._HURWITZ_BLOCK
    kernels._HURWITZ_BLOCK = block
    try:
        yield
    finally:
        kernels._HURWITZ_BLOCK = saved


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_bytes(kernel) -> int:
    kernel._sums.clear()
    return traced_peak(lambda: tail_norm(kernel, N, P))


def page_faults(T: int) -> int:
    """Minor page faults of a fresh kernel's tail norms from n = 0, 1, 2 and its certificate."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    kernel = PiecewiseLinearKernel.from_family(FAMILY, T)
    for n in (0, 1, 2):
        tail_norm(kernel, n, P)
    BoundCertificate.from_kernel(kernel)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def sweep(kernel, values) -> list[dict]:
    """Median seconds and relative time of one tail norm in blocks of each value."""
    def call(v):
        with evaluation(block=v):
            one_tail(kernel)
    seconds, relative = medians(rounds_of_seconds([lambda v=v: call(v) for v in values], SWEEP_ROUNDS))
    return [{"block": v, "seconds": s, "relative": r} for v, s, r in zip(values, seconds, relative)]


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
        difference, fft_units = agreement(kernel), fft_difference(kernel)
        peak = peak_bytes(kernel)
        fft_peaks = [traced_peak(call) for call in (lambda: reference_coefficients(kernel),
                                                    lambda: fresh_coefficients(kernel))]
        faults = statistics.median(page_faults(T) for _ in range(5))
        (fft_ref, fft_s), _ = medians(rounds_of_seconds(
            [lambda: reference_coefficients(kernel), lambda: fresh_coefficients(kernel)], SIZE_ROUNDS[T]))
        (sums_ref, sums_s), _ = medians(rounds_of_seconds(
            [lambda: reference_tail(kernel), lambda: one_tail(kernel)], SIZE_ROUNDS[T]))
        unit, coefficient_unit = 8 * (4 * T + 1), 8 * (2 * T + 1)
        row = {"T": T,
               "fft": {"reference_s": fft_ref, "split_s": fft_s, "speedup": fft_ref / fft_s,
                       "reference_peak_bytes": fft_peaks[0], "split_peak_bytes": fft_peaks[1],
                       "reference_peak_units": fft_peaks[0] / coefficient_unit,
                       "split_peak_units": fft_peaks[1] / coefficient_unit,
                       "max_difference_units": fft_units},
               "sums": {"reference_s": sums_ref, "folded_s": sums_s, "speedup": sums_ref / sums_s},
               "peak_bytes": peak, "peak_units": peak / unit, "minor_page_faults": faults,
               "max_relative_difference": difference}
        rows.append(row)
        print(f"T={T:>8d} FFT {fft_ref * 1e3:8.2f} -> {fft_s * 1e3:8.2f} ms, "
              f"peak {fft_peaks[0] / coefficient_unit:.2f} -> {fft_peaks[1] / coefficient_unit:.2f} units   "
              f"sums {sums_ref * 1e3:8.2f} -> {sums_s * 1e3:8.2f} ms   {peak / 1e6:7.2f} MB   "
              f"{faults:.0f} page faults   max rel diff {difference:.2g}", flush=True)

    kernel = PiecewiseLinearKernel.from_family(FAMILY, SWEEP_T)
    reference = one_tail(kernel)
    for block in SWEEP_BLOCKS:
        with evaluation(block=block):
            if one_tail(kernel) != reference:
                raise AssertionError(f"block size {block} changes the tail norm")
    block_sweep = sweep(kernel, SWEEP_BLOCKS)
    for row in block_sweep:
        with evaluation(block=row["block"]):
            row["peak_units"] = peak_bytes(kernel) / (8 * (4 * SWEEP_T + 1))
        print(f"block 2^{int(math.log2(row['block'])):2d} at T={SWEEP_T}: "
              f"{row['seconds'] * 1e3:7.2f} ms  x{row['relative']:.3f} of its round's fastest  "
              f"peak {row['peak_units']:.3f} weight arrays", flush=True)
    block = keep_unless_beaten([row for row in block_sweep if row["peak_units"] <= PEAK_BUDGET],
                               "block", kernels._HURWITZ_BLOCK)

    record = {
        "what": f"seconds and tracemalloc peaks of the {FAMILY} kernel's two half-length transforms "
                f"against the 4T FFT, and seconds of one tail_norm(kernel, {N}, 4/3), folded at "
                "j <-> 4T - j, against the full-period reference; tracemalloc peak bytes, minor page "
                f"faults of a fresh kernel, and a sweep of the block size at T = {SWEEP_T}",
        "provenance": provenance(),
        "block": block,
        "hurwitz_block": kernels._HURWITZ_BLOCK,
        "sizes": rows,
        "sweep": block_sweep,
    }
    print(f"block = {block}, kernels._HURWITZ_BLOCK = {kernels._HURWITZ_BLOCK}")
    write_record(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
