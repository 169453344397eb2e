"""Machine-speed calibration for a shared, noisy host.

On a shared virtual machine other tenants slow a core by 20 to 50% for
seconds to minutes at a time; interpreter-bound code slows more than
vectorised numpy code.  That drift moves the raw times of two runs of
the same code further apart than any bound worth having.

So a run also times a fixed reference kernel before the first question
and after every question.  The kernel does the same kind of machine work
as the workload (a backtracking search, other interpreter-bound work, or
numpy) and never changes with the library.  Each question's time is
reported at the reference speed of the kernel samples taken just before
and just after it:

    reported = raw seconds * REFERENCE_S[kind] / mean(kernel before, kernel after)

so drift during a run is corrected question by question.  REFERENCE_S
is about what each kernel takes on an unloaded core of the 2-core Xeon
virtual machine the benchmark was written on, so there the reported
times read close to raw seconds.  A library change moves the raw time
and not the kernel, so it shows in full in the reported time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = {"search": 0.021, "interpreter": 0.010, "numpy": 0.010}
# Set-up is calibrated by a fresh process that imports numpy (see
# run.measure_setup); it takes about this long on the same host.
SETUP_REFERENCE_S = 0.15


def _search_kernel(n: int = 30, k: int = 5) -> int:
    """Count the Sidon sets of size k in [0, n) that contain 0.

    A depth-first search over difference bitmasks: the same mix of
    recursion, big-int bit tests and list updates as the decision engines.
    """
    count = 0

    def extend(chosen: list[int], diffs: int):
        nonlocal count
        if len(chosen) == k:
            count += 1
            return
        for e in range(chosen[-1] + 1, n - (k - len(chosen) - 1)):
            new = 0
            for y in chosen:
                d = e - y
                if (diffs >> d) & 1 or (new >> d) & 1:
                    break
                new |= 1 << d
            else:
                chosen.append(e)
                extend(chosen, diffs | new)
                chosen.pop()

    extend([0], 0)
    return count


def _interpreter_kernel() -> int:
    """Big-int masks, bytearray counts, int and float loops, as the library's engines use."""
    full = (1 << 97) - 1
    mask = blocked = total = 0
    counts = bytearray(256)
    x = 0.5
    for i in range(9000):
        e = i % 97
        mask = ((mask << 1) | (mask >> 96) | (e & 1)) & full
        blocked |= (mask >> (e % 13)) & ~blocked
        t = (i * 37) & 255
        if counts[t] < 250:
            counts[t] += 1
        lo, hi = max(e - 40, i % 50), min(e + 10, 90)
        if hi > lo:
            total += hi - lo
        x = x * 0.999 + (0.25 if x < 0.5 else -0.25)
    return total + blocked.bit_length() + int(x)


_DATA = np.random.default_rng(0).random(1 << 18)
_INDEX = np.arange(1000, dtype=np.int64) * 3


def _numpy_kernel() -> float:
    """Sort, real FFT power sum and a pair-sum bincount, as the numpy-bound paths use."""
    s = np.sort(_DATA)
    f = np.abs(np.fft.rfft(_DATA)) ** (4.0 / 3.0)
    counts = np.bincount(np.add.outer(_INDEX, _INDEX).ravel())
    return float(s[-1] + f.sum() + counts.max())


_KERNELS = {"search": _search_kernel, "interpreter": _interpreter_kernel,
            "numpy": _numpy_kernel}


class Speedometer:
    """Times one kind of reference kernel between the questions of a run."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = _KERNELS[kind]

    def sample(self, repeats: int = 2) -> float:
        """Mean seconds of one kernel call, over `repeats` calls now."""
        t0 = perf_counter()
        for _ in range(repeats):
            self._kernel()
        return (perf_counter() - t0) / repeats

    def factor(self, before: float, after: float) -> float:
        """Scale from raw seconds to the reference speed, between two samples."""
        return REFERENCE_S[self.kind] * 2.0 / (before + after)
