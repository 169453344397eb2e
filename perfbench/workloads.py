"""The benchmark's workloads.

Each workload is a closed loop: one caller answers a fixed list of
questions in order, each question only after the previous answer.  A
workload builds its questions from the seed, loads or computes the
reference values they are checked against, answers one question, and
checks one answer.  Answering is the timed part; building, references
and checks are not.

The workloads call the library through module attributes
(``search.min_n``, ``intervals.largest_symmetric_subset``, ...), the same
names the traced run rebinds, so a traced pass sees every call.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from bstar import constructions, intervals, intsets, kernels, search


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _subseeds(workload: str, seed: int, count: int) -> list[int]:
    rng = _rng(workload, seed)
    return [rng.randrange(2**32) for _ in range(count)]


def _fail(condition: bool, message: str, failures: list[str]):
    if not condition:
        failures.append(message)


class MinN:
    """Frozen min-n table cells, solved exhaustively by ``min_n``.

    Most of the test suite's time goes to proving infeasibility.  The
    cells split that work across both kinds (modular, integer) and both
    decision engines (g = 2 bitmask, g >= 3 counting), so modular
    symmetry reduction, integer mirror elimination and engine removal
    each move a different part.  The cells are a few seconds in all,
    smaller than the suite's slowest, so that a run holds several passes.

    The modular g = 2, k = 7 cell is asked one n at a time, as ``min_n``
    over [n, n] for n = 42 (its infeasibility floor) to 48 (its frozen
    value): the same decisions ``min_n`` makes over the suite's range
    [1, 53], in questions of 0.3 to 0.7 s rather than one of 3 s, so the
    speed calibration is sampled between them.  The seed is unused: the
    questions are deterministic.
    """

    name = "min-n"
    bound_by = "search"  # the calibration kernel that matches where its time goes
    # (kind, g, k, frozen min n); the search ranges are the test suite's.
    CELLS = (
        ("modular", 3, 7, 29),
        ("modular", 4, 8, 22),
        ("integer", 2, 8, 35),
        ("integer", 3, 8, 25),
        ("integer", 4, 10, 22),
    )
    PAD = {"modular": 5, "integer": 16}
    SPLIT = ("modular", 2, 7, 42, 48)  # kind, g, k, first n, frozen min n

    def questions(self, seed: int):
        kind, g, k, first, expected = self.SPLIT
        split = [search.SearchProblem(kind, g, k, n, n) for n in range(first, expected + 1)]
        return split + [search.SearchProblem(kind, g, k, 1, expected + self.PAD[kind])
                        for kind, g, k, expected in self.CELLS]

    def references(self, questions):
        """(min n or None in the question's range, whether it must be exhaustive)."""
        frozen = {(kind, g, k): expected for kind, g, k, expected in self.CELLS}
        kind, g, k, first, expected = self.SPLIT
        frozen[kind, g, k] = expected
        if search.infeasibility_floor(kind, g, k) != first:
            raise ValueError(f"infeasibility floor of {kind} g={g} k={k} is not {first}")
        refs = []
        for q in questions:
            value = frozen[q.kind, q.g, q.k]
            in_range = q.n_start <= value <= q.n_limit
            exhaustive = q.n_start <= search.infeasibility_floor(q.kind, q.g, q.k)
            refs.append((value if in_range else None, exhaustive))
        return refs

    def answer(self, problem):
        return search.min_n(problem)

    def check(self, problem, result, ref) -> list[str]:
        expected, exhaustive = ref
        failures: list[str] = []
        tag = f"{problem.kind} g={problem.g} k={problem.k} n in [{problem.n_start}, {problem.n_limit}]"
        _fail(result.min_n == expected, f"{tag}: min_n {result.min_n} != {expected}", failures)
        _fail(result.exhaustive == exhaustive, f"{tag}: exhaustive is {result.exhaustive}",
              failures)
        w = result.witness
        if expected is None:
            _fail(w is None, f"{tag}: witness {w} where none exists", failures)
            return failures
        if w is None:
            failures.append(f"{tag}: no witness")
            return failures
        _fail(len(w) == problem.k, f"{tag}: witness size {len(w)}", failures)
        _fail(intsets.is_bstar(w, problem.g), f"{tag}: witness is not B*[g]", failures)
        if problem.kind == "modular":
            _fail(w.modulus == expected, f"{tag}: witness modulus {w.modulus}", failures)
        else:
            _fail(w.max_element <= expected, f"{tag}: witness exceeds [1, n]", failures)
        return failures

    def corrupt(self, refs):
        value, exhaustive = refs[-1]
        return refs[:-1] + [(value + 1, exhaustive)]

    def answer_metrics(self, questions, answers) -> dict:
        return {"search.nodes": sum(r.nodes_explored for r in answers)}


class Bridge:
    """The bridge identity D(A(S)) = max_rep(S) / n on seeded random sets.

    Each set has an exact number of runs of consecutive elements, so its
    block picture has that many intervals and the cost of one exact scan
    (O(k^4) today) does not depend on the seed.  Line sets lie in [1, n];
    circle sets lie in Z_n and use the same blocks on the circle.  The
    few large exact scans are what a breakpoint sweep would speed up.
    """

    name = "bridge"
    bound_by = "interpreter"  # the calibration kernel that matches where its time goes
    LINE_RUNS = (15, 25, 35, 45)
    CIRCLE_RUNS = (15, 25, 35)

    @staticmethod
    def _runs_set(rng: random.Random, runs: int) -> tuple[int, tuple[int, ...]]:
        """n = 5 * runs and a subset of [0, n) made of exactly `runs` runs."""
        n = 5 * runs
        lengths = [rng.randint(1, 3) for _ in range(runs)]
        spare = n - sum(lengths) - (runs - 1)
        # stars and bars: runs + 1 free gaps summing to at most `spare`
        cuts = sorted(rng.sample(range(spare + runs), runs))
        gaps = [c - prev - 1 for prev, c in zip([-1] + cuts, cuts)]
        pos, out = 0, []
        for i, length in enumerate(lengths):
            pos += gaps[i] + (i > 0)  # runs are separated by at least one gap
            out.extend(range(pos, pos + length))
            pos += length
        return n, tuple(out)

    def questions(self, seed: int):
        rng = _rng(self.name, seed)
        qs = []
        for geometry, ladder in (("line", self.LINE_RUNS), ("circle", self.CIRCLE_RUNS)):
            for runs in ladder:
                n, elements = self._runs_set(rng, runs)
                if geometry == "line":
                    qs.append(("line", n, intsets.IntSet(tuple(e + 1 for e in elements))))
                else:
                    qs.append(("circle", n, intsets.IntSet(elements, n)))
        return qs

    def references(self, questions):
        """Largest ordered representation count by direct convolution."""
        refs = []
        for geometry, n, s in questions:
            ind = np.zeros(n + 1, dtype=np.int64)
            ind[list(s.elements)] = 1
            conv = np.convolve(ind, ind)
            if geometry == "circle":
                conv = np.bincount(np.arange(len(conv)) % n, weights=conv, minlength=n)
            refs.append(int(conv.max()))
        return refs

    def answer(self, question):
        geometry, n, s = question
        if geometry == "line":
            picture = intervals.a_of_s(s, n)
        else:
            picture = intervals.IntervalSet.of(
                [(Fraction(v, n), Fraction(v + 1, n)) for v in s.elements], geometry="circle")
        return intervals.largest_symmetric_subset(picture).d_value, intsets.max_rep(s)

    def check(self, question, answer, ref) -> list[str]:
        geometry, n, s = question
        d, rep = answer
        failures: list[str] = []
        tag = f"{geometry} n={n} |S|={len(s)}"
        _fail(d == Fraction(ref, n), f"{tag}: D = {d} != {ref}/{n}", failures)
        _fail(rep == ref, f"{tag}: max_rep {rep} != {ref}", failures)
        return failures

    def corrupt(self, refs):
        return [refs[0] + 1] + refs[1:]

    def answer_metrics(self, questions, answers) -> dict:
        return {}


class Spectral:
    """Kernel constants and the ||f*f||_inf certificate, K3 and K5.

    Only ``kernels`` works here.  T = 10^4 and 10^5 separate the cost of
    the FFT and Hurwitz zeta (grows with T) from the certificate sweep
    (does not).  The seed is unused.
    """

    name = "spectral"
    bound_by = "numpy"  # the calibration kernel that matches where its time goes
    P = 4.0 / 3.0
    CLAIM = 1.182778
    MIX_FLOOR = 1.14915
    # T = 10^4 constants, to 5e-7 (criterion 5); T = 10^5 must agree to 1e-5.
    CONSTANTS = {
        "K3": {"khat0": 0.870250799, "tail1": 0.208784534},
        "K5": {"khat0": 0.631932628, "khat1": 0.270776892, "tail2": 0.239175395},
    }
    HALF_EPS = tuple(0.376 + 0.001 * i for i in range(249))

    def questions(self, seed: int):
        return [("kernel", fam, T) for fam in ("K3", "K5") for T in (10**4, 10**5)] + [
            ("delta_half", self.HALF_EPS)]

    def references(self, questions):
        return [self.CONSTANTS[q[1]] if q[0] == "kernel" else None for q in questions]

    def answer(self, question):
        if question[0] == "delta_half":
            return [kernels.delta_half_lower(eps) for eps in question[1]]
        _, family, T = question
        kernel = kernels.PiecewiseLinearKernel.from_family(family, T)
        tails = [kernels.tail_norm(kernel, n, self.P).value for n in (0, 1, 2)]
        khat0 = kernel.fourier_dc()
        _, floor = kernels.alpha_mix_optimum(khat0, tails[1], self.P)
        cert = kernels.BoundCertificate.from_kernel(kernel)
        threshold, certified = kernels.delta_lower_certificate(cert, grid=1e-6)
        return {"khat0": khat0, "khat1": cert.khat1, "tail0": tails[0], "tail1": tails[1],
                "tail2": cert.tail_m, "floor": floor, "F": threshold, "certified": certified}

    def check(self, question, answer, ref) -> list[str]:
        failures: list[str] = []
        if question[0] == "delta_half":
            for eps, value in zip(question[1], answer):
                _fail(value > 1.1092 + 0.176158 * eps,
                      f"delta_half_lower({eps:.3f}) = {value}", failures)
            return failures
        _, family, T = question
        tag = f"{family} T={T}"
        tol = 5e-7 if T == 10**4 else 1e-5
        for key, expected in ref.items():
            _fail(abs(answer[key] - expected) < tol, f"{tag}: {key} {answer[key]}", failures)
        _fail(answer["certified"] is True, f"{tag}: not certified", failures)
        if family == "K3":
            _fail(answer["tail0"] < 0.9658413, f"{tag}: tail0 {answer['tail0']}", failures)
            _fail(answer["floor"] >= self.MIX_FLOOR, f"{tag}: mix floor {answer['floor']}", failures)
        else:
            _fail(answer["F"] >= self.CLAIM, f"{tag}: F {answer['F']}", failures)
        return failures

    def corrupt(self, refs):
        return [{**refs[0], "khat0": refs[0]["khat0"] + 1e-3}] + refs[1:]

    def answer_metrics(self, questions, answers) -> dict:
        """The certified F minus the claimed 1.182778, K5 at T = 10^4."""
        answer = answers[questions.index(("kernel", "K5", 10**4))]
        return {"kernels.cert.slack": answer["F"] - self.CLAIM}


class RandomSets:
    """Seeded random B*[g] sets: three integer draws and one circle draw.

    Nearly all the time is ``representation_counts`` on sets of 10k to
    11k elements (about 1.3e8 pairs each, blocked bincount).  This is the
    only workload where ``intsets`` sees large sets; ``bridge`` and the
    witness checks call it on small ones.
    """

    name = "random-sets"
    bound_by = "numpy"  # the calibration kernel that matches where its time goes
    INTEGER = (10**6, 100.0)
    CIRCLE = (200001, 0.05)

    def questions(self, seed: int):
        subs = _subseeds(self.name, seed, 4)
        return [("integer", *self.INTEGER, s) for s in subs[:3]] + [
            ("circle", *self.CIRCLE, subs[3])]

    def references(self, questions):
        """Criterion 11's cap mean + 4 sqrt(mean log 3n), mean = gamma or eps^2 n."""
        caps = []
        for kind, n, param, _ in questions:
            mean = param if kind == "integer" else param * param * n
            caps.append(mean + 4.0 * math.sqrt(mean * math.log(3 * n)))
        return caps

    def answer(self, question):
        kind, n, param, sub = question
        if kind == "integer":
            return constructions.random_integer_set(n, param, seed=sub)
        return constructions.random_circle_set(n, param, seed=sub)

    @staticmethod
    def fft_max_count(elements, n: int, circle: bool) -> int:
        """max_t r(t) by an FFT autoconvolution, independent of ``intsets``."""
        size = n if circle else 1 << (2 * n + 1).bit_length()
        ind = np.zeros(size)
        ind[np.asarray(elements) % size] = 1.0
        f = np.fft.rfft(ind)
        return int(np.rint(np.fft.irfft(f * f, size).max()))

    def check(self, question, report, cap) -> list[str]:
        kind, n, _, sub = question
        failures: list[str] = []
        tag = f"{kind} n={n} seed={sub}"
        s = report.set
        _fail(len(s) > 0, f"{tag}: empty set", failures)
        if kind == "integer":
            _fail(s.modulus is None and s.elements[0] >= 1 and s.max_element <= n,
                  f"{tag}: elements outside [1, n]", failures)
        else:
            _fail(s.modulus == n, f"{tag}: modulus {s.modulus}", failures)
        count = self.fft_max_count(s.elements, n, kind == "circle")
        _fail(report.achieved_g == count, f"{tag}: achieved_g {report.achieved_g} != {count}",
              failures)
        _fail(report.achieved_g <= cap, f"{tag}: achieved_g {report.achieved_g} > cap {cap:.1f}",
              failures)
        return failures

    def corrupt(self, refs):
        return [0.0] + refs[1:]

    def answer_metrics(self, questions, answers) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (MinN(), Bridge(), Spectral(), RandomSets())}
