"""Spans around the library's public functions, for the traced run.

The tracer rebinds each wrapped name where callers look it up: a module
attribute (``bstar.search.exists_set``, which ``min_n`` calls, and
``bstar.constructions.max_rep``, which the random constructions call) or
a class attribute (``IntSet.of``).  Every call then records one span:
its name, start, end, parent span and a few attributes.  Spans stay in
memory; ``layer_metrics`` turns the spans of one pass into the per-layer
numbers.  A layer's time is the self time of its spans, that is their
duration minus the time of the spans nested in them.
"""
from __future__ import annotations

import functools
import inspect
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

from bstar import constructions, intervals, intsets, kernels, search


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _decision(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    outcome = "error" if result is None else ("feasible" if result.feasible else "infeasible")
    return {"kind": a["kind"], "g": a["g"], "outcome": outcome}


def _symmetric(fn, args, kwargs, result):
    e = _bound(fn, args, kwargs)["e"]
    return {"geometry": e.geometry, "intervals": len(e.intervals)}


def _pairs(fn, args, kwargs, result):
    return {"pairs": len(_bound(fn, args, kwargs)["s"]) ** 2}


# (owner, attribute, span name, attribute extractor)
WRAPPED = (
    (search, "min_n", "search.min_n", None),
    (search, "exists_set", "search.decide", _decision),
    (intervals, "largest_symmetric_subset", "intervals.symmetric", _symmetric),
    (intsets, "max_rep", "intsets.max_rep", _pairs),
    (constructions, "max_rep", "intsets.max_rep", _pairs),
    (intsets.IntSet, "of", "intsets.build", None),
    (intsets.IntSet, "__post_init__", "intsets.build", None),
    (constructions, "random_integer_set", "constructions.random", None),
    (constructions, "random_circle_set", "constructions.random", None),
    (kernels.PiecewiseLinearKernel, "from_family", "kernels.build", None),
    (kernels, "tail_norm", "kernels.tail_norm", None),
    (kernels, "alpha_mix_optimum", "kernels.certificate", None),
    (kernels.BoundCertificate, "from_kernel", "kernels.certificate", None),
    (kernels, "delta_lower_certificate", "kernels.certificate", None),
    (kernels, "delta_half_lower", "kernels.delta_half", None),
)


# Span names whose generator arguments are drained before the span opens,
# so a caller's lazy loop counts as the caller's time (IntSet.of is handed
# generators by the random constructions).
EAGER = {"intsets.build"}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, describe in WRAPPED:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(fn, name, describe)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._saved.append((owner, attr, raw))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name, describe):
        spans, stack = self.spans, self._stack
        eager = name in EAGER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if eager:
                args = tuple(tuple(a) if isinstance(a, types.GeneratorType) else a
                             for a in args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if describe is not None:
                    span[4] = describe(fn, args, kwargs, result)

        return traced

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _growth_exponent(points) -> float:
    """Least-squares slope of log(time) against log(interval count)."""
    if len({k for k, _ in points}) < 2:
        return 0.0
    x = np.log([k for k, _ in points])
    y = np.log([max(t, 1e-9) for _, t in points])
    return float(np.polyfit(x, y, 1)[0])


def layer_metrics(questions: list[tuple[list[list], float]],
                  from_answers: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers for one pass.

    `questions` holds, per question, its spans and its scale to the
    reference speed; span times are multiplied by that scale.
    `from_answers` holds the numbers read off the pass's answers, such as
    the exact node count summed from ``nodes_explored``.
    """
    m: dict[str, float] = defaultdict(float, from_answers)
    line_points = []
    for spans, scale in questions:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, attrs) in enumerate(spans):
            t = (end - start - child[i]) * scale
            if name == "search.decide":
                m["search.decide.calls"] += 1
                if attrs["outcome"] == "feasible":
                    m["search.decide.feasible.s"] += t
                else:
                    m["search.decide.infeasible.s"] += t
                m[f"search.{attrs['kind']}.s"] += t
                m["search.g2.s" if attrs["g"] == 2 else "search.gcount.s"] += t
            elif name == "intervals.symmetric":
                m["intervals.calls"] += 1
                m[f"intervals.{attrs['geometry']}.s"] += t
                if attrs["geometry"] == "line":
                    line_points.append((attrs["intervals"], t))
            elif name == "intsets.max_rep":
                m["intsets.max_rep.s"] += t
                m["intsets.max_rep.calls"] += 1
                m["intsets.pairs"] += attrs["pairs"]
            elif name == "intsets.build":
                m["intsets.build.s"] += t
            elif name == "constructions.random":
                m["constructions.random.self_s"] += t
            elif name.startswith("kernels."):
                m[f"{name}.s"] += t
    decide_s = m["search.decide.feasible.s"] + m["search.decide.infeasible.s"]
    m["search.nodes_per_s"] = m["search.nodes"] / decide_s if decide_s > 0 else 0.0
    m["intsets.pairs_per_s"] = (m["intsets.pairs"] / m["intsets.max_rep.s"]
                                if m["intsets.max_rep.s"] > 0 else 0.0)
    m["intervals.exact.growth_exp"] = _growth_exponent(line_points)
    return dict(m)

