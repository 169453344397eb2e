#!/usr/bin/env python3
"""Time-to-answer benchmark for bstar's main computations.

One run answers one workload's questions in a fresh process, one
question after another (a closed loop, one caller, ``workers=1``):

    python3 perfbench/run.py --workload min-n --seed 0 --seconds 10 --trace 0

It repeats passes over the workload's fixed question list until
``--seconds`` have been spent (at least one pass), checks every
answer against its reference after the timed passes, and prints each
metric by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` spends half the time untraced and half
with every public library function wrapped in a span, and reports the
per-layer metrics.

Other modes:

    python3 perfbench/run.py --all [--out results.json]
        every workload, ten seeds each plus two traced runs at seed 0,
        with medians, quartiles, spreads and a determinism check
    python3 perfbench/run.py --compare OLD.json NEW.json
        per workload and end-to-end metric: medians, quartiles, ratio,
        verdict (better, worse, unchanged, unresolved)
    python3 perfbench/run.py --self-test
        corrupts one reference per workload and expects failed > 0
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread for numpy's linear algebra, like the one-worker library calls.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from calibration import SETUP_REFERENCE_S, Speedometer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7
RUNS = 10  # seeds per workload in --all
# Exact counts: they must repeat exactly across passes, and across runs
# at one seed, or the run is a benchmark error.
COUNTS = ("search.nodes", "search.decide.calls", "intervals.calls",
          "intsets.max_rep.calls", "intsets.pairs")


class BenchError(RuntimeError):
    """The benchmark itself went wrong (not the program under test)."""


class Raised:
    """An exception raised while answering; never equal to another answer."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def import_library():
    src = ROOT / "src"
    if not (src / "bstar" / "__init__.py").is_file():
        raise BenchError(f"no bstar package under {src.name}/ next to {HERE.name}/")
    sys.path.insert(0, str(src))


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise BenchError(f"{SPEC_PATH.name} not found next to {HERE.name}/")
    return json.loads(SPEC_PATH.read_text())


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _package_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("bstar")
    except metadata.PackageNotFoundError:
        text = (ROOT / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        return match.group(1) if match else "unknown"


def _git_rev() -> str:
    """HEAD's commit, read from .git inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    return {
        "package_version": _package_version(),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def prepare(name: str, seed: int):
    """Set-up: imports, seeded inputs and references."""
    import_library()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    questions = workload.questions(seed)
    return workload, questions, workload.references(questions)


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median time from process start until the first question is ready.

    Returns (raw seconds, seconds at the reference speed).  The reference
    for set-up is a fresh process that only imports numpy: the same kind
    of work (process start, module imports), untouched by the library.
    A reference process runs before the first set-up process and after
    each one; each set-up time is scaled by the two on either side of it.
    """
    setup = [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", name, "--seed", str(seed)]
    reference = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]

    def until_ready(cmd) -> float:
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up process failed (exit {proc.returncode})")
        return elapsed

    raw, scaled = [], []
    before = until_ready(reference)
    for _ in range(SETUP_REPEATS):
        seconds = until_ready(setup)
        after = until_ready(reference)
        raw.append(seconds)
        scaled.append(seconds * SETUP_REFERENCE_S * 2.0 / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


class Pass:
    """One pass over the question list: answers, raw and scaled seconds."""

    def __init__(self):
        self.answers: list = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.traced: list[tuple[list, float]] = []  # (spans, scale) per question


def timed_passes(workload, questions, budget_s: float, meter: Speedometer, tracer=None):
    """Yield one Pass per pass over the questions until budget_s has been spent.

    The reference kernel runs before the first question and after each
    question, outside the questions' time; each question is scaled by the
    samples on either side of it.  With a tracer, each question's spans
    are taken with its scale.
    """
    start = perf_counter()
    before = meter.sample()
    while perf_counter() - start < budget_s:
        p = Pass()
        for q in questions:
            t0 = perf_counter()
            try:
                p.answers.append(workload.answer(q))
            except Exception as exc:  # a raised question is a failed question
                p.answers.append(Raised(exc))
            seconds = perf_counter() - t0
            after = meter.sample()
            scale = meter.factor(before, after)
            before = after
            p.raw_s += seconds
            p.scaled_s += seconds * scale
            if tracer is not None:
                p.traced.append((tracer.take(), scale))
        yield p


def check_first(workload, questions, answers, refs) -> list[bool]:
    """Check each answer of one pass against its reference; True = failed."""
    failed = []
    for q, a, ref in zip(questions, answers, refs):
        if isinstance(a, Raised):
            problems = [a.text]
        else:
            try:
                problems = workload.check(q, a, ref)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        for p in problems:
            print(f"FAILED {workload.name}: {p}", file=sys.stderr)
        failed.append(bool(problems))
    return failed


def run_one(args) -> int:
    spec = load_spec()
    workload, questions, refs = prepare(args.workload, args.seed)
    from tracing import Tracer, layer_metrics
    setup_raw, setup_s = measure_setup(args.workload, args.seed)
    if args.corrupt:
        refs = workload.corrupt(refs)
    meter = Speedometer(workload.bound_by)

    first = None
    differs = [0] * len(questions)  # passes whose answer differs from the first
    passes = 0

    def record(answers):
        nonlocal first, passes
        passes += 1
        if first is None:
            first = answers
        else:
            for i, (a, b) in enumerate(zip(answers, first)):
                differs[i] += not a == b

    untraced, traced, layers = [], [], []
    budget = args.seconds / 2 if args.trace else args.seconds
    for p in timed_passes(workload, questions, budget, meter):
        untraced.append(p)
        record(p.answers)
    if args.trace:
        with Tracer() as tracer:
            for p in timed_passes(workload, questions, budget, meter, tracer):
                traced.append(p)
                ok = not any(isinstance(a, Raised) for a in p.answers)
                from_answers = workload.answer_metrics(questions, p.answers) if ok else {}
                layers.append(layer_metrics(p.traced, from_answers))
                record(p.answers)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_first = check_first(workload, questions, first, refs)
    failed = sum(passes if f else d for f, d in zip(failed_first, differs))
    attempted = passes * len(questions)

    for key in COUNTS:
        seen = {m.get(key, 0.0) for m in layers}
        if len(seen) > 1:
            raise BenchError(f"count {key} differs between passes: {sorted(seen)}")

    solve_raw = statistics.median(p.raw_s for p in untraced)
    solve_s = statistics.median(p.scaled_s for p in untraced)
    print("# provenance " + json.dumps(provenance(args.workload, args.seed)))
    print(f"# {args.workload}: {passes} passes of {len(questions)} questions, "
          f"{failed} of {attempted} failed; seconds at the reference speed of the "
          f"{workload.bound_by} kernel, raw seconds in brackets")
    print(f"solve_s        {solve_s:.6f} s [{solve_raw:.6f}] (median of {len(untraced)} "
          f"untraced passes: " + ", ".join(f"{p.scaled_s:.3f}" for p in untraced) + ")")
    print(f"setup_s        {setup_s:.6f} s [{setup_raw:.6f}] "
          f"(median of {SETUP_REPEATS} fresh processes)")
    print(f"peak_rss_mib   {peak_rss_mib:.1f} MiB")
    print(f"failed_frac    {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
    if args.trace:
        merged = {key: statistics.median(m.get(key, 0.0) for m in layers)
                  for key in {k for m in layers for k in m}}
        merged["tracing.overhead_s"] = statistics.median(p.scaled_s for p in traced) - solve_s
        for key in sorted(merged):
            print(f"  {key:32s} {merged[key]:.6g}")
        wanted = spec["per_layer"]
        values = {m["name"]: merged.get(m["name"], 0.0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {"solve_s": solve_s, "setup_s": setup_s, "peak_rss_mib": peak_rss_mib}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def setup_only(args) -> int:
    prepare(args.workload, args.seed)
    print("ready", flush=True)
    return 0


# ---------------------------------------------------------------------------
# suite, compare and self-test
# ---------------------------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: int, *extra: str) -> tuple[dict, dict]:
    """Run one workload in a fresh process; (result line, provenance)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{name} seed {seed} exited {proc.returncode}")
    prov = next((json.loads(line[len("# provenance "):]) for line in lines
                 if line.startswith("# provenance ")), {})
    return json.loads(lines[-1]), prov


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_all(args) -> int:
    """RUNS seeds per workload and two traced runs at seed 0, with a summary."""
    spec = load_spec()
    seconds = args.seconds
    record = {"run_seconds": seconds, "summary": {}, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in range(RUNS):
            result, prov = _child(name, seed, seconds, 0)
            result["provenance"] = prov
            runs.append(result)
        traced = []
        for _ in range(2):
            result, prov = _child(name, 0, seconds, 1)
            result["provenance"] = prov
            traced.append(result)
        record["workloads"][name] = {"runs": runs, "traced": traced}
        record["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed")}

        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        summary = record["summary"][name] = {"attempted": attempted, "failed": failed}
        print(f"== {name}: {len(runs)} runs, seeds 0..{len(runs) - 1}; "
              f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": spread}
            flag = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "WIDER THAN BOUND")
            print(f"  {m['name']:14s} median {med:.6g} {m['unit']:4s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (bound {m['bound']}) {flag}")
        from_traced = [{k: v["value"] for k, v in r["metrics"].items()} for r in traced]
        for key in COUNTS:
            if len({m.get(key) for m in from_traced}) > 1:
                raise BenchError(f"{name}: {key} differs between traced runs at seed 0")
        summary["per_layer"] = {}
        for m in spec["per_layer"]:
            value = statistics.median(t[m["name"]] for t in from_traced)
            if value:
                summary["per_layer"][m["name"]] = value
                print(f"    {m['name']:30s} {value:.6g} {m['unit']}")
        if args.out:  # after every workload, so a cut run keeps what it has
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


def verdict(old: list[float], new: list[float], bound: float, better: str) -> tuple[str, float]:
    """better / worse / unchanged / unresolved, and the ratio new/old of medians."""
    sign = 1.0 if better == "lower" else -1.0
    q1a, meda, q3a = quartiles(old)
    q1b, medb, q3b = quartiles(new)
    ratio = medb / meda
    change = sign * (medb - meda) / meda  # > 0 means worse
    spread = max((q3a - q1a) / meda, (q3b - q1b) / medb)
    if spread > bound:
        if all(sign * b < sign * a for a in old for b in new):
            return "better", ratio
        if all(sign * b > sign * a for a in old for b in new):
            return "worse", ratio
        return "unresolved", ratio
    if change > bound:
        return "worse", ratio
    if change < 0 and -change > spread:
        return "better", ratio
    return "unchanged", ratio


def compare(args) -> int:
    spec = load_spec()
    old, new = (json.loads(Path(p).read_text()) for p in args.compare)
    print(f"old: {args.compare[0]} ({old.get('provenance', {}).get('git_rev', '?')[:12]})")
    print(f"new: {args.compare[1]} ({new.get('provenance', {}).get('git_rev', '?')[:12]})")
    print(f"{'workload':12s} {'metric':14s} {'old q1/median/q3':>32s} "
          f"{'new q1/median/q3':>32s} {'new/old':>8s}  verdict")
    for name in old["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:12s} missing in {args.compare[1]}")
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in old["workloads"][name]["runs"]]
            b = [r["metrics"][m["name"]]["value"] for r in new["workloads"][name]["runs"]]
            word, ratio = verdict(a, b, m["bound"], m["better"])
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{name:12s} {m['name']:14s} {qa:>32s} {qb:>32s} {ratio:8.4f}  {word}")
    return 0


def self_test(args) -> int:
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        result, _ = _child(w["name"], 0, 1, 0, "--corrupt")
        frac = result["failed"] / result["attempted"]
        caught = frac > 0 and not result["correct"]
        ok &= caught
        print(f"{w['name']:12s} corrupted reference: failed_frac {frac:.6g} ratio "
              f"({result['failed']} of {result['attempted']} attempted) "
              f"{'detected' if caught else 'NOT DETECTED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--out", help="write the --all record to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.compare:
            return compare(args)
        if args.self_test:
            return self_test(args)
        if args.all:
            return run_all(args)
        if not args.workload:
            parser.error("--workload is required")
        names = [w["name"] for w in load_spec()["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        return setup_only(args) if args.setup_only else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
