"""Command-line front end.

Subcommands: verify, construct, search, table, dee, delta-k, kernel,
bounds, random.  `construct`, `random`, `kernel` and `bounds` take their
job as the first word, and each job declares only the flags it reads, so
`bstar construct ruzsa --help` lists what it needs.  All numeric output
is JSON (CSV for streamed tables) with floats rendered to 12 significant
digits; the seed used by any randomized step is echoed in the output.
Exit codes: 0 success, 1 a requested verification failed, 2 usage error,
3 undecided (a search ran out of its node budget; rows already streamed
by `table` stay valid).  Every usage error, whether the parser or a
handler finds it, is one `error: <message>` line on stderr with nothing
on stdout.  A reader that closes the output early
(`bstar table ... | head -1`) is no error: the command stops silently
with exit 0.

The library modules, and numpy with them, are imported by the handlers
that use them, so `--help` and usage errors start without them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from fractions import Fraction

USAGE_ERROR = 2
UNDECIDED = 3

# sorted(kernels.PROFILES), spelled out so that building the parser
# needs no numpy; tests/test_cli.py keeps the two equal
_KERNEL_FAMILIES = ("K1", "K3", "K5")

_THREADS_HELP = ("run up to this many branches of a decision at once, in threads; "
                 "only branches on the compiled core run faster (default: 1)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take `run`'s usage-error path."""

    def error(self, message):
        raise ValueError(message)


def _fmt(value):
    """Render floats at 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator,
                "float": float(f"{float(value):.12g}")}
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _emit(obj) -> None:
    print(json.dumps(_fmt(obj), allow_nan=False))


def _parse_elements(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _parse_set_json(text: str):
    from .intsets import IntSet

    obj = json.loads(text)
    if not (isinstance(obj, dict) and isinstance(obj.get("elements"), list)
            and "modulus" in obj):
        raise ValueError('set JSON must be an object with keys "elements" (a list) '
                         'and "modulus"')
    # type(e) is int refuses bool, the one int subclass that JSON yields
    if not (all(type(e) is int for e in obj["elements"])
            and (obj["modulus"] is None or type(obj["modulus"]) is int)):
        raise ValueError('set JSON "elements" must be integers and "modulus" '
                         'an integer or null')
    return IntSet(tuple(obj["elements"]), obj["modulus"])


def _parse_intervals(text: str, exact: bool):
    number = Fraction if exact else float
    pairs = []
    for chunk in text.split(","):
        if chunk.count(":") != 1:
            raise ValueError(f"interval {chunk!r} must have the form a:b")
        lo, hi = chunk.split(":")
        try:
            pair = (number(lo), number(hi))
        except ZeroDivisionError:
            raise ValueError(f"interval {chunk} has a zero denominator") from None
        if not pair[0] < pair[1]:
            raise ValueError(f"interval {chunk} must have a < b")
        pairs.append(pair)
    return pairs


def _parse_p(text: str) -> float:
    num, slash, den = text.partition("/")
    try:
        num, den = float(num), (float(den) if slash else 1.0)
    except ValueError:
        raise ValueError(f"--p {text} must be a number or a fraction a/b") from None
    if den == 0:
        raise ValueError(f"--p {text} has a zero denominator")
    return num / den


def _read_pwl_file(path: str):
    import numpy as np

    from . import kernels

    with warnings.catch_warnings():
        # an empty file fails the row check below; numpy's warning would
        # only repeat it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    order = np.argsort(data[:, 0])
    if data.shape[1] != 2 or not np.array_equal(data[order, 0], np.arange(len(data))):
        raise ValueError("--pwl-file must hold rows t,y_t for t = 0, 1, ..., T")
    return kernels.PiecewiseLinearKernel(data[order, 1])


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .intsets import IntSet, max_rep

    if args.g < 1:
        raise ValueError("--g must be a positive integer")
    s = IntSet.of(_parse_elements(args.set), args.modulus)
    count = max_rep(s)
    ok = count <= args.g
    _emit({
        "elements": list(s.elements),
        "modulus": s.modulus,
        "g": args.g,
        "max_rep": count,
        "is_bstar": ok,
    })
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    from . import constructions

    rep = args.build(constructions, args)
    _emit({
        "construction": rep.name,
        "params": rep.params,
        "claimed_g": rep.claimed_g,
        "claimed_modulus_or_range": rep.claimed_modulus_or_range,
        "verified": rep.verified,
        "set": {"modulus": rep.set.modulus, "elements": list(rep.set.elements)},
    })
    return 0 if rep.verified else 1


def _cmd_search(args) -> int:
    from . import search

    budget = search.DEFAULT_BUDGET if args.budget is None else args.budget
    if args.n is not None:
        for flag, value in (("--n-start", args.n_start), ("--n-limit", args.n_limit)):
            if value is not None:
                raise ValueError(f"argument {flag}: not allowed with argument --n")
        dec = search.exists_set(args.kind, args.g, args.n, args.k,
                                budget=budget, workers=args.threads)
        _emit({
            "kind": args.kind, "g": args.g, "n": args.n, "k": args.k,
            "feasible": dec.feasible,
            "witness": list(dec.witness.elements) if dec.witness else None,
            "nodes": dec.nodes,
        })
        return 0
    limit = args.n_limit if args.n_limit is not None else 4 * args.k * args.k
    start = 1 if args.n_start is None else args.n_start
    res = search.min_n(search.SearchProblem(args.kind, args.g, args.k, start, limit,
                                            budget, args.threads))
    _emit({
        "kind": args.kind, "g": args.g, "k": args.k,
        "min_n": res.min_n,
        "witness": list(res.witness.elements) if res.witness else None,
        "nodes": res.nodes_explored,
        "exhaustive": res.exhaustive,
    })
    return 0


def _cmd_table(args) -> int:
    from . import search

    budget = search.DEFAULT_BUDGET if args.budget is None else args.budget
    if args.g_min < 1:
        raise ValueError("--g-min must be a positive integer")
    if args.g_max < args.g_min:
        raise ValueError("--g-max must be at least --g-min")
    if args.max_k < args.g_min + 1:
        raise ValueError(f"--max-k must be at least {args.g_min + 1}, the first k of --g-min {args.g_min}")
    kind = "modular" if args.which == "C" else "integer"
    # the rows are built lazily: refuse a bad budget or thread count before the header
    search.SearchProblem(kind, args.g_min, 1, 1, 1, budget, args.threads)
    print("kind,g,k,min_n,exhaustive,witness" + (",nodes,seconds" if args.timings else ""))
    last = time.perf_counter()
    for g, k, res in search.table_rows(kind, args.g_min, args.g_max, args.max_k,
                                       budget, args.threads):
        witness = " ".join(str(e) for e in res.witness.elements)
        row = f"{kind},{g},{k},{res.min_n},{res.exhaustive},{witness}"
        if args.timings:
            now = time.perf_counter()
            row += f",{res.nodes_explored},{now - last:.2f}"
            last = now
        print(row, flush=True)
    return 0


def _cmd_dee(args) -> int:
    from . import intervals

    e = intervals.IntervalSet.of(_parse_intervals(args.intervals, args.mode == "rational"),
                                 geometry=args.geometry)
    res = intervals.largest_symmetric_subset(e, include_profile=bool(args.profile_csv))
    if args.profile_csv:
        with open(args.profile_csv, "w") as fh:
            fh.write("center,symmetric_measure\n")
            for c, v in res.per_center_function:
                fh.write(f"{float(c):.12g},{float(v):.12g}\n")
    measure, d_value, center = e.measure, res.d_value, res.center
    if args.mode == "float":  # the float sum of the float endpoints; D(E) correctly rounded
        measure, d_value, center = (sum((b - a for a, b in e.intervals), 0.0),
                                    float(d_value), float(center))
    _emit({"geometry": e.geometry, "measure": measure, "d_value": d_value, "center": center})
    return 0


def _cmd_delta_k(args) -> int:
    from . import intervals

    value, witness = intervals.delta_k_upper(args.k, args.epsilon,
                                             restarts=args.restarts, seed=args.seed)
    _emit({
        "k": args.k, "epsilon": args.epsilon, "seed": args.seed,
        "upper_bound": value,
        "witness": [[a, b] for a, b in witness.intervals],
    })
    return 0


def _cmd_kernel(args) -> int:
    from . import kernels

    kernel = args.load(kernels, args)
    p = _parse_p(args.p)
    tail = kernels.tail_norm(kernel, args.tail_from, p)
    khat0 = kernel.fourier_dc()
    tail1 = kernels.tail_norm(kernel, 1, p).value
    try:
        alpha, floor = kernels.alpha_mix_optimum(khat0, tail1, p)
    except ValueError:  # the tail norms stand without the mix
        alpha, floor = None, None
    _emit({
        "family": args.pwl_file if args.source == "pwl" else args.source,
        "T": kernel.T, "p": p, "tail_from": args.tail_from,
        "khat0": khat0,
        "khat1": kernel.coefficient(1),
        "tail_norm": tail.value,
        "full_norm": kernels.tail_norm(kernel, 0, p).value,
        "mix_alpha": alpha,
        "mix_floor": floor,
    })
    return 0


def _ubiquity(kernels, args) -> dict:
    comp, simple = kernels.ubiquity_bound(args.gamma, args.alpha)
    # 0.0 first: max keeps the first of equal values, so -0.0 prints as 0.0
    return {"ubiquity_spectral": max(0.0, comp), "ubiquity_counting": max(0.0, simple)}


def _delta_half(kernels, args) -> dict:
    floor = kernels.delta_half_lower(args.epsilon)
    return {"ffinorm_floor": floor, "delta_lower": floor * args.epsilon * args.epsilon / 2.0}


def _certificate(kernels, args) -> dict:
    kernel = kernels.PiecewiseLinearKernel.from_family("K5", args.T)
    threshold, ok = kernels.delta_lower_certificate(kernels.BoundCertificate.from_kernel(kernel))
    return {"certified_ffinorm": threshold, "certified": ok,
            "delta_quadratic_constant": threshold / 2.0}


def _cmd_bounds(args) -> int:
    from . import kernels

    _emit(args.evaluate(kernels, args))
    return 0


def _cmd_random(args) -> int:
    from . import constructions

    rep = args.draw(constructions, args)
    _emit({
        "model": rep.name, "seed": rep.seed, "rule": rep.rule,
        "size": rep.size, "expected_size": rep.expected_size,
        "a0": rep.a0, "achieved_g": rep.achieved_g, "gamma": rep.gamma,
        "elements": list(rep.set.elements) if args.emit_elements else None,
        "modulus": rep.set.modulus,
    })
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="bstar", description="B*[g] sets and symmetric-subset bounds")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a set against a bound g")
    p.add_argument("--set", required=True, help="comma-separated elements")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="run a named construction")
    p.set_defaults(fn=_cmd_construct)
    families = p.add_subparsers(dest="family", required=True)
    # each build, load, evaluate and draw below takes the module its
    # handler imports, then the parsed arguments
    for name, build in (("ruzsa", lambda c, a: c.ruzsa_sets(a.p, a.k)),
                        ("bose", lambda c, a: c.bose_sets(a.p, a.k)),
                        ("singer", lambda c, a: c.singer_sets(a.p, a.k))):
        f = families.add_parser(name)
        f.add_argument("--p", type=int, required=True)
        f.add_argument("--k", type=int, required=True)
        f.set_defaults(build=build)
    f = families.add_parser("small-gn")
    f.add_argument("--g", type=int, required=True)
    f.set_defaults(build=lambda c, a: c.small_gn_witness(a.g))
    for name, combine in (("compose", lambda c: c.compose_mod),
                          ("half-modular", lambda c: c.half_modular)):
        f = families.add_parser(name)
        f.add_argument("--set-json", required=True, help="first operand as IntSet JSON")
        f.add_argument("--mate-json", required=True, help="second operand as IntSet JSON")
        f.add_argument("--g", type=int, required=True)
        f.add_argument("--h", type=int, required=True)
        f.set_defaults(build=lambda c, a, combine=combine: combine(c)(
            _parse_set_json(a.set_json), a.g, _parse_set_json(a.mate_json), a.h))

    p = sub.add_parser("search", help="decide feasibility or minimize n")
    p.add_argument("--kind", choices=["integer", "modular"], required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="decide this n only")
    p.add_argument("--n-start", type=int, default=None, help="default: 1")
    p.add_argument("--n-limit", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("table", help="stream min-n table rows as CSV")
    p.add_argument("--which", choices=["C", "R"], required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--g-min", type=int, default=2)
    p.add_argument("--g-max", type=int, default=7)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--timings", action="store_true",
                   help="append each row's search nodes and its seconds since the last row")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("dee", help="largest symmetric subset of an interval union")
    p.add_argument("--intervals", required=True, help="a:b,c:d,... endpoints")
    p.add_argument("--geometry", choices=["line", "circle"], default="line")
    p.add_argument("--mode", choices=["rational", "float"], default="rational")
    p.add_argument("--profile-csv", default=None,
                   help="write center vs symmetric measure samples")
    p.set_defaults(fn=_cmd_dee)

    p = sub.add_parser("delta-k", help="minimize D(E) over k-interval sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_delta_k)

    p = sub.add_parser("kernel", help="evaluate kernel Fourier tail norms")
    p.set_defaults(fn=_cmd_kernel)
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--p", default="4/3")
    tail.add_argument("--tail-from", type=int, default=1)
    sources = p.add_subparsers(dest="source", required=True)
    for name in _KERNEL_FAMILIES:
        s = sources.add_parser(name, parents=[tail])
        s.add_argument("--T", type=int, default=10**4)
        s.set_defaults(load=lambda kn, a: kn.PiecewiseLinearKernel.from_family(a.source, a.T))
    s = sources.add_parser("pwl", parents=[tail])
    s.add_argument("--pwl-file", required=True, help="CSV of t,y_t node values")
    s.set_defaults(load=lambda kn, a: _read_pwl_file(a.pwl_file))

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    p.set_defaults(fn=_cmd_bounds)
    bounds = p.add_subparsers(dest="bound", required=True)
    for name, flags, evaluate in (
            ("rho-lower", {"--g": int}, lambda kn, a: {"rho_lower": kn.rho_lower(a.g)}),
            ("rho-upper", {"--g": int}, lambda kn, a: {"rho_upper_sq": kn.rho_upper(a.g)}),
            ("ubiquity", {"--gamma": float, "--alpha": float}, _ubiquity),
            ("delta-half", {"--epsilon": float}, _delta_half),
            ("zeta-integral", {}, lambda kn, a: {"zeta_integral": kn.zeta_integral_check()})):
        b = bounds.add_parser(name)
        for flag, kind in flags.items():
            b.add_argument(flag, type=kind, required=True)
        b.set_defaults(evaluate=evaluate)
    b = bounds.add_parser("certificate")
    b.add_argument("--T", type=int, default=10**4)
    b.set_defaults(evaluate=_certificate)

    p = sub.add_parser("random", help="seeded probabilistic constructions")
    p.set_defaults(fn=_cmd_random)
    models = p.add_subparsers(dest="model", required=True)
    for model, param, draw in (
            ("circle", "--epsilon",
             lambda c, a: c.random_circle_set(a.n, a.epsilon, seed=a.seed)),
            ("integer", "--gamma",
             lambda c, a: c.random_integer_set(a.n, a.gamma, seed=a.seed))):
        m = models.add_parser(model)
        m.add_argument("--n", type=int, required=True)
        m.add_argument(param, type=float, required=True)
        m.add_argument("--seed", type=int, default=0)
        m.add_argument("--emit-elements", action="store_true")
        m.set_defaults(draw=draw)

    return root


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush
        # at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        from .search import BudgetExceeded

        if not isinstance(exc, BudgetExceeded):
            raise
        print(f"error: {exc}; the search is undecided", file=sys.stderr)
        return UNDECIDED


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
