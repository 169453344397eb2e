"""Command-line front end.

Subcommands: verify, construct, search, table, dee, delta-k, kernel,
bounds, random.  All numeric output is JSON (CSV for streamed tables)
with floats rendered to 12 significant digits; the seed used by any
randomized step is echoed in the output.  Exit codes: 0 success, 1 a
requested verification failed, 2 usage error (including a missing
argument), 3 undecided (a search ran out of its node budget; rows
already streamed by `table` stay valid).  A reader that closes the
output early (`bstar table ... | head -1`) is no error: the command
stops silently with exit 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import constructions, intervals, kernels, search
from .intsets import IntSet, is_bstar, max_rep, representation_counts

USAGE_ERROR = 2
UNDECIDED = 3

# flags each construction family reads
_CONSTRUCT_NEEDS = {
    "ruzsa": ("p", "k"), "bose": ("p", "k"), "singer": ("p", "k"),
    "small-gn": ("g",),
    "compose": ("set_json", "mate_json", "g", "h"),
    "half-modular": ("set_json", "mate_json", "g", "h"),
}


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
    print(json.dumps(_fmt(obj)))


def _require(args, *names) -> None:
    """Raise a usage error naming the first of these flags left unset."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _parse_elements(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok]


def _parse_rational(tok: str) -> Fraction:
    return Fraction(tok)


def _parse_intervals(text: str, exact: bool):
    pairs = []
    for chunk in text.split(","):
        lo, hi = chunk.split(":")
        pair = (_parse_rational(lo), _parse_rational(hi)) if exact else (float(lo), float(hi))
        if not pair[0] < pair[1]:
            raise ValueError(f"interval {chunk} must have a < b")
        pairs.append(pair)
    return pairs


def _parse_p(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    s = IntSet.of(_parse_elements(args.set), args.modulus)
    profile = representation_counts(s)
    ok = profile.max_count <= args.g
    _emit({
        "elements": list(s.elements),
        "modulus": s.modulus,
        "g": args.g,
        "max_rep": profile.max_count,
        "is_bstar": ok,
    })
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    _require(args, *_CONSTRUCT_NEEDS[args.family])
    if args.family == "ruzsa":
        rep = constructions.ruzsa_sets(args.p, args.k)
    elif args.family == "bose":
        rep = constructions.bose_sets(args.p, args.k)
    elif args.family == "singer":
        rep = constructions.singer_sets(args.p, args.k)
    elif args.family == "small-gn":
        rep = constructions.small_gn_witness(args.g)
    elif args.family == "compose":
        s = IntSet.from_json(args.set_json)
        m = IntSet.from_json(args.mate_json)
        rep = constructions.compose_mod(s, args.g, m, args.h)
    else:  # half-modular
        s = IntSet.from_json(args.set_json)
        m = IntSet.from_json(args.mate_json)
        rep = constructions.half_modular(s, args.g, m, args.h)
    print(rep.to_json())
    return 0 if rep.verified else 1


def _cmd_search(args) -> int:
    if args.n is not None:
        dec = search.exists_set(args.kind, args.g, args.n, args.k,
                                budget=args.budget, workers=args.threads)
        _emit({
            "kind": args.kind, "g": args.g, "n": args.n, "k": args.k,
            "feasible": dec.feasible,
            "witness": list(dec.witness.elements) if dec.witness else None,
            "nodes": dec.nodes,
        })
        return 0
    limit = args.n_limit if args.n_limit is not None else 4 * args.k * args.k
    problem = search.SearchProblem(args.kind, args.g, args.k,
                                   args.n_start, limit, args.budget, args.threads)
    res = search.min_n(problem)
    _emit({
        "kind": args.kind, "g": args.g, "k": args.k,
        "min_n": res.min_n,
        "witness": list(res.witness.elements) if res.witness else None,
        "nodes": res.nodes_explored,
        "exhaustive": res.exhaustive,
    })
    return 0


def _cmd_table(args) -> int:
    kind = "modular" if args.which == "C" else "integer"
    print("kind,g,k,min_n,exhaustive,witness")
    for g, k, res in search.table_rows(kind, args.g_min, args.g_max, args.max_k,
                                       args.budget, args.threads):
        witness = " ".join(str(e) for e in res.witness.elements)
        print(f"{kind},{g},{k},{res.min_n},{res.exhaustive},{witness}", flush=True)
    return 0


def _cmd_dee(args) -> int:
    exact = args.mode == "rational"
    if args.json_file:
        with open(args.json_file) as fh:
            e = intervals.IntervalSet.from_json(fh.read())
    else:
        e = intervals.IntervalSet.of(_parse_intervals(args.intervals, exact),
                                     geometry=args.geometry)
    res = intervals.largest_symmetric_subset(e, include_profile=bool(args.profile_csv))
    if args.profile_csv:
        with open(args.profile_csv, "w") as fh:
            fh.write("center,symmetric_measure\n")
            for c, v in res.per_center_function:
                fh.write(f"{float(c):.12g},{float(v):.12g}\n")
    _emit({
        "geometry": e.geometry,
        "measure": e.measure if isinstance(e.measure, Fraction) else float(e.measure),
        "d_value": res.d_value,
        "center": res.center,
    })
    return 0


def _cmd_delta_k(args) -> int:
    value, witness = intervals.delta_k_upper(args.k, args.epsilon,
                                             restarts=args.restarts, seed=args.seed)
    _emit({
        "k": args.k, "epsilon": args.epsilon, "seed": args.seed,
        "upper_bound": value,
        "witness": [[a, b] for a, b in witness.intervals],
    })
    return 0


def _cmd_kernel(args) -> int:
    if args.pwl_file:
        import numpy as np

        data = np.loadtxt(args.pwl_file, delimiter=",")
        y = data[np.argsort(data[:, 0]), 1]
        kernel = kernels.PiecewiseLinearKernel(y)
    else:
        kernel = kernels.PiecewiseLinearKernel.from_family(args.family, args.T)
    p = _parse_p(args.p)
    tail = kernels.tail_norm(kernel, args.tail_from, p)
    khat0 = kernel.fourier_dc()
    tail1 = kernels.tail_norm(kernel, 1, p).value
    alpha, floor = kernels.alpha_mix_optimum(khat0, tail1, p) if p < 2 else (None, None)
    _emit({
        "family": args.family if not args.pwl_file else args.pwl_file,
        "T": kernel.T, "p": p, "tail_from": args.tail_from,
        "khat0": khat0,
        "khat1": kernel.coefficient(1),
        "tail_norm": tail.value,
        "full_norm": kernels.tail_norm(kernel, 0, p).value,
        "mix_alpha": alpha,
        "mix_floor": floor,
    })
    return 0


def _cmd_bounds(args) -> int:
    out: dict = {}
    if args.rho_lower:
        _require(args, "g")
        out["rho_lower"] = kernels.rho_lower(args.g).lower
    if args.rho_upper:
        _require(args, "g")
        rb = kernels.rho_upper(args.g)
        out["rho_upper_sq"] = rb.upper_sq
        out["known_exact_sq"] = rb.known_exact_sq
        out["undercuts_known"] = rb.undercuts_known
    if args.ubiquity:
        _require(args, "gamma", "alpha")
        comp, simple = kernels.ubiquity_bound(args.gamma, args.alpha)
        out["ubiquity_spectral"] = max(comp, 0.0)
        out["ubiquity_counting"] = max(simple, 0.0)
    if args.delta_half:
        _require(args, "epsilon")
        eps = args.epsilon
        floor = kernels.delta_half_lower(eps)
        out["ffinorm_floor"] = floor
        out["delta_lower"] = floor * eps * eps / 2.0
    if args.certificate:
        kernel = kernels.PiecewiseLinearKernel.from_family("K5", args.T)
        cert = kernels.BoundCertificate.from_kernel(kernel)
        threshold, ok = kernels.delta_lower_certificate(cert)
        out["certified_ffinorm"] = threshold
        out["certified"] = ok
        out["delta_quadratic_constant"] = threshold / 2.0
    if args.zeta_integral:
        out["zeta_integral"] = kernels.zeta_integral_check()
    if not out:
        print("error: pick at least one bound selector", file=sys.stderr)
        return USAGE_ERROR
    _emit(out)
    return 0


def _cmd_random(args) -> int:
    _require(args, "epsilon" if args.model == "circle" else "gamma")
    if args.model == "circle":
        rep = constructions.random_circle_set(args.n, args.epsilon, seed=args.seed)
    else:
        rep = constructions.random_integer_set(args.n, args.gamma, seed=args.seed)
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
    root = argparse.ArgumentParser(prog="bstar",
                                   description="B*[g] sets and symmetric-subset bounds")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a set against a bound g")
    p.add_argument("--set", required=True, help="comma-separated elements")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("construct", help="run a named construction")
    p.add_argument("family", choices=["ruzsa", "bose", "singer", "small-gn",
                                      "compose", "half-modular"])
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--set-json", default=None, help="first operand as IntSet JSON")
    p.add_argument("--mate-json", default=None, help="second operand as IntSet JSON")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("search", help="decide feasibility or minimize n")
    p.add_argument("--kind", choices=["integer", "modular"], required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="decide this n only")
    p.add_argument("--n-start", type=int, default=1)
    p.add_argument("--n-limit", type=int, default=None)
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("table", help="stream min-n table rows as CSV")
    p.add_argument("--which", choices=["C", "R"], required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--g-min", type=int, default=2)
    p.add_argument("--g-max", type=int, default=7)
    p.add_argument("--budget", type=int, default=search.DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("dee", help="largest symmetric subset of an interval union")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--intervals", help="a:b,c:d,... endpoints")
    source.add_argument("--json-file", default=None)
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
    p.add_argument("action", choices=["eval"])
    p.add_argument("--family", choices=sorted(kernels.PROFILES), default="K5")
    p.add_argument("--T", type=int, default=10**4)
    p.add_argument("--p", default="4/3")
    p.add_argument("--tail-from", type=int, default=1)
    p.add_argument("--pwl-file", default=None, help="CSV of t,y_t node values")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("bounds", help="closed-form bound evaluators")
    p.add_argument("--rho-lower", action="store_true")
    p.add_argument("--rho-upper", action="store_true")
    p.add_argument("--ubiquity", action="store_true")
    p.add_argument("--delta-half", action="store_true")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--zeta-integral", action="store_true")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--T", type=int, default=10**4)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("random", help="seeded probabilistic constructions")
    p.add_argument("model", choices=["circle", "integer"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-elements", action="store_true")
    p.set_defaults(fn=_cmd_random)

    return root


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
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
    except search.BudgetExceeded as exc:
        print(f"error: {exc}; the search is undecided", file=sys.stderr)
        return UNDECIDED


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
