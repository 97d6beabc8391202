"""Command-line entry point.

Subcommands: graph, theory, kappa, solve, tune, oracle-rhs, simulate,
verify-prob.  Output is JSON by default (CSV where a table is natural);
errors are emitted as one structured JSON line on stderr.  Exit codes:
0 success, 2 validation error, 3 solver non-convergence.

The environment variable TVGO_SEED, when set, overrides any --seed flag.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import compatibility, experiments, graphs, projections, solvers, tuning

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3


def _fail(message: str, kind: str = "validation") -> int:
    sys.stderr.write(json.dumps({"error": message, "type": kind}) + "\n")
    return EXIT_VALIDATION


def _emit(obj: dict, args) -> None:
    text = _flatten_csv(obj) if args.format == "csv" else json.dumps(obj, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _flatten_csv(obj: dict, prefix: str = "") -> str:
    rows = []

    def walk(o, pre):
        if isinstance(o, dict):
            for k, v in o.items():
                walk(v, f"{pre}{k}.")
        elif isinstance(o, (list, tuple)):
            rows.append((pre.rstrip("."), ";".join(_num(v) for v in o)))
        else:
            rows.append((pre.rstrip("."), _num(o)))

    def _num(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    walk(obj, prefix)
    return "\n".join(f"{k},{v}" for k, v in rows)


def parse_graph_spec(spec: str) -> tuple[graphs.DirectedGraph, str]:
    """'path:8', 'cycle:5', 'grid:3x4', 'tree:@parents.txt', or a graph file
    path; a family spec names the parameters of graphs.build_graph."""
    if ":" not in spec:
        return graphs.read_graph(spec), "file"
    family, arg = spec.split(":", 1)
    if family == "tree":
        with open(arg.removeprefix("@")) as fh:
            params = {"parents": [int(tok) for tok in fh.read().split()]}
    elif family == "grid":
        params = dict(zip(("height", "width"), arg.lower().split("x", 1)))
    else:
        params = {"n": arg}
    return graphs.build_graph(family, **params), family


def parse_set_spec(spec: str | None) -> tuple[int, ...]:
    """Comma-separated indices, or '@file' with one index per line."""
    if not spec:
        return ()
    if spec.startswith("@"):
        return graphs.read_active_set(spec[1:])
    return tuple(sorted(set(int(tok) for tok in spec.split(",") if tok.strip())))


def _read_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.array([float(line) for line in fh.read().split()])


def _seed(args) -> int | None:
    seed = os.environ.get("TVGO_SEED", args.seed)
    return None if seed is None else int(seed)


def _graph_setup(args):
    """(family, D, active set, theory report) of --graph and --S."""
    graph, family = parse_graph_spec(args.graph)
    D = graphs.incidence(graph)
    active = graphs.active_set(graph, parse_set_spec(args.S))
    return family, D, active, projections.theory_report(D, active)


def _cmd_graph(args) -> int:
    graph, _ = parse_graph_spec(args.family)
    if args.out:
        graphs.write_graph(graph, args.out)
    else:
        sys.stdout.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edges:
            sys.stdout.write(f"{u} {v}\n")
    return EXIT_OK


def _cmd_theory(args) -> int:
    _, D, active, report = _graph_setup(args)
    out = report.to_dict()
    out["admissible"] = graphs.is_admissible(D, active)
    _emit(out, args)
    return EXIT_OK


def _cmd_kappa(args) -> int:
    family, D, active, report = _graph_setup(args)
    weights = None if args.weights == "identity" else report.weights
    kb = compatibility.kappa_bound(family, active, weights, report.gamma)
    kappa_num = compatibility.kappa_numeric(D, active, weights,
                                            search_budget=args.budget,
                                            steps=args.steps, seed=_seed(args))
    out = kb.to_dict()
    out["numeric_kappa_estimate"] = kappa_num
    out["sqrt_rs_over_kappa_numeric"] = math.sqrt(active.r_S) / kappa_num
    out["kappa_paper_lower_bound"] = math.sqrt(active.r_S) / kb.sqrt_rs_over_kappa_weighted
    _emit(out, args)
    return EXIT_OK


def _cmd_solve(args) -> int:
    graph, _ = parse_graph_spec(args.graph)
    D = graphs.incidence(graph)
    Y = _read_vector(args.y)
    opts = solvers.SolverOptions(tol=args.tol, max_iter=args.max_iter,
                                 certify=not args.no_certify)
    if (args.lam is None) == (args.lambda0 is None):
        return _fail("pass exactly one of --lambda or --lambda0")
    if args.lam is not None:
        res = solvers.solve_analysis(Y, D, args.lam, opts)
    else:
        res = solvers.solve_sqrt_analysis(Y, D, args.lambda0, opts)
    _emit(res.to_dict(), args)
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _cmd_tune(args) -> int:
    if args.graph:
        _, _, active, report = _graph_setup(args)
        n, r_S, gamma = active.n, active.r_S, report.gamma
    else:
        if args.n is None or args.r_S is None or args.gamma is None:
            return _fail("pass --graph/--S or all of --n, --r-S, --gamma")
        n, r_S, gamma = args.n, args.r_S, args.gamma
    lam = tuning.lambda_plain(gamma, args.sigma, n, r_S, args.t)
    out = {
        "n": n, "r_S": r_S, "gamma": gamma,
        "lambda_plain": lam,
        "t_max_sqrt": tuning.t_max_sqrt(n, r_S),
    }
    try:
        lam0 = tuning.lambda0_sqrt(gamma, n, r_S, args.t, args.eta)
        out["lambda0_sqrt"] = lam0
    except ValueError as exc:
        out["lambda0_sqrt"] = None
        out["lambda0_error"] = str(exc)
        lam0 = None
    use_lam0 = args.lambda0 if args.lambda0 is not None else lam0
    if use_lam0 is not None and n > 8 * args.a:
        out["assumption1"] = tuning.check_assumption1(
            n, r_S, gamma, args.sigma, args.a, args.eta, args.t, use_lam0,
            args.norm_df0).to_dict()
        out["admissible_caps"] = tuning.admissible_set_requirements(
            use_lam0, args.a, args.t, args.eta, n).to_dict()
    _emit(out, args)
    return EXIT_OK


def _cmd_oracle_rhs(args) -> int:
    family, D, active, report = _graph_setup(args)
    f0 = _read_vector(args.f0) if args.f0 else np.zeros(active.n)
    f = _read_vector(args.f) if args.f else f0
    inputs = tuning.TheoremInputs(
        active=active, report=report, family=family, sigma=args.sigma,
        t=args.t, x=args.x, a=args.a, eta=args.eta, f=f, f0=f0, D=D,
        kappa_source=args.kappa_source, grid_constant=args.grid_constant)
    inputs.lam, inputs.lambda0 = tuning.levels([args.theorem], inputs, args.lam, args.lambda0)
    if args.kappa_source == "numeric":
        inputs.kappa_value = compatibility.kappa_numeric(
            D, active, report.weights, search_budget=args.budget, seed=_seed(args))
    rhs = tuning.oracle_rhs(args.theorem, inputs)
    out = rhs.to_dict()
    out["lambda"] = inputs.lam
    out["lambda0"] = inputs.lambda0
    if args.kappa_source == "numeric" and family in compatibility.CLOSED_FORMS:
        # closed-form comparison value alongside the numeric-kappa one
        alt = tuning.TheoremInputs(**{**inputs.__dict__, "kappa_source": "paper_bound"})
        try:
            out["value_paper_bound"] = tuning.oracle_rhs(args.theorem, alt).value
        except compatibility.HypothesisError:
            out["value_paper_bound"] = None
    _emit(out, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    seed = _seed(args)
    if seed is not None:
        cfg_dict["seed"] = seed
    if args.threads is not None:
        cfg_dict["threads"] = args.threads
    csv_text, summary = experiments.experiment_csv(cfg_dict)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(csv_text)
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        sys.stdout.write(csv_text)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_NONCONVERGED if any(summary["nonconverged"].values()) else EXIT_OK


def _cmd_verify_prob(args) -> int:
    out = experiments.verify_probability_lemmas(trials=args.trials, seed=_seed(args))
    _emit(out, args)
    return EXIT_OK


# each flag that several subcommands take, declared once: its
# add_argument options by flag name
_SHARED_FLAGS = {
    "graph": dict(required=True), "S": dict(default=""),
    "out": dict(default=None, help="output file (stdout if omitted)"),
    "format": dict(choices=["json", "csv"], default="json"),
    "seed": dict(type=int, default=0), "budget": dict(type=int, default=10_000),
    "lambda": dict(dest="lam", type=float, default=None),
    "lambda0": dict(type=float, default=None),
    **{name: dict(type=float, default=value) for name, value in
       (("sigma", 1.0), ("t", 2.0), ("x", 2.0), ("a", 2.0), ("eta", 0.5))},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tvgo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, shared, help):
        """A subcommand running func, with the shared flags named in shared."""
        p = sub.add_parser(name, help=help)
        for flag in shared.split():
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("graph", _cmd_graph, "out", "emit a canonical graph file")
    p.add_argument("--family", required=True, help="path:N | cycle:N | grid:HxW | tree:@parents")

    command("theory", _cmd_theory, "graph S out format", "antiprojection lengths, gamma, weights")

    p = command("kappa", _cmd_kappa, "graph S budget out format seed",
                "compatibility bounds vs numeric search")
    p.add_argument("--weights", choices=["computed", "identity"], default="computed")
    p.add_argument("--steps", type=int, default=200)

    p = command("solve", _cmd_solve, "graph lambda lambda0 out format",
                "solve one estimation problem")
    p.add_argument("--y", required=True, help="CSV file, one value per line")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--no-certify", action="store_true")

    p = command("tune", _cmd_tune, "S sigma t a eta lambda0 out format",
                "tuning parameters, assumption checks, caps")
    p.add_argument("--graph", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r-S", dest="r_S", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--norm-df0", dest="norm_df0", type=float, default=0.0)

    p = command("oracle-rhs", _cmd_oracle_rhs,
                "graph S sigma t x a eta lambda lambda0 budget out format seed",
                "inequality right-hand side breakdown")
    p.add_argument("--theorem", required=True, choices=sorted(tuning.THEOREMS))
    p.add_argument("--f0", default=None, help="true signal file (defaults to zero)")
    p.add_argument("--f", default=None, help="candidate signal file (defaults to f0)")
    p.add_argument("--kappa-source", choices=tuning.KAPPA_SOURCES, default="paper_bound")
    p.add_argument("--grid-constant", type=float, default=None)

    # the config's own seed unless --seed (or TVGO_SEED) overrides it
    p = command("simulate", _cmd_simulate, "out seed", "run a Monte Carlo config")
    p.set_defaults(seed=None)
    p.add_argument("--config", required=True)
    p.add_argument("--summary", default=None, help="also write the JSON summary here")
    p.add_argument("--threads", type=int, default=None)

    p = command("verify-prob", _cmd_verify_prob, "out format seed",
                "Monte Carlo checks of the tail bounds")
    p.add_argument("--trials", type=int, default=100_000)
    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # hypothesis, graph and JSON errors included
        return _fail(str(exc), kind=type(exc).__name__)
    except RuntimeError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "RuntimeError"}) + "\n")
        return EXIT_NONCONVERGED


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
