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
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        text = _flatten_csv(obj)
    else:
        text = json.dumps(obj, indent=2)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
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
    """'path:8', 'cycle:5', 'grid:3x4', 'tree:@parents.txt', or a graph file path."""
    if ":" in spec:
        family, arg = spec.split(":", 1)
        if family == "path":
            return graphs.path_graph(int(arg)), "path"
        if family == "cycle":
            return graphs.cycle_graph(int(arg)), "cycle"
        if family == "grid":
            h, w = arg.lower().split("x")
            return graphs.grid_graph(int(h), int(w)), "grid"
        if family == "tree":
            fname = arg[1:] if arg.startswith("@") else arg
            with open(fname) as fh:
                parents = [int(tok) for tok in fh.read().split()]
            return graphs.tree_graph(parents), "tree"
        raise graphs.GraphError(f"unknown graph family {family!r}")
    return graphs.read_graph(spec), "file"


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


def _seed(args) -> int:
    env = os.environ.get("TVGO_SEED")
    if env is not None:
        return int(env)
    return int(getattr(args, "seed", 0) or 0)


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
    graph, _ = parse_graph_spec(args.graph)
    D = graphs.incidence(graph)
    active = graphs.active_set(graph, parse_set_spec(args.S))
    report = projections.theory_report(D, active)
    out = report.to_dict()
    out["admissible"] = graphs.is_admissible(D, active)
    _emit(out, args)
    return EXIT_OK


def _cmd_kappa(args) -> int:
    graph, family = parse_graph_spec(args.graph)
    D = graphs.incidence(graph)
    active = graphs.active_set(graph, parse_set_spec(args.S))
    report = projections.theory_report(D, active)
    weights = None if args.weights == "identity" else report.weights
    if family == "path":
        kb = compatibility.kappa_bound_path(active, weights, report.gamma)
    elif family == "cycle":
        kb = compatibility.kappa_bound_cycle(active, weights, report.gamma)
    else:
        return _fail(f"closed-form compatibility bounds exist for paths and cycles, not {family!r}")
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
        graph, _ = parse_graph_spec(args.graph)
        D = graphs.incidence(graph)
        active = graphs.active_set(graph, parse_set_spec(args.S))
        report = projections.theory_report(D, active)
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
    graph, family = parse_graph_spec(args.graph)
    D = graphs.incidence(graph)
    active = graphs.active_set(graph, parse_set_spec(args.S))
    report = projections.theory_report(D, active)
    f0 = _read_vector(args.f0) if args.f0 else np.zeros(active.n)
    f = _read_vector(args.f) if args.f else f0
    inputs = tuning.TheoremInputs(
        active=active, report=report, family=family, sigma=args.sigma,
        t=args.t, x=args.x, a=args.a, eta=args.eta, f=f, f0=f0, D=D,
        kappa_source=args.kappa_source, grid_constant=args.grid_constant)
    inputs.lam = args.lam if args.lam is not None else \
        tuning.minimal_tuning(args.theorem, inputs) \
        if tuning.theorem_kind(args.theorem) == "plain" else None
    inputs.lambda0 = args.lambda0 if args.lambda0 is not None else \
        tuning.minimal_tuning(args.theorem, inputs) \
        if tuning.theorem_kind(args.theorem) == "sqrt" else None
    if args.kappa_source == "numeric":
        inputs.kappa_value = compatibility.kappa_numeric(
            D, active, report.weights, search_budget=args.budget, seed=_seed(args))
    rhs = tuning.oracle_rhs(args.theorem, inputs)
    out = rhs.to_dict()
    out["lambda"] = inputs.lam
    out["lambda0"] = inputs.lambda0
    if args.kappa_source == "numeric" and family in ("path", "cycle"):
        # closed-form comparison value alongside the numeric-kappa one
        alt = tuning.TheoremInputs(**{**inputs.__dict__, "kappa_source": "paper_bound"})
        try:
            out["value_paper_bound"] = tuning.oracle_rhs(args.theorem, alt).value
        except tuning.TheoremHypothesisError:
            out["value_paper_bound"] = None
    _emit(out, args)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    if os.environ.get("TVGO_SEED") is not None:
        cfg_dict["seed"] = int(os.environ["TVGO_SEED"])
    elif args.seed is not None:
        cfg_dict["seed"] = args.seed
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


def _add_common(p, out=True):
    p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tvgo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="emit a canonical graph file")
    p.add_argument("--family", required=True, help="path:N | cycle:N | grid:HxW | tree:@parents")
    _add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("theory", help="antiprojection lengths, gamma, weights")
    p.add_argument("--graph", required=True)
    p.add_argument("--S", default="")
    _add_common(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("kappa", help="compatibility bounds vs numeric search")
    p.add_argument("--graph", required=True)
    p.add_argument("--S", default="")
    p.add_argument("--weights", choices=["computed", "identity"], default="computed")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("solve", help="solve one estimation problem")
    p.add_argument("--graph", required=True)
    p.add_argument("--y", required=True, help="CSV file, one value per line")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--no-certify", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("tune", help="tuning parameters, assumption checks, caps")
    p.add_argument("--graph", default=None)
    p.add_argument("--S", default="")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r-S", dest="r_S", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--x", type=float, default=2.0)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--norm-df0", dest="norm_df0", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("oracle-rhs", help="inequality right-hand side breakdown")
    p.add_argument("--theorem", required=True, choices=sorted(tuning.THEOREMS))
    p.add_argument("--graph", required=True)
    p.add_argument("--S", default="")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--x", type=float, default=2.0)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--f0", default=None, help="true signal file (defaults to zero)")
    p.add_argument("--f", default=None, help="candidate signal file (defaults to f0)")
    p.add_argument("--kappa-source", choices=["paper_bound", "numeric"],
                   default="paper_bound")
    p.add_argument("--grid-constant", type=float, default=None)
    p.add_argument("--budget", type=int, default=10_000)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle_rhs)

    p = sub.add_parser("simulate", help="run a Monte Carlo config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="trials CSV path (stdout if omitted)")
    p.add_argument("--summary", default=None, help="also write the JSON summary here")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-prob", help="Monte Carlo checks of the tail bounds")
    p.add_argument("--trials", type=int, default=100_000)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_prob)

    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (graphs.GraphError, tuning.TheoremHypothesisError,
            compatibility.HypothesisError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        return _fail(str(exc), kind=type(exc).__name__)
    except RuntimeError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "RuntimeError"}) + "\n")
        return EXIT_NONCONVERGED


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
