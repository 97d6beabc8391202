"""tvgo benchmark: Monte Carlo throughput, set-up time and certified-solve
latency on four workloads (mc_path, mc_grid, mc_events, solve_tree).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_path --seed 0 --seconds 60 --trace 0

It imports tvgo from ./src, measures for about --seconds, checks every
output, prints one line per metric and, as the last line, a JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 first makes the untraced measurement on half
the budget, then runs the same experiments or draws again with span wrappers
installed and reports the per-layer metrics and the tracing overhead.  The
amount of work depends on --seconds only (see workloads.Workload.units).
Each run also writes its full result, with the machine block and (when
traced) every span, to perfbench/out/.  perfbench/baseline.json holds such
results for the code the benchmark was written against.  BENCHMARK.json
lists the workloads (mc_grid, mc_events) and the metrics a change is held
to; mc_path and solve_tree are measured the same way but held to no bound.

Tests of the benchmark's own code: python3 -m pytest perfbench
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import spans

# name -> (unit, better).  BENCHMARK.json lists END_TO_END and PER_LAYER.
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded but not in BENCHMARK.json, because they vary between
# seeds by more than any bound the benchmark may set: throughput at
# threads=nproc (one experiment per run) and the latency of a certified
# solve (solve_tree, the only workload that reports it in its last line).
REPORTED = {
    "trials_per_s_nproc": ("1/s", "higher"),
    "solve_ms_p50": ("ms", "lower"),
    "sqrt_solve_ms_p50": ("ms", "lower"),
}
SOLVE_END_TO_END = {name: {**REPORTED, **END_TO_END}[name] for name in
                    ("solve_ms_p50", "sqrt_solve_ms_p50", "setup_s", "peak_rss_mb")}
# Per-layer metrics of the Monte Carlo workloads.  Times and call counts are
# per `experiment_csv` call of the traced pass.
PER_LAYER = {
    "solvers.plain_batch_s": ("s", "lower"),
    "solvers.sqrt_batch_s": ("s", "lower"),
    "solvers.plain_batch_calls": ("count", "lower"),
    "solvers.sqrt_batch_calls": ("count", "lower"),
    "solvers.batch_share": ("ratio", "lower"),
    "projections.theory_report_s": ("s", "lower"),
    "projections.pseudoinverse_s": ("s", "lower"),
    "projections.pseudoinverse_calls": ("count", "lower"),
    "projections.apply_transpose_s": ("s", "lower"),
    "projections.project_nullspace_s": ("s", "lower"),
    "graphs.incidence_s": ("s", "lower"),
    "graphs.active_set_s": ("s", "lower"),
    "graphs.is_admissible_s": ("s", "lower"),
    "graphs.edge_endpoints_s": ("s", "lower"),
    "graphs.edge_endpoints_calls": ("count", "lower"),
    "experiments.events_s": ("s", "lower"),
    "experiments.noise_s": ("s", "lower"),
    "experiments.noise_calls": ("count", "lower"),
    "experiments.records_s": ("s", "lower"),
    "experiments.csv_s": ("s", "lower"),
    "experiments.run_self_s": ("s", "lower"),
    "experiments.setup_self_s": ("s", "lower"),
    "experiments.block_ms_p50": ("ms", "lower"),
    "experiments.blocks": ("count", "higher"),
    "experiments.parallelism": ("ratio", "higher"),
    "trace.trials_overhead": ("ratio", "lower"),
}
# Per-layer metrics of solve_tree, which BENCHMARK.json does not list.  Times
# and call counts are per draw of the traced pass.
SOLVE_LAYER = {
    "solvers.plain_single_s": ("s", "lower"),
    "solvers.sqrt_single_s": ("s", "lower"),
    "solvers.plain_iterations": ("count", "lower"),
    "solvers.sqrt_iterations": ("count", "lower"),
    "solvers.nonconverged": ("count", "lower"),
    "solvers.kkt_s": ("s", "lower"),
    "solvers.kkt_calls": ("count", "lower"),
    "trace.solve_overhead": ("ratio", "lower"),
}
# span name -> per-layer metric holding its self time
SELF_TIME = {
    "solvers.plain_batch": "solvers.plain_batch_s",
    "solvers.sqrt_batch": "solvers.sqrt_batch_s",
    "solvers.plain_single": "solvers.plain_single_s",
    "solvers.sqrt_single": "solvers.sqrt_single_s",
    "solvers.kkt": "solvers.kkt_s",
    "projections.theory_report": "projections.theory_report_s",
    "projections.pseudoinverse": "projections.pseudoinverse_s",
    "projections.apply_transpose": "projections.apply_transpose_s",
    "projections.project_nullspace": "projections.project_nullspace_s",
    "graphs.incidence": "graphs.incidence_s",
    "graphs.active_set": "graphs.active_set_s",
    "graphs.is_admissible": "graphs.is_admissible_s",
    "graphs.edge_endpoints": "graphs.edge_endpoints_s",
    "experiments.events": "experiments.events_s",
    "experiments.noise": "experiments.noise_s",
    "experiments.block": "experiments.records_s",
    "experiments.csv": "experiments.csv_s",
    "experiments.run": "experiments.run_self_s",
    "experiments.setup": "experiments.setup_self_s",
}
CALLS = {
    "solvers.plain_batch": "solvers.plain_batch_calls",
    "solvers.sqrt_batch": "solvers.sqrt_batch_calls",
    "solvers.kkt": "solvers.kkt_calls",
    "projections.pseudoinverse": "projections.pseudoinverse_calls",
    "graphs.edge_endpoints": "graphs.edge_endpoints_calls",
    "experiments.noise": "experiments.noise_calls",
    "experiments.block": "experiments.blocks",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(tally, nproc: int, setup_s: float | None = None) -> tuple[dict, dict]:
    """(metric values, sample counts) of one pass.  Each experiment's time
    after set-up is its wall time less the median set-up of the pass, or
    less `setup_s` for a pass that timed no set-up.  A metric the workload
    does not measure reads 0 and has no sample count."""
    values, samples = {}, {}
    values["setup_s"] = _median(tally.setup_s) if tally.setup_s else setup_s
    for name, threads in (("trials_per_s", 1), ("trials_per_s_nproc", nproc)):
        rows = [r for r in tally.mc if r[0] == threads]
        values[name] = tally.throughput(threads, values["setup_s"]) if rows else 0.0
        if rows:
            samples[name] = f"{len(rows)} experiments, {sum(r[1] for r in rows)} trials"
    samples["setup_s"] = f"median of {len(tally.setup_s)} set-ups"
    for name, ms in (("solve_ms_p50", tally.plain_ms), ("sqrt_solve_ms_p50", tally.sqrt_ms)):
        values[name] = _median(ms)
        if ms:
            samples[name] = f"median of {len(ms)} solves"
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tally.regen_rel:
        samples["re-solved trials"] = (f"{len(tally.regen_rel)}, worst relative mse "
                                       f"difference {max(tally.regen_rel):.2e}")
    return values, samples


def per_layer(recorded, tally, untraced: dict, traced: dict, nproc: int,
              catalogue: dict) -> dict:
    """The metrics of `catalogue` (PER_LAYER or SOLVE_LAYER) from a traced
    pass.  Self times and call counts are divided by the experiments, or on
    solve_tree the draws, of the pass, so they do not grow with --seconds."""
    stats = spans.by_name(recorded)
    units = (sum(1 for s in recorded if s.name == "experiments.experiment_csv")
             or len(tally.plain_ms) or 1)
    empty = spans.LayerStats()
    out = {}
    for span_name, metric in SELF_TIME.items():
        out[metric] = stats.get(span_name, empty).self_s / units
    for span_name, metric in CALLS.items():
        out[metric] = stats.get(span_name, empty).calls / units
    blocks = [s.duration for s in recorded if s.name == "experiments.block"]
    out["experiments.block_ms_p50"] = _median(blocks) * 1e3
    batch_s = out["solvers.plain_batch_s"] + out["solvers.sqrt_batch_s"]
    out["solvers.batch_share"] = batch_s * units / sum(blocks) if blocks else 0.0
    nproc_runs = {s.run_id for s in recorded if s.run_id and s.run_id.endswith(f"/t{nproc}")}
    out["experiments.parallelism"] = spans.parallelism(recorded, nproc_runs)
    out["solvers.plain_iterations"] = _median(tally.plain_iterations)
    out["solvers.sqrt_iterations"] = _median(tally.sqrt_iterations)
    out["solvers.nonconverged"] = float(tally.nonconverged)
    # the share of throughput lost, or of latency added, by the wrappers
    out["trace.trials_overhead"] = (1.0 - traced["trials_per_s"] / untraced["trials_per_s"]
                                    if untraced["trials_per_s"] > 0 else 0.0)
    out["trace.solve_overhead"] = (traced["solve_ms_p50"] / untraced["solve_ms_p50"] - 1.0
                                   if untraced["solve_ms_p50"] > 0 else 0.0)
    return {name: out[name] for name in catalogue}


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = root / ".git"
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


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tvgo" / "__init__.py").is_file():
        print(f"perfbench: no tvgo sources under {root / 'src'}; "
              "run from the root of a tvgo checkout", file=sys.stderr)
        return 2
    # one BLAS thread: the only parallelism measured is the experiment's own pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = workloads.NPROC
    runner = workloads.Runner(args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(root, args.seed)}
    if not args.trace:
        tally = runner.run(args.seconds)
        values, samples = end_to_end(tally, nproc)
        catalogue = END_TO_END if runner.w.trials else SOLVE_END_TO_END
        reported = {name: {"value": values[name], "unit": REPORTED[name][0]}
                    for name in REPORTED if name not in catalogue and values[name]}
        attempted, failed, failures = tally.attempted, tally.failed, tally.failures
    else:
        tally0 = runner.run(args.seconds / 2)
        untraced, samples = end_to_end(tally0, nproc)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            tally = runner.run(args.seconds / 2, tracer=tracer)
        traced, _ = end_to_end(tally, nproc, untraced["setup_s"])
        catalogue = PER_LAYER if runner.w.trials else SOLVE_LAYER
        values = per_layer(tracer.spans, tally, untraced, traced, nproc, catalogue)
        samples = {"spans": f"{len(tracer.spans)} spans",
                   **{f"untraced {k}": v for k, v in samples.items()}}
        result["untraced"] = untraced
        result["traced"] = traced
        result["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.run_id] for s in tracer.spans]
        reported = {}
        attempted = tally0.attempted + tally.attempted
        failed = tally0.failed + tally.failed
        failures = tally0.failures + tally.failures

    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in catalogue.items()}
    result.update(units=runner.w.units(args.seconds / (1 + args.trace)), metrics=metrics, reported=reported, samples=samples,
                  attempted=attempted, failed=failed, failures=failures,
                  setup_runs=tally.setup_s, mc_runs=tally.mc,
                  plain_ms=tally.plain_ms, sqrt_ms=tally.sqrt_ms)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={result['units']}")
    print("machine " + json.dumps(result["machine"]))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for name, m in reported.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} (reported, not gated)")
    for label, text in samples.items():
        print(f"  samples {label}: {text}")
    print(f"  {attempted} operations, {failed} failed, failed_frac "
          f"{failed / max(attempted, 1):.4f}; full result in {out_file.relative_to(root)}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
