"""Workloads of the tvgo benchmark: inputs generated from a workload seed,
and the loop that times and checks them.

A run does a fixed amount of work, set by --seconds alone and never by the
speed measured, so that two versions of the program run identical inputs.
A Monte Carlo workload (mc_*) runs `experiment_csv` at threads=1 on a fixed
number of config seeds and times its set-up several times in between.  On
mc_path and mc_events the first config also runs, before them, at
threads=nproc; every run of a config, at any thread count and in any pass,
must give a byte-identical CSV.  On mc_path and mc_grid the first trials of
the first experiment are re-solved with a certified `solve_analysis` and
compared with the CSV.  solve_tree times its set-up, then runs a fixed
number of certified draws: one `solve_analysis` and one
`solve_sqrt_analysis` with default `SolverOptions` on a trial regenerated by
`generate_trial`.  A traced pass runs the same experiments or draws, without
the separate set-up timings and the benchmark's own re-solve checks, so that
its spans hold only the program's work.
"""
from __future__ import annotations

import csv
import gc
import hashlib
import io
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from tvgo import experiments, graphs, projections, solvers, tuning

NPROC = os.cpu_count() or 1
PARENT_WINDOW = 8          # a tree vertex's parent is one of the 8 vertices before it
TREE_COMPONENTS = 4        # solve_tree: 3 active edges cut the tree into 4 parts
TREE_JITTER = 32           # solve_tree: how far a part boundary moves from n/4
# re-solved trial against the CSV's mse_plain.  The CSV comes from the batch
# solver at the experiment's tol 1e-7: over 768 mc_path trials the relative
# difference had median 1e-8, 99th percentile 7e-7 and maximum 6e-6.  A wrong
# lambda, signal or noise key moves it by far more than this bound.
MSE_RTOL = 1e-4
OMEGA_RTOL = 1e-8          # dense pseudoinverse against the sparse Laplacian solve
OMEGA_SAMPLES = 8
T, ETA, SIGMA = 2.0, 0.5, 1.0  # tuning of the certified draws where no theorem sets it


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int            # trials per Monte Carlo experiment; 0 for certified draws
    setups: int            # set-ups timed per untraced pass
    thread_check: bool     # run the first experiment at threads=nproc too
    unit_s: float          # seconds of --seconds granted to one experiment or draw
    minimum: int = 1       # experiments or draws in the shortest run
    regen: int = 0         # trials of the first experiment re-solved and checked
    omega_check: bool = False  # check omega against a sparse Laplacian solve

    def units(self, seconds: float) -> int:
        """Experiments (at threads=1) or draws in a pass of `seconds`."""
        return max(self.minimum, int(seconds / self.unit_s))


# unit_s is what one unit took on the seed code on a 2-vCPU Xeon, rounded up
# by a fifth or more to leave room in --seconds for the set-ups and checks.  The
# thread-check workloads run at least two blocks per experiment, so that the
# thread count can matter.
WORKLOADS = {w.name: w for w in [
    Workload("mc_path", trials=128, setups=48, thread_check=True, unit_s=10.0, regen=4),
    Workload("mc_grid", trials=64, setups=6, thread_check=False, unit_s=9.0, regen=4,
             omega_check=True),
    Workload("mc_events", trials=1024, setups=21, thread_check=True, unit_s=1.4),
    Workload("solve_tree", trials=0, setups=5, thread_check=False, unit_s=2.5, minimum=3),
]}


# ---------------------------------------------------------------------------
# inputs

def random_tree_parents(rng: np.random.Generator, n: int, roots=()) -> list[int]:
    """Parent array for `graphs.tree_graph`: each vertex v >= 2 draws its parent
    from the PARENT_WINDOW vertices before it.  A vertex listed in `roots`
    starts a new part: later vertices draw parents only from that part, so the
    edge into each root separates the parts exactly."""
    starts = set(roots)
    parents = []
    lo = 1
    for v in range(2, n + 1):
        if v in starts:
            lo_v = max(1, v - PARENT_WINDOW)
            lo = v
        else:
            lo_v = max(lo, v - PARENT_WINDOW)
        parents.append(int(rng.integers(lo_v, v)))
    return parents


def balanced_tree(seed: int, n: int = 2048):
    """Tree and active set of solve_tree: the edges into three part roots cut
    the tree into four parts of n/4 +- TREE_JITTER vertices."""
    rng = np.random.default_rng([seed, 2])
    part = n // TREE_COMPONENTS
    roots = [k * part + 1 + int(rng.integers(-TREE_JITTER, TREE_JITTER + 1))
             for k in range(1, TREE_COMPONENTS)]
    parents = random_tree_parents(rng, n, roots)
    return parents, [r - 1 for r in roots]   # edge i joins vertex i+1 to its parent


def experiment_dict(name: str, seed: int) -> dict:
    """Experiment config of a Monte Carlo workload; its `seed` is replaced
    per unit."""
    if name == "mc_path":
        return {"graph": {"family": "path", "params": {"n": 128}}, "S": [64],
                "signal": {"levels": [0.0, 1.0]},
                "theorems": ["plain_fast", "plain_slow", "sqrt_fast", "sqrt_slow"]}
    if name == "mc_grid":
        side = 32
        # the horizontal edge between columns 16 and 17 of every row
        cut = [(r - 1) * (side - 1) + side // 2 for r in range(1, side + 1)]
        return {"graph": {"family": "grid", "params": {"height": side, "width": side}},
                "S": cut, "signal": {"levels": [0.0, 1.0]},
                "theorems": ["plain_slow", "sqrt_slow"]}
    if name == "mc_events":
        rng = np.random.default_rng([seed, 1])
        n = 4096
        parents = random_tree_parents(rng, n)
        S = sorted(int(i) for i in rng.choice(np.arange(1, n), size=3, replace=False))
        return {"graph": {"family": "tree", "params": {"parents": parents}}, "S": S,
                "signal": {"levels": [0.0, 1.0, 0.0, 1.0]}, "theorems": []}
    raise KeyError(name)


def config_seed(seed: int, k: int) -> int:
    """Config seed (the noise key) of experiment k of a run."""
    base = int(np.random.default_rng([seed, 0]).integers(0, 2 ** 40))
    return base + k


def base_config(name: str, seed: int) -> experiments.ExperimentConfig:
    cfg = experiments.ExperimentConfig.from_dict(experiment_dict(name, seed))
    return replace(cfg, trials=WORKLOADS[name].trials, threads=1, seed=config_seed(seed, 0))


@dataclass
class TreeSetup:
    D: object
    active: object
    spec: experiments.SignalSpec
    lam: float
    lambda0: float


def tree_setup(parents, S) -> TreeSetup:
    """What `tvgo tune` and `tvgo solve` build before a solve."""
    graph = graphs.tree_graph(parents)
    D = graphs.incidence(graph)
    active = graphs.active_set(graph, S)
    report = projections.theory_report(D, active)
    lam = tuning.lambda_plain(report.gamma, SIGMA, active.n, active.r_S, T)
    lambda0 = tuning.lambda0_sqrt(report.gamma, active.n, active.r_S, T, ETA)
    spec = experiments.SignalSpec(levels=(0.0, 1.0, 0.0, 1.0))
    return TreeSetup(D, active, spec, lam, lambda0)


# ---------------------------------------------------------------------------
# checks

def csv_columns(text: str) -> dict[str, list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {col: [r[k] for r in body] for k, col in enumerate(header)}


def check_experiment(cfg, text: str, summary: dict) -> list[str]:
    """Problems with one experiment's CSV and summary (empty when correct)."""
    problems = []
    cols = csv_columns(text)
    rows = len(cols["trial"])
    if rows != cfg.trials:
        problems.append(f"CSV has {rows} rows, expected {cfg.trials}")
    for col, values in cols.items():
        bad = [v for v in values if v != "" and not math.isfinite(float(v))]
        if bad:
            problems.append(f"non-finite {col}: {bad[0]}")
    kinds = {tuning.theorem_kind(t) for t in cfg.theorems}
    for kind, col in (("plain", "mse_plain"), ("sqrt", "mse_sqrt")):
        if kind in kinds and "" in cols[col]:
            problems.append(f"{col} missing")
    for group in ("theorems", "events"):
        for key, entry in summary[group].items():
            if not entry["passes_floor"]:
                problems.append(f"{group} {key} below its floor")
    return problems


def sparse_omega(D, active, edges) -> np.ndarray:
    """omega_i = ||L+ d_i|| / sqrt(n) with L the reduced Laplacian, from a
    sparse solve grounded at one vertex of the edge's component and then
    centered; independent of the dense pseudoinverse in `projections`."""
    keep = np.asarray(active.inactive) - 1
    Dr = D[keep]
    L = (Dr.T @ Dr).tocsc()
    lab = active.comp_label
    factors = {}
    out = []
    for i in edges:
        d = D[i - 1].toarray().ravel()
        comp = lab[np.flatnonzero(d)[0]]
        if comp not in factors:
            verts = np.flatnonzero(lab == comp)
            sub = L[verts][:, verts].tocsc()
            factors[comp] = (verts, spla.splu(sub[1:, 1:].tocsc()))
        verts, lu = factors[comp]
        x = np.zeros(len(verts))
        x[1:] = lu.solve(d[verts][1:])
        x -= x.mean()
        out.append(np.linalg.norm(x) / math.sqrt(active.n))
    return np.array(out)


# ---------------------------------------------------------------------------
# the timed run

@dataclass
class Tally:
    """Everything one pass over a workload measured and checked."""

    setup_s: list = field(default_factory=list)
    mc: list = field(default_factory=list)          # (threads, trials, seconds)
    plain_ms: list = field(default_factory=list)
    sqrt_ms: list = field(default_factory=list)
    regen_rel: list = field(default_factory=list)   # |mse - CSV| / CSV per re-solve
    plain_iterations: list = field(default_factory=list)
    sqrt_iterations: list = field(default_factory=list)
    nonconverged: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, label: str, fn):
        """Run one operation.  fn returns (value, problems); an exception or a
        problem counts the operation as failed.  Returns the value, or None
        when fn raised."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            problems, value = [f"{type(exc).__name__}: {exc}"], None
        self._fail(label, problems)
        return value

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self._fail(label, problems)

    def _fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]

    def throughput(self, threads: int, setup_s: float) -> float:
        """Trials per second after a set-up of `setup_s`, summed over the
        experiments at this thread count."""
        rows = [(t, s - setup_s) for th, t, s in self.mc if th == threads]
        return sum(t for t, _ in rows) / sum(s for _, s in rows)


def _timed(fn):
    """(fn(), seconds).  Collects garbage first, so that no timed operation
    pays for garbage left by the one before, as a fresh `tvgo` process would
    not."""
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


class Runner:
    """Runs one workload for one workload seed.

    CSVs are remembered by digest, so a config run again (at another thread
    count or in the traced pass) must reproduce its CSV byte for byte.
    """

    def __init__(self, name: str, seed: int):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.tree = balanced_tree(seed) if not self.w.trials else None
        self.cfg = base_config(name, seed) if self.w.trials else None
        self.digests: dict[int, tuple[str, str]] = {}   # experiment -> first CSV

    def run(self, seconds: float, tracer=None) -> Tally:
        """One pass over `self.w.units(seconds)` experiments or draws.  An
        untraced pass times its set-ups spread evenly over the pass, a few
        before each unit, so that their median samples the whole pass and not
        one phase of a shared machine.  A traced pass times no set-up."""
        tally = Tally()
        units = self.w.units(seconds)
        due = Counter(i * units // self.w.setups for i in range(self.w.setups))
        built = None
        if tracer is not None:
            tracer.run_id = "setup"
            due = Counter()
            if not self.w.trials:
                built = tally.op("setup", self._setup)
                if built is None:
                    return tally
        for k in range(units):
            for _ in range(due[k]):
                built, dt = _timed(lambda: tally.op(f"setup{len(tally.setup_s)}", self._setup))
                if built is None:
                    return tally
                tally.setup_s.append(dt)
            if not self.w.trials:
                self._draw(tally, built, k, tracer)
                continue
            if k == 0 and self.w.thread_check and NPROC != 1:
                self._experiment(tally, built, 0, NPROC, tracer)
            self._experiment(tally, built, k, 1, tracer)
        if self.w.omega_check and built is not None:
            tally.op("omega", lambda: self._omega(built))
        return tally

    def _setup(self):
        """What the program builds before the first trial or solve."""
        if self.w.trials:
            return experiments.Experiment(self.cfg), []
        return tree_setup(*self.tree), []

    def _experiment(self, tally: Tally, exp, k: int, threads: int, tracer):
        """Experiment k of the run at the given thread count.  Its CSV must
        match every earlier run of experiment k, at any thread count.  `exp`
        is the set-up built for the re-solve checks; None skips them."""
        label = f"mc{k}/t{threads}"
        cfg = replace(self.cfg, seed=config_seed(self.seed, k), threads=threads)
        if tracer is not None:
            tracer.run_id = label
        out, dt = _timed(lambda: tally.op(label, lambda: (
            experiments.experiment_csv(cfg), [])))
        if out is None:
            return
        text, summary = out
        tally.mc.append((threads, cfg.trials, dt))
        tally.check(f"check {label}", check_experiment(cfg, text, summary))
        digest = hashlib.sha256(text.encode()).hexdigest()
        first_digest, first_label = self.digests.setdefault(k, (digest, label))
        tally.check(f"repeat {label}", [] if digest == first_digest else
                    [f"CSV differs from the one of {first_label}"])
        if threads != 1 or k != 0 or exp is None:
            return
        mse = csv_columns(text)["mse_plain"]
        for trial in range(self.w.regen):
            tally.op(f"regen mc{k}/{trial}", lambda: self._regen(
                tally, exp, cfg.seed, trial, float(mse[trial])))

    def _regen(self, tally: Tally, exp, seed: int, trial: int, want: float):
        """Certified re-solve of one CSV trial; its mse must match the CSV."""
        f0, Y, _ = experiments.generate_trial(self.cfg.signal, exp.D, exp.active,
                                              self.cfg.sigma, seed, trial)
        opts = solvers.SolverOptions()
        res = solvers.solve_analysis(Y, exp.D, exp.lam, opts)
        problems = _certificate(res, opts)
        mse = float(np.sum((res.f_hat - f0) ** 2) / exp.active.n)
        tally.regen_rel.append(abs(mse - want) / abs(want))
        if abs(mse - want) > MSE_RTOL * abs(want):
            problems.append(f"mse_plain {mse!r} differs from the CSV's {want!r}")
        return res, problems

    def _draw(self, tally: Tally, ts: TreeSetup, j: int, tracer):
        """Certified plain and square-root solve of draw j on the tree."""
        if tracer is not None:
            tracer.run_id = f"draw{j}"
        _, Y, _ = experiments.generate_trial(ts.spec, ts.D, ts.active, SIGMA,
                                             config_seed(self.seed, 0), j)
        opts = solvers.SolverOptions()
        for kind, solve, lam, ms, its in (
                ("plain", solvers.solve_analysis, ts.lam, tally.plain_ms, tally.plain_iterations),
                ("sqrt", solvers.solve_sqrt_analysis, ts.lambda0, tally.sqrt_ms,
                 tally.sqrt_iterations)):
            def certified():
                res = solve(Y, ts.D, lam, opts)
                return res, _certificate(res, opts) + (["overfits"] if res.overfit else [])
            res, dt = _timed(lambda: tally.op(f"draw{j}/{kind}", certified))
            if res is None:
                continue
            ms.append(dt * 1e3)
            its.append(res.iterations)
            tally.nonconverged += not res.converged

    def _omega(self, exp):
        rng = np.random.default_rng([self.seed, 3])
        edges = sorted(int(i) for i in rng.choice(np.asarray(exp.active.inactive),
                                                  size=OMEGA_SAMPLES, replace=False))
        want = exp.report.omega[np.asarray(edges) - 1]
        got = sparse_omega(exp.D, exp.active, edges)
        bad = np.flatnonzero(np.abs(got - want) > OMEGA_RTOL * np.abs(want))
        return got, [f"omega of edge {edges[b]}: {want[b]!r}, sparse {got[b]!r}" for b in bad]


def _certificate(res, opts) -> list[str]:
    if not res.converged:
        return ["did not converge"]
    if res.kkt_residual is None or res.kkt_residual > opts.kkt_tol:
        return [f"KKT residual {res.kkt_residual} above {opts.kkt_tol}"]
    return []
