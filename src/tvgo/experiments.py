"""Seeded Monte Carlo harness: piecewise-constant signals plus Gaussian
noise, both estimators, and empirical frequencies of the probability events
and error inequalities.

Reproducibility contract: every trial draws its noise from a counter-based
generator keyed by (master seed, trial index), trials are processed in fixed
blocks, and aggregation folds blocks in index order, so output is bit
identical for any thread count.

A block's noise is drawn trial-major: each trial fills a contiguous row from
its own key, and chunks of NOISE_CHUNK rows are written into the C-ordered
(n, B) block that the solvers and the event sums read.  The noise events are
reduced one pseudoinverse block at a time and, within a block, one slab of
EVENT_CHUNK directions at a time (T an `all`, R a `max` over each slab's
directions), so the (m-s, B) correlation matrix is never assembled and a
slab's correlations, scales and comparisons stay in cache while they are
read.  Every pseudoinverse block is read the same way, whatever its kind:
it gathers once (a tree block its prefix sums, a Laplacian block the solve
of its gathered rows), and forms each slab's edge sums from that.  This
gives the same bits as a column-by-column evaluation of T and R.

The event evaluator allocates nothing of a block's size per block of
trials, but for the solve of a Laplacian block, which is released before
the next block gathers: each thread keeps its own work arrays on the
evaluator, and they go with the evaluator.  One has n rows, for the
squared noise and then each block's gathered rows or prefix sums; three
have at most EVENT_CHUNK rows, for a slab's edge sums, their scales and
their comparisons.  The projected noise norm comes from the
(r_S, B) noise sums of the components, one product with an indicator
matrix built once, not from a projection of the whole block.  That norm rounds differently from the sum
of squares of the projection, so a trial whose X, A or A' statistic sits
exactly on its threshold could flip; byte identity of the trials CSV for
these three flags was checked on runs of the benchmark and test
configurations, not proven.  T and R keep their arithmetic (|corr|/n against
the T thresholds; the max of (|corr|/n) / (||d+||_n ||eps||_n)): a single max
of |corr| / ||d+||_n for both was tried and flipped the R flag of a tied
column that the assembled-oracle test pins.

A block of trials is a dict of numpy columns keyed by trial-CSV column name
(None where a column does not apply); `run_experiment` concatenates the
blocks, and the summary and the CSV read those columns.  Summary statistics
of an absent column are None, so the summary JSON has no NaN.
"""
from __future__ import annotations

import csv
import io
import math
import threading
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
from scipy.special import betaincinv

from . import graphs, projections, solvers, tuning
from .graphs import ActiveSet, DirectedGraph
from .solvers import SolverOptions
from .tuning import TheoremInputs

BLOCK_SIZE = 64  # trials per solver batch; fixed so results never depend on threading
EVENT_NAMES = ("T", "X", "A", "Aprime", "R")
# trials whose noise is written into a block at once: each trial draws its
# row of a (NOISE_CHUNK, n) buffer, which is then transposed into the block's
# columns.  A 64-trial block at n = 4096 took 3.35-3.48 ms at 8 rows,
# 3.25-3.28 at 16, 3.16-3.25 at 32 and 3.20-3.28 at 64 (best of 40 calls in
# each of three rounds, 2-vCPU Xeon); the buffer then holds 1 MB.
NOISE_CHUNK = 32
# pseudoinverse directions whose noise events are reduced at once: three
# (1024, 64) slabs take 1.1 MB, inside a core's 2 MB L2 cache, where the
# arrays of a whole 4,077-edge block do not fit.  flags_batch on that block
# (the mc_events tree) took 2.33-2.38 ms at 256, 2.31-2.34 at 512,
# 2.12-2.33 at 1024, 2.24-2.41 at 2048 and 2.38-2.50 in one slab (best of
# 40 calls in each of three rounds, same machine).
EVENT_CHUNK = 1024


@dataclass(frozen=True)
class SignalSpec:
    """Piecewise-constant truth: one level per component of the graph with
    the true active edges removed.  Either explicit levels or a total
    variation budget (levels then alternate 0, h with h scaled so the total
    variation equals the budget), exactly one of them.  ValueError names a
    spec with both or neither, a NaN or inf level and a budget that is not
    finite and >= 0 (a negative one would flip the pattern's sign)."""

    levels: tuple[float, ...] | None = None
    tv_budget: float | None = None

    def __post_init__(self):
        if (self.levels is None) == (self.tv_budget is None):
            raise ValueError("the signal needs exactly one of signal.levels and signal.tv_budget")
        if self.levels is not None and not np.isfinite(self.levels).all():
            raise ValueError(f"signal.levels must be finite, got {list(self.levels)}")
        if self.tv_budget is not None:
            solvers.check_level("signal.tv_budget", self.tv_budget, zero_ok=True)

    def build(self, D: sp.spmatrix, active: ActiveSet) -> np.ndarray:
        lab = active.comp_label
        if self.levels is not None:
            if len(self.levels) != active.r_S:
                raise ValueError(f"need {active.r_S} levels, got {len(self.levels)}")
            f0 = np.asarray(self.levels, dtype=np.float64)[lab]
        else:
            pattern = np.where(np.arange(active.r_S) % 2 == 0, 0.0, 1.0)[lab]
            tv = float(np.abs(D @ pattern).sum())
            f0 = pattern * (self.tv_budget / tv) if tv > 0 else pattern * 0.0
        Df0 = np.abs(D @ f0)
        support = set((np.flatnonzero(Df0 > 1e-12) + 1).tolist())
        if not support.issubset(set(active.S)):
            raise ValueError("generated signal jumps outside the true active set")
        return f0


def check_seed(name: str, seed: int) -> None:
    """Raise ValueError, naming the seed's source name, unless
    0 <= seed < 2**63: Philox keys the seed as an unsigned 64-bit word, and
    outside that range distinct seeds shared a key (2**63 + 1 that of 2**63,
    2**64 - 1 that of 0) or failed with an OverflowError."""
    if not 0 <= seed < 2 ** 63:
        raise ValueError(f"{name} must be an integer in [0, 2**63), got {seed}")


def trial_noise(sigma: float, n: int, master_seed: int, trial: int | range) -> np.ndarray:
    """Noise of trial `trial`, bit-reproducible and independent of evaluation
    order (counter-based keying): a vector of length n for one trial index,
    or for a range of trials the C-ordered (n, B) array whose column j is the
    vector of trial `trial[j]`, bit for bit.  One trial index is the
    one-trial range's single column."""
    one = not isinstance(trial, range)
    trials = range(trial, trial + 1) if one else trial
    for ti in (trials[0], trials[-1]) if trials else ():
        if not 0 <= ti < 2 ** 64:   # a Philox key word
            raise ValueError(f"trial index {ti} is not in [0, 2**64)")
    # one generator re-keyed per trial: the state setter writes every field
    # (counter, key, buffer, buffer position, cached half word), so each
    # trial starts from the state of a freshly built Philox([seed, trial])
    bitgen = np.random.Philox(key=[master_seed, trials.start])
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    # trials fill contiguous rows of a small buffer, NOISE_CHUNK at a time,
    # and each chunk is written into the columns of the block in one pass
    eps = np.empty((n, len(trials)))
    rows = np.empty((NOISE_CHUNK, n))
    for j in range(0, len(trials), NOISE_CHUNK):
        chunk = trials[j:j + NOISE_CHUNK]
        for row, ti in zip(rows, chunk):
            fresh["state"]["key"][1] = ti
            bitgen.state = fresh
            gen.standard_normal(out=row)
        part = rows[:len(chunk)]
        part *= sigma
        eps[:, j:j + len(chunk)] = part.T
    return eps[:, 0] if one else eps


def generate_trial(spec: SignalSpec, D: sp.spmatrix, active: ActiveSet,
                   sigma: float, master_seed: int, trial_index: int):
    """(f0, Y, eps) for one trial."""
    f0 = spec.build(D, active)
    eps = trial_noise(sigma, active.n, master_seed, trial_index)
    return f0, f0 + eps, eps


class EventEvaluator:
    """Precomputed machinery for the per-trial noise event indicators.

    T: every pseudoinverse direction's correlation with the noise stays below
       lam * ||column||_n / gamma.
    X: the nullspace-projected noise norm stays below sigma/sqrt(n) *
       (sqrt(r_S) + sqrt(2x)).
    A, A': two-sided chi-square windows of width driven by `a` on the
       projected and antiprojected squared norms (A' adds the upper
       antiprojection bound, so A' implies A).
    R: gamma * max_i |eps'd_i^+| / (||eps||_n ||d_i^+||_n n) <= R.

    The pseudoinverse, its column norms and gamma come from the theory
    report of the same active set.  T and R are reduced one pseudoinverse
    block at a time (an `all` and a `max` over the block's directions, which
    ignore row order), so the (m-s, B) correlation matrix is never assembled.
    X, A and A' read the projected noise norm from the per-component noise
    sums.  Blocks of trials may be evaluated from several threads at once:
    each thread has its own work arrays (see `_work`).
    """

    def __init__(self, report: projections.TheoryReport, active: ActiveSet,
                 sigma: float, lam: float, R: float, x: float, a: float):
        self.active = active
        self.sigma = sigma
        self.lam, self.R, self.x, self.a = lam, R, x, a
        self.pinv = report.pinv
        self.gamma = report.gamma
        n, r = active.n, active.r_S
        col_norms_n = report.omega[active.inactive_rows]  # ||d_i^+||_n
        thr_T = lam * col_norms_n / self.gamma
        # per pseudoinverse block: the block, its T thresholds and its column
        # norms, as (k, 1) columns that broadcast over a block of trials
        self.blocks = [(blk, thr_T[cols, None], col_norms_n[cols, None])
                       for blk, cols in zip(self.pinv.blocks, self.pinv.col_of_block)]
        # the projection is each component's mean on its vertices, so its
        # squared norm is the sum over components of (noise sum)^2 / size
        self.members = projections.component_indicator(active.comp_label)
        self.sizes = np.asarray(active.comp_sizes, dtype=np.float64)[:, None]
        self.slab_rows = min(EVENT_CHUNK, max(len(thr) for _, thr, _ in self.blocks))
        self._local = threading.local()
        self.thr_X = math.sqrt(sigma ** 2 / n) * (math.sqrt(r) + math.sqrt(2 * x))
        self.pi_lo = r - 2.0 * math.sqrt(a * r)
        self.pi_hi = r + 2.0 * math.sqrt(a * r) + 2.0 * a
        self.anti_lo = (n - r) - 2.0 * math.sqrt(a * (n - r))
        self.anti_hi = (n - r) + 2.0 * math.sqrt(a * (n - r)) + 2.0 * a

    def _work(self, B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The calling thread's work arrays for a block of B trials: one of
        shape (n, B) for the squared noise and for each pseudoinverse
        block's gathered rows or prefix sums, and three of shape
        (slab_rows, B) for a slab's edge sums, their scales and their
        comparisons.  They are kept between blocks, and grown when a wider
        block comes."""
        w, s = self.active.n, self.slab_rows
        bufs = getattr(self._local, "bufs", None)
        if bufs is None or bufs[1].size < s * B:
            bufs = self._local.bufs = (np.empty((w + 2 * s) * B), np.empty(s * B, dtype=bool))
        flat = bufs[0][:(w + 2 * s) * B].reshape(w + 2 * s, B)
        return flat[:w], flat[w:w + s], flat[w + s:], bufs[1][:s * B].reshape(s, B)

    def flags_batch(self, eps: np.ndarray,
                    eps_sq: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Boolean (B,) column per event, keyed `<name>_holds`, for a block
        of noise columns of shape (n, B); `eps_sq`, the per-trial squared
        noise norms np.sum(eps ** 2, axis=0), is computed when not given."""
        n, B = eps.shape
        # every array of the block's size but a Laplacian block's solve is
        # one of this thread's work arrays, so a block of trials allocates
        # nothing else that large
        work, corr_buf, scale_buf, below_buf = self._work(B)
        if eps_sq is None:
            # the squares go through the work array: np.sum sums a one-column
            # block pairwise, which np.einsum does not, so its bits would move
            eps_sq = np.sum(np.square(eps, out=work), axis=0)
        sums = self.members @ eps   # (r_S, B) noise sum per component
        proj_sq = np.sum(np.square(sums, out=sums) / self.sizes, axis=0)
        eps_n = np.sqrt(eps_sq / n)
        T = np.ones(B, dtype=bool)
        Rhat = np.full(B, -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for blk, thr_T, col_norms_n in self.blocks:
                G = blk.gather(eps, work)
                for lo in range(0, len(thr_T), EVENT_CHUNK):
                    hi = min(lo + EVENT_CHUNK, len(thr_T))
                    rows = hi - lo
                    scale = scale_buf[:rows]
                    corr = blk.edge_sums(G, lo, hi, corr_buf[:rows], scale)
                    np.abs(corr, out=corr)   # so a tree block's signs are never applied
                    corr /= n
                    T &= np.all(np.less_equal(corr, thr_T[lo:hi], out=below_buf[:rows]), axis=0)
                    np.multiply(col_norms_n[lo:hi], eps_n, out=scale)
                    np.maximum(Rhat, np.max(np.divide(corr, scale, out=scale), axis=0),
                               out=Rhat)
                del G   # a Laplacian block's solve goes before the next block's gather
        Rhat = np.where(eps_n == 0.0, 0.0, Rhat)  # zero noise correlates with nothing
        Rflag = self.gamma * Rhat <= self.R
        anti_sq = eps_sq - proj_sq
        X = np.sqrt(proj_sq / n) <= self.thr_X
        pi_scaled = proj_sq / self.sigma ** 2
        anti_scaled = anti_sq / self.sigma ** 2
        A = (pi_scaled >= self.pi_lo) & (pi_scaled <= self.pi_hi) & (anti_scaled >= self.anti_lo)
        Ap = A & (anti_scaled <= self.anti_hi)
        return {f"{nm}_holds": flag for nm, flag in zip(EVENT_NAMES, (T, X, A, Ap, Rflag))}


EVENT_FLOORS = dict(zip(EVENT_NAMES, (
    lambda p: 1.0 - math.exp(-p["t"]),
    lambda p: 1.0 - math.exp(-p["x"]),
    lambda p: 1.0 - 3.0 * math.exp(-p["a"]),
    lambda p: 1.0 - 4.0 * math.exp(-p["a"]),
    lambda p: 1.0 - math.exp(-p["t"]),
)))


# the ExperimentConfig fields in the config's section params, and the JSON
# key of each field whose key is not its name
_PARAMS = ("x", "t", "a", "eta")
_KEY = {"lam": "lambda"}


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment.  Its fields' annotations, with
    SignalSpec's, are the JSON config's keys and types (see from_dict)."""

    graph: DirectedGraph
    family: str
    S: tuple[int, ...]
    signal: SignalSpec
    sigma: float = 1.0
    x: float = 2.0
    t: float = 2.0
    a: float = 2.0
    eta: float = 0.5
    theorems: tuple[str, ...] = ()
    trials: int = 1000
    seed: int = 0
    lam: float | None = None        # user override; None = theorem-minimal
    lambda0: float | None = None
    grid_constant: float | None = None
    solver_tol: float = 1e-7
    threads: int = 1
    events: bool = True
    kappa_source: str = "paper_bound"
    kappa_value: float | None = None

    def __post_init__(self):
        for name in ("trials", "threads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        check_seed("seed", self.seed)
        for name, value, zero_ok in (("sigma", self.sigma, False), ("lambda", self.lam, True),
                                     ("lambda0", self.lambda0, False),
                                     ("grid_constant", self.grid_constant, False),
                                     ("solver_tol", self.solver_tol, False),
                                     ("kappa_value", self.kappa_value, False),
                                     *((f"params.{key}", getattr(self, key), False)
                                       for key in ("x", "t", "a"))):
            if value is not None:
                solvers.check_level(name, value, zero_ok)
        if self.kappa_source not in tuning.KAPPA_SOURCES:
            raise ValueError(f"kappa_source must be one of {', '.join(tuning.KAPPA_SOURCES)}; "
                             f"got {self.kappa_source!r}")
        if self.kappa_value is not None and self.kappa_source != "numeric":
            raise ValueError(f"kappa_value needs kappa_source 'numeric', got {self.kappa_source!r}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """The config of a JSON dict: a key it lacks takes its field's
        default, and a value it has must be of its field's annotated type
        (graphs.json_value).  ValueError names a section that is not an
        object, every key that config_keys lacks, a value of the wrong type
        and a missing graph family."""
        _section(cfg, "the config")
        sections = {sec: _section(cfg.get(sec, {}), f"config section {sec!r}")
                    for sec in ("graph", "signal", "params")}
        keys = config_keys()
        unknown = [key for key in cfg if key not in keys[None]] + \
            [f"{sec}.{key}" for sec, body in sections.items()
             for key in body if key not in keys[sec]]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        gspec = sections["graph"]
        if "family" not in gspec:
            raise ValueError("config needs a graph family (graph.family)")
        params = _section(gspec.get("params", {}), "config section 'graph.params'")
        graph = graphs.build_graph(gspec["family"], **params)
        spec = SignalSpec(**_read_fields(SignalSpec, sections["signal"], "signal."))
        top = {key: value for key, value in cfg.items() if key not in sections}
        return cls(graph=graph, family=gspec["family"], signal=spec,
                   **_read_fields(cls, {"S": (), **top, **sections["params"]}))


def config_keys() -> dict[str | None, set[str]]:
    """The JSON config's keys at the top level (None) and by section: the
    fields', with family in graph, _PARAMS in params and SignalSpec's in signal."""
    top = {_KEY.get(f.name, f.name) for f in fields(ExperimentConfig)}
    return {None: top - {"family", *_PARAMS} | {"params"}, "graph": {"family", "params"},
            "signal": {f.name for f in fields(SignalSpec)}, "params": set(_PARAMS)}


def _read_fields(cls, body: dict, prefix: str = "") -> dict:
    """The fields of cls that the JSON object body gives by key, each value
    read as its annotation says; ValueError names a key of the wrong type."""
    hints = typing.get_type_hints(cls)
    field = {_KEY.get(name, name): name for name in hints}
    return {field[key]: graphs.json_value(hints[field[key]], value, f"config key {prefix + key!r}")
            for key, value in body.items()}


def _section(body, where: str):
    """body, when it is a JSON object; otherwise ValueError naming where."""
    if not isinstance(body, dict):
        raise ValueError(f"{where} must be an object, got {body!r}")
    return body


CSV_BASE_COLUMNS = ["trial", "mse_plain", "mse_sqrt", "sigma_hat", "ratio_eps",
                    "overfit", "nonoverfit_holds", *(f"{nm}_holds" for nm in EVENT_NAMES)]


def _fmt(col, rows: int) -> list[str]:
    """CSV cells of one column: empty when absent, bools as 0/1, ints as
    decimals, floats at full precision."""
    if col is None:
        return [""] * rows
    if col.dtype == np.bool_:
        return ["1" if v else "0" for v in col.tolist()]
    if np.issubdtype(col.dtype, np.integer):
        return [str(v) for v in col.tolist()]
    return [format(v, ".17g") for v in col.tolist()]


def trial_columns(theorem_ids) -> list[str]:
    cols = list(CSV_BASE_COLUMNS)
    for tid in theorem_ids:
        cols += [f"{tid}_lhs", f"{tid}_rhs", f"{tid}_holds"]
    return cols


def write_trials_csv(columns: dict, theorem_ids, fh) -> None:
    """Stable-order CSV, one row per trial, full-precision floats."""
    names = trial_columns(theorem_ids)
    rows = len(columns["trial"])
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(zip(*(_fmt(columns[nm], rows) for nm in names)))


class Experiment:
    """Prepared experiment: graph, operator, tuning, and per-theorem RHS."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        # the graph's edge endpoints, read once when it was built, serve every
        # stage below that would otherwise read them back from D
        ends = cfg.graph.ends
        self.D = graphs.incidence(cfg.graph)
        self.active = graphs.active_set(cfg.graph, cfg.S)
        if not graphs.is_admissible(self.D, self.active, ends):
            raise ValueError(f"active set {list(cfg.S)} is not admissible on this graph")
        self.report = projections.theory_report(self.D, self.active, ends)
        self.f0 = cfg.signal.build(self.D, self.active)
        self.norm_Df0 = float(np.abs(self.D @ self.f0).sum())

        base = TheoremInputs(active=self.active, report=self.report,
                             family=cfg.family, sigma=cfg.sigma, t=cfg.t,
                             x=cfg.x, a=cfg.a, eta=cfg.eta, f=self.f0,
                             f0=self.f0, D=self.D,
                             kappa_source=cfg.kappa_source,
                             kappa_value=cfg.kappa_value,
                             grid_constant=cfg.grid_constant)
        self.lam, self.lambda0 = base.lam, base.lambda0 = \
            tuning.levels(cfg.theorems, base, cfg.lam, cfg.lambda0)
        self.inputs = base

        # theorem RHS values do not vary across trials when the candidate is f0
        self.rhs = {tid: tuning.oracle_rhs(tid, base) for tid in cfg.theorems}
        self.lhs_coeff = {tid: tuning.lhs_penalty_coefficient(tid, base)
                          for tid in cfg.theorems}

        lam_T = self.lam if self.lam is not None else tuning.minimal_tuning("plain_fast", base)
        R = tuning.sqrt_R_min(self.report.gamma, self.active.n, self.active.r_S, cfg.t)
        self.events = EventEvaluator(self.report, self.active, cfg.sigma, lam_T, R,
                                     cfg.x, cfg.a) if cfg.events else None
        self.solver_opts = SolverOptions(tol=cfg.solver_tol, certify=False)
        # one splitting of D for both estimators and every block of trials,
        # and the rows of S that their errors read: a CSR product is taken
        # row by row, so D_S F holds D F's rows of S bit for bit
        solves = self.lam is not None or self.lambda0 is not None
        self.split = solvers.Splitting(self.D, ends) if solves else None
        self.D_S = self.D[np.asarray(self.active.S, dtype=np.int64) - 1] if solves else None

    def _errors(self, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-column mean squared error against f0 and ||D_S F||_1."""
        sq = F - self.f0[:, None]
        np.square(sq, out=sq)
        return np.sum(sq, axis=0) / self.active.n, np.abs(self.D_S @ F).sum(axis=0)

    def run_block(self, block_index: int, lo: int, hi: int) -> dict:
        """Trials lo..hi-1 as numpy columns keyed by CSV column name, plus each
        estimator's per-trial converged and certified flags and its inner
        ADMM iteration count over the block, a one-element array (not CSV
        columns); a column that does not apply to this experiment is None."""
        cfg = self.cfg
        n = self.active.n
        idx = np.arange(lo, hi)
        cols = dict.fromkeys(trial_columns(cfg.theorems) + [f"{kind}_{flag}"
                                                            for kind in ("plain", "sqrt")
                                                            for flag in ("converged", "certified",
                                                                         "iterations")])
        cols["trial"] = idx
        eps = trial_noise(cfg.sigma, n, cfg.seed, range(lo, hi))
        eps_sq = None   # per-trial squared noise norms, for the events and sigma_hat
        if self.lam is not None or self.lambda0 is not None:
            # the squares pass through Y's memory before Y = f0 + eps fills it
            Y = np.square(eps)
            eps_sq = np.sum(Y, axis=0)
            np.add(self.f0[:, None], eps, out=Y)
        if self.events:
            cols.update(self.events.flags_batch(eps, eps_sq))
        del eps   # the events and Y have read the noise

        errors = {}  # estimator kind -> (mse, ||D_S f_hat||_1) columns
        if self.lam is not None:
            out = solvers.solve_analysis_batch(Y, self.split, self.lam, self.solver_opts)
            errors["plain"] = self._errors(out.F)
            cols.update(mse_plain=errors["plain"][0], plain_converged=out.converged,
                        plain_certified=out.certified, plain_iterations=np.array([out.iterations]))
            del out   # its F and V, before the square-root solve
        if self.lambda0 is not None:
            # the solver's penalty is 2*lambda0*||Df||_1, so the inequality's
            # lambda0 (penalty coefficient as stated) maps to lambda0/2 here
            out = solvers.solve_sqrt_analysis_batch(Y, self.split, self.lambda0 / 2.0,
                                                    self.solver_opts)
            errors["sqrt"] = self._errors(out.F)
            ratio = out.sigma_hat / np.sqrt(eps_sq / n)
            cols.update(mse_sqrt=errors["sqrt"][0], sigma_hat=out.sigma_hat, ratio_eps=ratio,
                        overfit=out.overfit, nonoverfit_holds=np.abs(ratio - 1.0) <= cfg.eta,
                        sqrt_converged=out.converged, sqrt_certified=out.certified,
                        sqrt_iterations=np.array([out.iterations]))

        for tid in cfg.theorems:
            mse, pen = errors[tuning.theorem_kind(tid)]
            lhs = mse + self.lhs_coeff[tid] * pen
            rhs = self.rhs[tid].value
            cols[f"{tid}_lhs"] = lhs
            cols[f"{tid}_rhs"] = np.full(len(idx), rhs)
            cols[f"{tid}_holds"] = lhs <= rhs
        return cols


def run_experiment(cfg: ExperimentConfig | dict):
    """Run the Monte Carlo experiment; returns (summary dict, columns): one
    numpy array per CSV column and per solver-flag column over all trials
    in order, per estimator one of its inner iteration counts over the
    blocks in order, or None for a column that does not apply."""
    if not isinstance(cfg, ExperimentConfig):
        cfg = ExperimentConfig.from_dict(cfg)
    exp = Experiment(cfg)
    blocks = [(b, lo, min(lo + BLOCK_SIZE, cfg.trials))
              for b, lo in enumerate(range(0, cfg.trials, BLOCK_SIZE))]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            futures = [pool.submit(exp.run_block, b, lo, hi) for b, lo, hi in blocks]
            results = [f.result() for f in futures]
    else:
        results = [exp.run_block(b, lo, hi) for b, lo, hi in blocks]
    columns = {nm: None if col is None else np.concatenate([block[nm] for block in results])
               for nm, col in results[0].items()}
    return _summarize(exp, columns), columns


def _frac(col) -> float | None:
    """Mean of a column; None (JSON null) for an absent column."""
    return None if col is None else float(np.mean(col))


def _holding(holds: np.ndarray, trials: int, frac_key: str, floor_key: str, floor: float,
             **extra) -> dict:
    """Summary entry of a boolean column against its probability floor: the
    fraction that holds, its 95% interval, the floor, any extra entries, and
    whether the fraction passes the floor less three binomial standard errors."""
    frac = _frac(holds)
    return {frac_key: frac, "ci95": clopper_pearson(holds), floor_key: floor, **extra,
            "passes_floor": bool(frac >= floor - 3.0 * _binom_se(floor, trials))}


def _summarize(exp: Experiment, columns: dict) -> dict:
    cfg = exp.cfg
    params = {key: getattr(cfg, key) for key in _PARAMS}
    thm_summary = {tid: _holding(columns[f"{tid}_holds"], cfg.trials, "holds_fraction",
                                 "probability_floor", exp.rhs[tid].probability,
                                 rhs_value=exp.rhs[tid].value,
                                 rhs_breakdown=exp.rhs[tid].breakdown)
                   for tid in cfg.theorems}
    events = {} if exp.events is None else {
        nm: _holding(columns[f"{nm}_holds"], cfg.trials, "fraction", "floor",
                     EVENT_FLOORS[nm](params)) for nm in EVENT_NAMES}

    def per_estimator(name, count):
        """count of each estimator's column name; None if it did not run."""
        return {kind: None if columns[f"{kind}_{name}"] is None else
                int(count(columns[f"{kind}_{name}"])) for kind in ("plain", "sqrt")}

    def failures(flag):
        """Per estimator, the trials whose flag is false."""
        return per_estimator(flag, lambda col: np.count_nonzero(~col))

    def stats(arr):
        if arr is None:
            return None
        return {"mean": float(arr.mean()), "median": float(np.median(arr)),
                "q10": float(np.quantile(arr, 0.10)), "q90": float(np.quantile(arr, 0.90))}

    return {
        "config": {
            "family": cfg.family, "n": exp.active.n, "S": list(cfg.S),
            "r_S": exp.active.r_S, "gamma": exp.report.gamma,
            "sigma": cfg.sigma, "params": params,
            "lambda": exp.lam, "lambda0": exp.lambda0,
            "trials": cfg.trials, "seed": cfg.seed,
            "norm_Df0_1": exp.norm_Df0,
        },
        "theorems": thm_summary,
        "events": events,
        "mse_plain": stats(columns["mse_plain"]),
        "mse_sqrt": stats(columns["mse_sqrt"]),
        "sigma_hat_mean": _frac(columns["sigma_hat"]),
        "overfit_rate": _frac(columns["overfit"]),
        "nonoverfit_fraction": _frac(columns["nonoverfit_holds"]),
        "nonconverged": failures("converged"),
        "uncertified": failures("certified"),
        "iterations": per_estimator("iterations", np.sum),
    }


def clopper_pearson(holds: np.ndarray) -> list[float]:
    """Exact (Clopper-Pearson) two-sided 95% interval for the probability
    that a trial holds, from a boolean column: the beta quantiles at the
    count of trials that hold, with the ends at 0 and 1 when none or all do."""
    n, k = len(holds), int(np.count_nonzero(holds))
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.025))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))
    return [lo, hi]


def _binom_se(p: float, n: int) -> float:
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


def experiment_csv(cfg: ExperimentConfig | dict) -> tuple[str, dict]:
    """Run and render the trials CSV; returns (csv text, summary)."""
    if not isinstance(cfg, ExperimentConfig):
        cfg = ExperimentConfig.from_dict(cfg)
    summary, columns = run_experiment(cfg)
    buf = io.StringIO()
    write_trials_csv(columns, cfg.theorems, buf)
    return buf.getvalue(), summary


# ---------------------------------------------------------------------------
# probability lemma verification

DEFAULT_PROB_GRID = {
    "max_gaussian": {"p": [1, 8, 64], "t": [0.5, 1.0, 2.0]},
    "chi_square": {"d": [2, 5, 10], "x": [0.5, 1.0, 2.0]},
    "ratio": {"n": [8, 16, 32], "t": [0.5, 1.0, 2.0]},
}


def verify_probability_lemmas(trials: int = 100_000, seed: int = 0,
                              grid: dict | None = None) -> dict:
    """Empirical check of the three tail bounds behind the event floors.

    For each cell, the empirical tail frequency must not exceed the stated
    bound by more than three binomial standard errors computed at the bound.
    ValueError names a trial count below 1 and a seed outside [0, 2**63).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    check_seed("seed", seed)
    grid = grid or DEFAULT_PROB_GRID
    cells = []

    def check(name, params, threshold_desc, emp, bound):
        se = _binom_se(bound, trials)
        cells.append({
            "lemma": name, "params": params, "threshold": threshold_desc,
            "empirical": emp, "bound": bound, "se": se,
            "ok": bool(emp <= bound + 3.0 * se),
        })

    key = 0
    for p in grid["max_gaussian"]["p"]:
        for t in grid["max_gaussian"]["t"]:
            gen = np.random.Generator(np.random.Philox(key=[seed, key])); key += 1
            V = gen.standard_normal((trials, p))
            thr = math.sqrt(2.0 * math.log(2.0 * p) + 2.0 * t)
            emp = float(np.mean(np.abs(V).max(axis=1) >= thr))
            check("max_gaussian", {"p": p, "t": t}, thr, emp, math.exp(-t))
    for d in grid["chi_square"]["d"]:
        for x in grid["chi_square"]["x"]:
            gen = np.random.Generator(np.random.Philox(key=[seed, key])); key += 1
            X = gen.chisquare(d, size=trials)
            hi = d + 2.0 * math.sqrt(d * x) + 2.0 * x
            lo = d - 2.0 * math.sqrt(d * x)
            check("chi_square_upper", {"d": d, "x": x}, hi,
                  float(np.mean(X >= hi)), math.exp(-x))
            check("chi_square_lower", {"d": d, "x": x}, lo,
                  float(np.mean(X <= lo)), math.exp(-x))
    for n in grid["ratio"]["n"]:
        for t in grid["ratio"]["t"]:
            if not (0 < t < (n - 1) / 2):
                continue
            gen = np.random.Generator(np.random.Philox(key=[seed, key])); key += 1
            eps = gen.standard_normal((trials, n))
            # u = sqrt(n) e_1 has ||u||_n = 1; u'eps/(n ||eps||_n) = eps_1/||eps||_2
            ratio = eps[:, 0] / np.linalg.norm(eps, axis=1)
            thr = math.sqrt(2.0 * t / (n - 1))
            check("ratio", {"n": n, "t": t}, thr,
                  float(np.mean(ratio > thr)), 2.0 * math.exp(-t))
    return {"trials": trials, "seed": seed, "cells": cells,
            "all_ok": all(c["ok"] for c in cells)}
