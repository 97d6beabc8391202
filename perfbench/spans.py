"""Spans recorded around tvgo's public functions, from outside the program.

`traced(tracer)` replaces each function named in `targets()` by a wrapper
that records a span (name, start, end, parent span, run id) and puts the
original object back on exit.  Spans stay in memory until the caller writes
them out.  `self_times` subtracts from each span the part of its interval
that its child spans cover, so nested layers are not counted twice and
overlapping children (blocks run by the experiment's thread pool) are
counted once.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened by a thread
    with no open span of its own (a worker of the experiment's thread pool)
    takes as parent the innermost span open in the thread that created the
    tracer, which is the `run_experiment` call that submitted the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            try:
                parent = (stack or self._main_stack)[-1]
            except IndexError:   # the creating thread may close its span meanwhile
                parent = None
            with self._lock:
                sid = next(self._ids)
            run_id = self.run_id
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(sid, name, start, end, parent, run_id))
        return wrapper


def targets():
    """(owner, attribute, span name) for every wrapped tvgo function.

    A function imported into a second module by name is wrapped in both
    places, under one span name, because callers look it up in their own
    module.
    """
    from tvgo import experiments, graphs, projections, solvers
    return [
        (graphs, "incidence", "graphs.incidence"),
        (graphs, "active_set", "graphs.active_set"),
        (graphs, "is_admissible", "graphs.is_admissible"),
        (graphs, "edge_endpoints", "graphs.edge_endpoints"),
        (projections, "edge_endpoints", "graphs.edge_endpoints"),
        (projections, "theory_report", "projections.theory_report"),
        (projections, "pseudoinverse", "projections.pseudoinverse"),
        (projections, "project_nullspace", "projections.project_nullspace"),
        (projections.PseudoInverse, "apply_transpose", "projections.apply_transpose"),
        (solvers, "solve_analysis_batch", "solvers.plain_batch"),
        (solvers, "solve_sqrt_analysis_batch", "solvers.sqrt_batch"),
        (solvers, "solve_analysis", "solvers.plain_single"),
        (solvers, "solve_sqrt_analysis", "solvers.sqrt_single"),
        (solvers, "kkt_residual", "solvers.kkt"),
        (experiments, "trial_noise", "experiments.noise"),
        (experiments.EventEvaluator, "flags_batch", "experiments.events"),
        (experiments.Experiment, "__init__", "experiments.setup"),
        (experiments.Experiment, "run_block", "experiments.block"),
        (experiments, "run_experiment", "experiments.run"),
        (experiments, "write_trials_csv", "experiments.csv"),
        (experiments, "experiment_csv", "experiments.experiment_csv"),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers for the duration of the block, then restore the
    exact objects that were there before."""
    saved = []
    try:
        for owner, attr, name in targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(children[s.id], s.start, s.end)
            for s in spans}


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0


def by_name(spans) -> dict[str, LayerStats]:
    """Self time and call count per span name."""
    own = self_times(spans)
    out: dict[str, LayerStats] = defaultdict(LayerStats)
    for s in spans:
        stats = out[s.name]
        stats.self_s += own[s.id]
        stats.calls += 1
    return dict(out)


def parallelism(spans, run_ids) -> float:
    """Summed block time over the wall time of the block phase, for the
    `run_experiment` spans of the given run ids (1.0 when there are none)."""
    blocks = defaultdict(list)
    for s in spans:
        if s.name == "experiments.block":
            blocks[s.parent].append(s)
    busy = wall = 0.0
    for s in spans:
        if s.name == "experiments.run" and s.run_id in run_ids and blocks[s.id]:
            mine = blocks[s.id]
            busy += sum(b.duration for b in mine)
            wall += max(b.end for b in mine) - min(b.start for b in mine)
    return busy / wall if wall > 0 else 1.0
