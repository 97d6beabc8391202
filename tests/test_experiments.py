import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tvgo import compatibility, experiments, graphs, projections, solvers
from tvgo.cli import dispatch
from tvgo.experiments import (EventEvaluator, SignalSpec,
                              experiment_csv, generate_trial, run_experiment,
                              trial_noise, verify_probability_lemmas)
from tvgo.graphs import active_set, incidence, path_graph

from test_polish import MC_GRID
from test_projections import _grid_edge, _grid_halves, _staircase


def test_signal_levels_constant_per_component():
    g = path_graph(10)
    D = incidence(g)
    a = active_set(g, [4, 7])
    f0 = SignalSpec(levels=(0.0, 2.0, -1.0)).build(D, a)
    assert np.array_equal(f0[:4], np.zeros(4))
    assert np.array_equal(f0[4:7], np.full(3, 2.0))
    assert np.array_equal(f0[7:], np.full(3, -1.0))
    support = set((np.flatnonzero(np.abs(D @ f0) > 1e-12) + 1).tolist())
    assert support <= set(a.S)


def test_signal_constant_levels_zero_variation():
    g = path_graph(6)
    D = incidence(g)
    a = active_set(g, [3])
    f0 = SignalSpec(levels=(1.5, 1.5)).build(D, a)
    assert np.abs(D @ f0).sum() == 0.0


def test_signal_single_jump():
    g = path_graph(100)
    D = incidence(g)
    a = active_set(g, [50])
    f0 = SignalSpec(levels=(0.0, 3.0)).build(D, a)
    assert np.abs(D @ f0).sum() == pytest.approx(3.0)


def test_signal_tv_budget():
    g = path_graph(60)
    D = incidence(g)
    a = active_set(g, [15, 30, 45])
    f0 = SignalSpec(tv_budget=1.0).build(D, a)
    assert np.abs(D @ f0).sum() == pytest.approx(1.0, rel=1e-12)


def test_signal_level_count_checked():
    g = path_graph(10)
    with pytest.raises(ValueError, match="levels"):
        SignalSpec(levels=(0.0,)).build(incidence(g), active_set(g, [5]))


@pytest.mark.parametrize("spec,named", [
    (dict(tv_budget=-1.0), "signal.tv_budget"), (dict(tv_budget=math.nan), "signal.tv_budget"),
    (dict(tv_budget=math.inf), "signal.tv_budget"), (dict(levels=(0.0, math.nan)), "signal.levels"),
    (dict(levels=(0.0, 1.0), tv_budget=1.0), "exactly one"), ({}, "exactly one")])
def test_signal_spec_is_checked_when_built(spec, named):
    # a budget of -1 ran with the pattern's sign flipped, NaN and inf failed
    # only in the solver, and levels given with a budget dropped the budget
    with pytest.raises(ValueError, match=named):
        SignalSpec(**spec)


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1, 2 ** 64, -1])
def test_seed_outside_the_philox_key_range_is_rejected(seed):
    cfg = experiments.ExperimentConfig.from_dict(
        {"graph": {"family": "path", "params": {"n": 8}}, "S": [4],
         "signal": {"levels": [0.0, 1.0]}, "trials": 2})
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*63\)"):
        dataclasses.replace(cfg, seed=seed)
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*63\)"):
        experiments.verify_probability_lemmas(trials=1, seed=seed)
    dataclasses.replace(cfg, seed=2 ** 63 - 1)   # the largest seed keys losslessly


@pytest.mark.parametrize("trial, bad", [(-1, -1), (range(-2, 3), -2), (2 ** 64, 2 ** 64),
                                        (range(5, 2 ** 64 + 1), 2 ** 64)])
def test_trial_index_outside_the_philox_key_range_is_rejected(trial, bad):
    # numpy raised OverflowError on the generator's key, naming no trial
    with pytest.raises(ValueError, match=rf"^trial index {bad} is not in \[0, 2\*\*64\)"):
        trial_noise(1.0, 4, 0, trial)
    if not isinstance(trial, range):
        g = path_graph(4)
        with pytest.raises(ValueError, match=rf"^trial index {bad} "):
            generate_trial(SignalSpec(levels=(0.0, 1.0)), incidence(g), active_set(g, [2]),
                           1.0, 0, trial)


def test_trial_noise_reproducible_and_keyed():
    e1 = trial_noise(1.0, 50, 123, 7)
    e2 = trial_noise(1.0, 50, 123, 7)
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1, trial_noise(1.0, 50, 123, 8))
    assert not np.array_equal(e1, trial_noise(1.0, 50, 124, 7))


def test_trial_noise_moments():
    # 1e5 draws: moments inside three standard errors
    draws = np.concatenate([trial_noise(2.0, 1000, 5, k) for k in range(100)])
    N = len(draws)
    assert abs(draws.mean()) <= 3 * 2.0 / math.sqrt(N)
    assert abs(draws.var() - 4.0) <= 3 * 4.0 * math.sqrt(2.0 / N)


@pytest.mark.parametrize("sigma", [1.0, 2.5])
@pytest.mark.parametrize("B", [1, 2, 37, 64])
def test_trial_noise_block_equals_scalar_columns(B, sigma):
    block = trial_noise(sigma, 37, 123, range(9, 9 + B))
    scalar = np.column_stack([trial_noise(sigma, 37, 123, t) for t in range(9, 9 + B)])
    assert block.shape == (37, B) and block.flags.c_contiguous
    assert np.array_equal(block, scalar)


def test_trial_noise_block_starts_each_trial_from_a_fresh_generator():
    # a block re-keys one generator per trial; short trials leave its output
    # buffer part used, which must not leak into the next trial
    seed = 2 ** 40 + 7
    for n in (1, 3, 5, 17):
        block = trial_noise(1.0, n, seed, range(11))
        for j in range(11):
            fresh = np.random.Generator(np.random.Philox(key=[seed, j]))
            assert np.array_equal(block[:, j], fresh.standard_normal(n)), (n, j)


@pytest.mark.parametrize("trial", [2 ** 64 - 2, 2 ** 64 - 1, range(2 ** 64 - 2, 2 ** 64)],
                         ids=["2**64-2", "2**64-1", "both"])
def test_trial_noise_keys_the_top_trial_indices_without_a_warning(trial):
    # numpy read a key list holding these indices as float64, and its cast
    # back to uint64 warned, which raises under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = trial_noise(1.0, 5, 3, trial)
    for j, ti in enumerate([trial] if isinstance(trial, int) else trial):
        fresh = np.random.Generator(np.random.Philox(key=np.array([3, ti], dtype=np.uint64)))
        assert np.array_equal(eps if isinstance(trial, int) else eps[:, j],
                              fresh.standard_normal(5))


def test_generate_trial_composition():
    g = path_graph(12)
    D = incidence(g)
    a = active_set(g, [6])
    f0, Y, eps = generate_trial(SignalSpec(levels=(0.0, 1.0)), D, a, 0.5, 9, 3)
    assert np.allclose(Y, f0 + eps)


def _evaluator(n=24, S=(12,), sigma=1.0, x=2.0, a=2.0, t=2.0):
    g = path_graph(n)
    D = incidence(g)
    act = active_set(g, list(S))
    rep = projections.theory_report(D, act)
    from tvgo import tuning
    lam = tuning.lambda_plain(rep.gamma, sigma, n, act.r_S, t)
    R = tuning.sqrt_R_min(rep.gamma, n, act.r_S, t)
    return EventEvaluator(rep, act, sigma, lam, R, x, a)


def test_event_flags_zero_noise():
    ev = _evaluator()
    flags = ev.flags_batch(np.zeros((24, 1)))
    assert {k: v.shape for k, v in flags.items()} == {
        f"{nm}_holds": (1,) for nm in experiments.EVENT_NAMES}
    # all upper-bound events hold; the two-sided window fails from below
    assert flags["T_holds"][0] and flags["X_holds"][0]
    assert not flags["A_holds"][0] and not flags["Aprime_holds"][0]
    assert flags["R_holds"][0]


def test_event_nesting_and_floors():
    ev = _evaluator()
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((24, 400))
    flags = ev.flags_batch(eps)
    assert np.all(~flags["Aprime_holds"] | flags["A_holds"])  # A' implies A
    fracs = {nm: np.mean(flags[f"{nm}_holds"]) for nm in experiments.EVENT_NAMES}
    floors = {"T": 1 - math.exp(-2), "X": 1 - math.exp(-2),
              "A": 1 - 3 * math.exp(-2), "Aprime": 1 - 4 * math.exp(-2),
              "R": 1 - math.exp(-2)}
    for nm, frac in fracs.items():
        se = math.sqrt(floors[nm] * (1 - floors[nm]) / 400)
        assert frac >= floors[nm] - 3 * se, nm


def _assembled_flags(report, ev, eps):
    """Event flags from the assembled (m-s, B) correlation matrix, by the
    formulas `flags_batch` reduces blockwise."""
    n = ev.active.n
    col_norms_n = report.omega[np.asarray(ev.active.inactive) - 1]
    corr = report.pinv.apply_transpose(eps)
    np.abs(corr, out=corr)
    corr /= n
    T = np.all(corr <= (ev.lam * col_norms_n / ev.gamma)[:, None], axis=0)
    proj_sq = np.sum(projections.project_nullspace(ev.active, eps) ** 2, axis=0)
    eps_sq = np.sum(eps ** 2, axis=0)
    pi_scaled = proj_sq / ev.sigma ** 2
    anti_scaled = (eps_sq - proj_sq) / ev.sigma ** 2
    X = np.sqrt(proj_sq / n) <= ev.thr_X
    A = (pi_scaled >= ev.pi_lo) & (pi_scaled <= ev.pi_hi) & (anti_scaled >= ev.anti_lo)
    Ap = A & (anti_scaled <= ev.anti_hi)
    eps_n = np.sqrt(eps_sq / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        Rhat = np.max(corr / (col_norms_n[:, None] * eps_n[None, :]), axis=0)
    Rhat = np.where(eps_n == 0.0, 0.0, Rhat)
    Rflag = ev.gamma * Rhat <= ev.R
    return {f"{nm}_holds": f for nm, f in zip(experiments.EVENT_NAMES, (T, X, A, Ap, Rflag))}


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return graphs.tree_graph([int(rng.integers(max(1, v - 8), v)) for v in range(2, n + 1)])


FLAG_CASES = {
    # {4} alone and {5, 8} cut off as a 2-vertex tree
    "tree_small": (graphs.tree_graph([1, 1, 2, 2, 3, 3, 5]), [3, 4]),
    # the last vertex is a leaf, so edge 299 cuts it off alone
    "tree_300": (_random_tree(300, 4), [40, 170, 299]),
    # a 2,975-vertex block, reduced in three slabs of EVENT_CHUNK edges
    "tree_3000": (_random_tree(3000, 1), [300, 2400, 2999]),
    # the edges between columns 3 and 4: two 6x3 grid blocks
    "grid_cut": (graphs.grid_graph(6, 6), [3, 8, 13, 18, 23, 28]),
    # one grid block with more columns (40 edges) than vertices (25)
    "grid_whole": (graphs.grid_graph(5, 5), []),
    # the edge from (3, 3) to (3, 4) leaves one connected dense block, no
    # rectangle, with more columns (59) than vertices (36)
    "grid_inner_edge": (graphs.grid_graph(6, 6), [13]),
    # columns 1-3 of rows 1-3 and columns 1-2 of rows 4-6 against the
    # rest: two L-shaped dense blocks
    "grid_staircase": (graphs.grid_graph(6, 6), [3, 8, 13, 45, 17, 22, 27]),
    # one Laplacian block reduced in two slabs of EVENT_CHUNK edges: the
    # whole 24x24 grid, a DCT block of 1,104 edges, and the same grid with
    # the edge from (12, 12) to (12, 13) active, a grounded block of 1,103
    "grid24_whole": (graphs.grid_graph(24, 24), []),
    "grid24_inner_edge": (graphs.grid_graph(24, 24), [_grid_edge(24, 24, 12, 12)]),
}


@pytest.mark.parametrize("case", list(FLAG_CASES))
def test_flags_batch_matches_assembled_oracle(case):
    g, S = FLAG_CASES[case]
    act = active_set(g, S)
    rep = projections.theory_report(incidence(g), act)
    eps = np.random.default_rng(len(S)).standard_normal((g.n, 64))
    eps[:, 5] = 0.0
    # T and R thresholds at the median over the noisy columns, so that both
    # flags hold on some columns and fail on others
    col_norms_n = rep.omega[np.asarray(act.inactive) - 1][:, None]
    corr = np.abs(rep.pinv.apply_transpose(eps)) / g.n
    noisy = np.flatnonzero(np.any(eps != 0.0, axis=0))
    lam_hold = np.max(corr * rep.gamma / col_norms_n, axis=0)[noisy]
    R_hold = np.max(corr / col_norms_n, axis=0)[noisy] * rep.gamma / \
        np.sqrt(np.sum(eps[:, noisy] ** 2, axis=0) / g.n)
    ev = EventEvaluator(rep, act, 1.0, float(np.median(lam_hold)),
                        float(np.median(R_hold)), 2.0, 2.0)
    blocks = {"block": eps, "one column": eps[:, :1].copy(), "zero column": eps[:, 5:6].copy()}
    for label, block in blocks.items():
        got = ev.flags_batch(block)
        want = _assembled_flags(rep, ev, block)
        assert got.keys() == want.keys(), label
        for key in want:
            assert np.array_equal(got[key], want[key]), (label, key)
    flags = ev.flags_batch(eps)
    for key in ("T_holds", "R_holds"):
        assert flags[key][noisy].any() and not flags[key][noisy].all(), key
    assert flags["T_holds"][5] and flags["R_holds"][5]   # zero noise
    assert ev.flags_batch(blocks["zero column"])["R_holds"][0]


def _median_threshold_evaluator(g, S, eps):
    """Evaluator whose T and R thresholds sit at their medians over the
    columns of eps, so that both flags hold on some columns only."""
    act = active_set(g, S)
    rep = projections.theory_report(incidence(g), act)
    col_norms_n = rep.omega[np.asarray(act.inactive) - 1][:, None]
    corr = np.abs(rep.pinv.apply_transpose(eps)) / g.n
    lam = np.max(corr * rep.gamma / col_norms_n, axis=0)
    R = np.max(corr / col_norms_n, axis=0) * rep.gamma / np.sqrt(np.sum(eps ** 2, axis=0) / g.n)
    return rep, EventEvaluator(rep, act, 1.0, float(np.median(lam)), float(np.median(R)),
                               2.0, 2.0)


@pytest.mark.parametrize("case", list(FLAG_CASES))
def test_flags_batch_reuses_work_buffers(case):
    # one evaluator keeps its work arrays between blocks: a narrower block
    # after a wider one, a wider one after a narrower one, and two threads
    # evaluating at once must all see only their own block's noise
    g, S = FLAG_CASES[case]
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((g.n, B)) for B in (64, 1, 37, 64)]
    rep, ev = _median_threshold_evaluator(g, S, np.hstack(blocks))
    want = [_assembled_flags(rep, ev, eps) for eps in blocks]
    got = [ev.flags_batch(eps) for eps in blocks]
    for w, gt in zip(want, got):
        assert gt.keys() == w.keys()
        assert all(np.array_equal(gt[key], w[key]) for key in w)
    flips = np.concatenate([gt["R_holds"] for gt in got])
    assert flips.any() and not flips.all()

    start = threading.Barrier(2)

    def worker(_):
        start.wait()
        return [ev.flags_batch(eps) for eps in blocks * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(worker, range(2)))
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for w, gt in zip(want * 3, run):
            assert all(np.array_equal(gt[key], w[key]) for key in w)



def test_flags_batch_holds_one_block_solve_at_a_time():
    # a block of trials allocates nothing of a block's size but a Laplacian
    # block's solve, which goes before the next block's gather: on the
    # mc_grid geometry (a 32x32 grid cut into two 512-vertex halves, 64
    # trials) a second call, on the thread's kept work arrays, peaks below
    # the largest block's two (n_c, B) solve arrays plus 128 KB
    side, B = 32, 64
    g = graphs.grid_graph(side, side)
    act = active_set(g, _grid_halves(side))
    rep = projections.theory_report(incidence(g), act)
    ev = EventEvaluator(rep, act, 1.0, 0.1, 0.5, 2.0, 2.0)
    eps = np.random.default_rng(0).standard_normal((g.n, B))
    ev.flags_batch(eps)
    nc = max(len(blk.vertices) for blk in rep.pinv.blocks)
    tracemalloc.start()
    try:
        ev.flags_batch(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * nc * B * 8 + 128 * 1024, peak

@pytest.mark.parametrize("case", list(FLAG_CASES))
def test_event_work_is_sized_by_the_largest_pseudoinverse_block(case):
    # each thread's gather array has the rows of the largest block, and at
    # least EVENT_CHUNK (or n) for the squared noise, then two slabs follow
    g, S = FLAG_CASES[case]
    act = active_set(g, S)
    rep = projections.theory_report(incidence(g), act)
    ev = EventEvaluator(rep, act, 1.0, 0.1, 0.5, 2.0, 2.0)
    B = 5
    ev.flags_batch(np.random.default_rng(0).standard_normal((g.n, B)))
    rows = max(max(len(blk.vertices) for blk in rep.pinv.blocks),
               min(g.n, experiments.EVENT_CHUNK))
    work, corr, scale, below = ev._work(B)
    assert work.shape == (rows, B) and corr.shape == scale.shape == below.shape
    assert ev._local.bufs[0].size == (rows + 2 * ev.slab_rows) * B


@pytest.mark.parametrize("B", [1, 2, 3, 64])
def test_square_sums_stream_the_bits_of_one_sum(B):
    # 1,000 rows through 2, 3, 100 and 512 rows of work, none a divisor of
    # what the slabs after the first take: each slab is led by the running
    # sum, so the rows add in the order of one axis-0 sum
    eps = np.random.default_rng(B).standard_normal((1000, B))
    want = np.sum(np.square(eps), axis=0)
    for rows in (2, 3, 100, 512):
        work = np.empty((rows, B))
        assert np.array_equal(experiments._square_sums(eps, work), want), rows


def test_tiny_blocks_take_no_per_row_loop(monkeypatch):
    # a path of 1,400 vertices cut into 700 two-vertex blocks: the squared
    # noise streams through EVENT_CHUNK rows, three slabs, not two rows at
    # a time
    g = path_graph(1400)
    act = active_set(g, range(2, 1400, 2))
    rep = projections.theory_report(incidence(g), act)
    assert max(len(blk.vertices) for blk in rep.pinv.blocks) == 2
    ev = EventEvaluator(rep, act, 1.0, 0.1, 0.5, 2.0, 2.0)
    eps = np.random.default_rng(1).standard_normal((g.n, 4))
    calls, square = [], np.square
    monkeypatch.setattr(np, "square", lambda *a, **k: calls.append(1) or square(*a, **k))
    got = ev.flags_batch(eps)
    monkeypatch.undo()
    assert ev._work(4)[0].shape[0] == experiments.EVENT_CHUNK
    assert len(calls) <= 4   # three slabs of squares and the component sums
    want = _assembled_flags(rep, ev, eps)
    assert all(np.array_equal(got[key], want[key]) for key in want)


def test_flags_batch_on_a_four_part_tree_holds_no_graph_sized_array():
    # the mc_events geometry: a 4,096-vertex tree whose vertices draw their
    # parents from the 8 before them in their part, cut into four parts of
    # 1,024 by the edges into the parts' first vertices.  A fresh
    # evaluator's first call allocates its work arrays, sized by the largest
    # part, 1.1 MB with the comparisons, and a second call peaks at 139 KB;
    # sized by n the work arrays took 3.1 MB
    rng = np.random.default_rng(3)
    g = graphs.tree_graph([v - 1 if v % 1024 == 1 else
                           int(rng.integers(max(v - 8, v - (v - 1) % 1024), v))
                           for v in range(2, 4097)])
    act = active_set(g, [1024, 2048, 3072])
    assert act.comp_sizes == (1024,) * 4
    rep = projections.theory_report(incidence(g), act)
    nc = max(len(blk.vertices) for blk in rep.pinv.blocks)
    B = 64
    eps = np.random.default_rng(0).standard_normal((g.n, B))
    ev = EventEvaluator(rep, act, 1.0, 0.1, 0.5, 2.0, 2.0)
    tracemalloc.start()
    try:
        ev.flags_batch(eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (nc + 2 * ev.slab_rows) * B * 8 + 256 * 1024, peak
    assert peak < g.n * B * 8, peak


@pytest.mark.parametrize("seed", [0, 3])
def test_a_block_holds_each_solver_array_once(seed):
    # block 0 of the mc_grid experiment of a benchmark seed: each estimate's
    # F and V exist once through the solver layers, the noise and the plain
    # fit go once read, the polish keeps only the patterns its rung reads
    # and holds a rung's groups a slab of columns at a time, and ADMM
    # iterates on its state's own z and u.  A second call peaks at 6.65 MB
    # (seed 0) and 9.01 MB (seed 3), the bounds 15% above; it peaked at 9.5
    # and 11.7 MB with the whole rung polished at once and copies of z and
    # u, and at 15.5 and 17.2 MB when each layer held its own F and V
    cfg_seed = int(np.random.default_rng([seed, 0]).integers(0, 2 ** 40))
    exp = experiments.Experiment(experiments.ExperimentConfig.from_dict(
        dict(MC_GRID, seed=cfg_seed)))
    exp.run_block(0, 0, 64)
    tracemalloc.start()
    try:
        exp.run_block(0, 0, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < {0: 7.6, 3: 10.3}[seed] * 2 ** 20, peak


BASE_CFG = {
    "graph": {"family": "path", "params": {"n": 64}},
    "S": [32],
    "signal": {"levels": [0.0, 1.0]},
    "sigma": 1.0,
    "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
    "theorems": ["plain_fast", "plain_slow"],
    "trials": 120,
    "seed": 31,
}


def test_setup_builds_one_pseudoinverse(monkeypatch):
    calls = []
    original = projections.pseudoinverse

    def counting(D, active, *ends):
        calls.append(active.S)
        return original(D, active, *ends)

    monkeypatch.setattr(projections, "pseudoinverse", counting)
    cfg = experiments.ExperimentConfig.from_dict(dict(BASE_CFG, events=True))
    exp = experiments.Experiment(cfg)
    assert len(calls) == 1
    assert exp.events.pinv is exp.report.pinv
    assert exp.events.gamma == exp.report.gamma


@pytest.mark.parametrize("theorems,events,builds", [(["plain_fast", "sqrt_slow"], False, 1),
                                                     ([], True, 0)])
def test_one_splitting_per_experiment(monkeypatch, theorems, events, builds):
    # both estimators and every block of trials share one splitting of D; an
    # events-only experiment runs no solver and builds none.  The polish's
    # pattern Splittings take a row slice of D, a new object, so they do
    # not count
    calls, made = [], []
    original, init = solvers.Splitting.__init__, experiments.Experiment.__init__

    def counting(self, D, *given):
        calls.append(D)
        original(self, D, *given)

    def keeping(self, config):
        init(self, config)
        made.append(self)

    monkeypatch.setattr(solvers.Splitting, "__init__", counting)
    monkeypatch.setattr(experiments.Experiment, "__init__", keeping)
    run_experiment(dict(BASE_CFG, theorems=theorems, events=events,
                        trials=experiments.BLOCK_SIZE + 6))
    [exp] = made
    assert sum(D is exp.D for D in calls) == builds


def test_config_typos_are_rejected(tmp_path):
    cfg = dict(BASE_CFG, lamda=5.0, params={"x": 2, "etaa": 0.9},
               graph={"family": "path", "params": {"n": 64}, "famly": "grid"},
               signal={"levels": [0.0, 1.0], "tv_budgett": 1.0})
    with pytest.raises(ValueError) as err:
        run_experiment(cfg)
    for key in ("lamda", "params.etaa", "graph.famly", "signal.tv_budgett"):
        assert key in str(err.value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2


def test_readme_config_schema_matches_the_code():
    # README's "Simulation config schema" parses, and names every key the
    # schema accepts, at the top level and in each section
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Simulation config schema", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    cfg = experiments.ExperimentConfig.from_dict(json.loads(example))
    assert cfg.family == "path" and cfg.S == (64,) and cfg.theorems == ("plain_fast", "plain_slow")
    keys = experiments.config_keys()
    assert {"kappa_source", "kappa_value", "lambda"} <= keys[None]
    missing = [key for sec in keys.values() for key in sec
               if f"`{key}`" not in section and f'"{key}"' not in section]
    assert missing == []


def test_config_keys_follow_the_fields():
    # every ExperimentConfig field but graph and family (the graph section
    # holds family), and every SignalSpec field, has a key
    keys = experiments.config_keys()
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    named = keys[None] | keys["params"] | keys["graph"]
    assert {"lam" if key == "lambda" else key for key in named} - {"params"} == fields
    assert keys["signal"] == {f.name for f in dataclasses.fields(SignalSpec)}
    assert keys["params"] == {"x", "t", "a", "eta"}


def test_splitting_is_not_written_by_solves_or_threads(monkeypatch):
    # batches at several penalties, then a two-thread experiment sharing the
    # same Splitting, leave every attribute bound to the object it had
    cfg = dict(BASE_CFG, theorems=["plain_fast", "sqrt_slow"], trials=3 * experiments.BLOCK_SIZE,
               threads=2)
    split = solvers.Splitting(incidence(experiments.ExperimentConfig.from_dict(cfg).graph))
    before = dict(vars(split))
    Y = np.random.default_rng(4).standard_normal((split.D.shape[1], 5))
    for level in (0.01, 0.05, 0.3):
        solvers.solve_analysis_batch(Y, split, level)
        solvers.solve_sqrt_analysis_batch(Y, split, level)
    _, expected = run_experiment(cfg)
    original = experiments.Experiment.__init__

    def sharing(self, config):
        original(self, config)
        self.split = split

    monkeypatch.setattr(experiments.Experiment, "__init__", sharing)
    _, columns = run_experiment(cfg)
    after = vars(split)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for name, col in expected.items():
        assert col is None and columns[name] is None or np.array_equal(col, columns[name])


@pytest.mark.parametrize("n", [1, 10, 150, 1000])
def test_clopper_pearson_closed_forms(n):
    none, every = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    assert experiments.clopper_pearson(none) == pytest.approx([0.0, 1.0 - 0.025 ** (1 / n)],
                                                              rel=1e-12, abs=0)
    assert experiments.clopper_pearson(every) == pytest.approx([0.025 ** (1 / n), 1.0],
                                                               rel=1e-12, abs=0)
    half = np.arange(10) % 2 == 0
    assert experiments.clopper_pearson(half) == pytest.approx([0.18709, 0.81291], abs=5e-6)


def test_summary_intervals_bracket_the_fractions():
    summary, columns = run_experiment(dict(BASE_CFG, trials=70))
    entries = [(s["holds_fraction"], s) for s in summary["theorems"].values()] + \
        [(s["fraction"], s) for s in summary["events"].values()]
    assert len(entries) == 7
    for frac, s in entries:
        lo, hi = s["ci95"]
        assert 0.0 <= lo <= frac <= hi <= 1.0 and hi - lo > 0.0, s


def test_run_experiment_plain_floors():
    summary, columns = run_experiment(dict(BASE_CFG))
    assert len(columns["trial"]) == 120
    for tid in ("plain_fast", "plain_slow"):
        s = summary["theorems"][tid]
        assert s["passes_floor"], s
    for nm, ev in summary["events"].items():
        assert ev["passes_floor"], nm
    assert summary["config"]["lambda"] > 0 and summary["config"]["lambda0"] is None
    assert summary["nonconverged"] == {"plain": 0, "sqrt": None}


def test_nonconverged_trials_are_reported_not_raised(tmp_path, monkeypatch):
    # a jump of 3 keeps every column off the full-fusion screen, whose exact
    # certificate takes no iteration and so cannot be starved
    cfg = dict(BASE_CFG, theorems=["plain_fast", "sqrt_slow"], trials=70,
               signal={"levels": [0.0, 3.0]})
    text, summary = experiment_csv(cfg)
    assert summary["nonconverged"] == {"plain": 0, "sqrt": 0}
    init = experiments.Experiment.__init__

    def starved(self, cfg):
        init(self, cfg)
        self.solver_opts = dataclasses.replace(self.solver_opts, max_iter=2)

    # a budget of two iterations per batch leaves every column of both
    # estimators unconverged: it bounds the square-root fixed point's inner
    # iterations over all its outer steps, as it bounds the plain ladder's
    monkeypatch.setattr(experiments.Experiment, "__init__", starved)
    starved_text, starved_summary = experiment_csv(cfg)
    rows = starved_text.splitlines()
    assert len(rows) == 71 and rows[0] == text.splitlines()[0]
    assert starved_summary["nonconverged"] == {"plain": 70, "sqrt": 70}
    # tvgo simulate writes both outputs, then reports the count by exit code
    path, out, summ = (tmp_path / nm for nm in ("cfg.json", "t.csv", "s.json"))
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--out", str(out),
                     "--summary", str(summ)]) == 3
    assert out.read_text() == starved_text
    assert json.loads(summ.read_text())["nonconverged"] == starved_summary["nonconverged"]


def test_run_experiment_csv_deterministic_across_threads():
    cfg1 = dict(BASE_CFG, trials=70, threads=1)
    cfg8 = dict(BASE_CFG, trials=70, threads=8)
    csv1, _ = experiment_csv(cfg1)
    csv8, _ = experiment_csv(cfg8)
    assert csv1 == csv8
    header = csv1.splitlines()[0].split(",")
    assert header[:3] == ["trial", "mse_plain", "mse_sqrt"]
    assert header[-1] == "plain_slow_holds"


def _tree_events_cfg(trials):
    """Events only on a random 512-vertex tree cut into four parts."""
    rng = np.random.default_rng(11)
    n = 512
    parents = [int(rng.integers(max(1, v - 8), v)) for v in range(2, n + 1)]
    return {"graph": {"family": "tree", "params": {"parents": parents}},
            "S": [100, 300, 450], "signal": {"levels": [0.0, 1.0, 0.0, 1.0]},
            "theorems": [], "events": True, "trials": trials, "seed": 5}


def test_tree_events_csv_identical_across_threads():
    # events only, on a tree: the pool's workers share the tree pseudoinverse
    # blocks; 16 blocks and a short switch interval make them interleave often
    cfg = _tree_events_cfg(1024)
    csv1, _ = experiment_csv(dict(cfg, threads=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        csv4, _ = experiment_csv(dict(cfg, threads=4))
    finally:
        sys.setswitchinterval(interval)
    assert len(csv1.splitlines()) == 1025
    assert csv1 == csv4


def test_event_buffers_do_not_outlive_the_experiment():
    # a 600-vertex tree whose last vertex, a leaf, is cut off alone; 150
    # trials make blocks of 64, 64 and 22
    rng = np.random.default_rng(3)
    n = 600
    parents = [int(rng.integers(max(1, v - 8), v)) for v in range(2, n + 1)]
    cfg = experiments.ExperimentConfig.from_dict(
        {"graph": {"family": "tree", "params": {"parents": parents}},
         "S": [150, 420, n - 1], "signal": {"levels": [0.0, 1.0, 0.0, 1.0]},
         "theorems": [], "events": True, "trials": 150, "seed": 17})
    text, _ = experiment_csv(cfg)
    assert len(text.splitlines()) == 151
    assert experiment_csv(dataclasses.replace(cfg, threads=3))[0] == text
    assert experiment_csv(cfg)[0] == text

    # blocks run in this thread and in a pool's: the work arrays of both
    # kinds of thread must go with the experiment and its event evaluator
    exp = experiments.Experiment(cfg)
    assert min(exp.active.comp_sizes) == 1
    exp.run_block(0, 0, 64)
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(lambda b: exp.run_block(b, 64 * b, min(64 * b + 64, 150)), (1, 2)))
    refs = [weakref.ref(exp), weakref.ref(exp.events)]
    gc.disable()   # a reference cycle would keep them alive until a collection
    try:
        del exp
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_tree_events_csv_golden_digest():
    # events only, so the bytes depend on Philox, numpy and the tree
    # pseudoinverse alone; the digest pins the CSV rendering of the columns
    text, _ = experiment_csv(dict(_tree_events_cfg(256), threads=1))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "eb9048ecd8ae921897350bf71ace43e185d6c673440f83a8057aa40d4693f94b"


# a path of 32 cut in the middle, with both estimators and the events
SOLVER_CFG = {"graph": {"family": "path", "params": {"n": 32}}, "S": [16],
              "signal": {"levels": [0.0, 1.0]}, "sigma": 1.0,
              "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
              "theorems": ["plain_fast", "sqrt_slow"], "events": True,
              "trials": 70, "seed": 41, "threads": 1}


def _flag_columns(text):
    """The overfit column and every *_holds column of a trials CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    keep = [k for k, nm in enumerate(rows[0]) if nm == "overfit" or nm.endswith("_holds")]
    return {rows[0][k]: [row[k] for row in rows[1:]] for k in keep}


def test_solver_csv_golden_digest():
    # both estimators and the events: the digest pins the bits and the
    # layout of the noise block and of Y = f0 + eps that the solvers see
    text, _ = experiment_csv(SOLVER_CFG)
    assert len(text.splitlines()) == 71
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e4e410273a16aba7e5b401e29e7488dce0b453b92200584b47c4cad8337e177e"


def test_offset_signal_levels_flag_the_same_trials():
    # the estimators see Y only through Y minus its componentwise mean, so
    # signal levels moved by 1e6 overfit no trial more and flag every bound
    # as levels [0, 1] do (a square-root overfit floor relative to ||Y||_n
    # read 8 of these 64 trials as overfit)
    cfg = dict(SOLVER_CFG, trials=64)
    flags = _flag_columns(experiment_csv(cfg)[0])
    offset = _flag_columns(experiment_csv(dict(cfg, signal={"levels": [1e6, 1e6 + 1]}))[0])
    assert "nonoverfit_holds" in flags and len(flags["overfit"]) == 64
    assert set(flags["overfit"]) == {"0"}
    assert offset == flags


def test_every_settled_sqrt_trial_of_a_path_experiment_is_certified():
    # each outer step of the square-root fixed point goes through the
    # polished ladder and settles by a verified jump, so every settled trial
    # that did not overfit carries the exact fit; the bare-ADMM fixed point
    # left 23 of these 64 uncertified after 9,004 inner iterations
    cfg = dict(SOLVER_CFG, graph={"family": "path", "params": {"n": 128}}, S=[64],
               theorems=["sqrt_slow"], events=False, trials=64)
    summary, columns = run_experiment(cfg)
    settled = columns["sqrt_converged"] & ~columns["overfit"]
    assert summary["iterations"]["sqrt"] > 0 and settled.all()
    assert columns["sqrt_certified"].all() and summary["uncertified"]["sqrt"] == 0


# an 8x8 grid cut into two halves, whose two 8x4 grid pseudoinverse blocks
# and ADMM solves set every float
GRID_CFG = {"graph": {"family": "grid", "params": {"height": 8, "width": 8}},
            "S": [(r - 1) * 7 + 4 for r in range(1, 9)],
            "signal": {"levels": [0.0, 1.0]}, "sigma": 1.0,
            "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
            "theorems": ["plain_slow", "sqrt_slow"], "events": True,
            "trials": 64, "seed": 23, "threads": 1}
GRID_CSV_DIGEST = "e3ed250a2a04777066d832a35712a4da70f78d688797fe5d06d60fca64ae96b8"


def test_grid_csv_golden_digests():
    # one digest pins the trial and boolean columns, the other the whole CSV
    text, _ = experiment_csv(GRID_CFG)
    rows = list(csv.reader(io.StringIO(text)))
    keep = [k for k, nm in enumerate(rows[0]) if nm in ("trial", "overfit") or nm.endswith("_holds")]
    assert len(rows) == 65 and len(keep) == 10
    flags = "\n".join(",".join(row[k] for k in keep) for row in rows)
    assert hashlib.sha256(flags.encode()).hexdigest() == \
        "1ee086ca796f3f63367bd0f60f7fd192807ecd1b4429941c72e177895305d48a"
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_CSV_DIGEST


# the 32x32 grid cut into two L-shaped components along the staircase
STAIRCASE_CFG = dict(GRID_CFG, graph={"family": "grid", "params": {"height": 32, "width": 32}},
                     S=_staircase(32), seed=941)
STAIRCASE_CSV_DIGEST = "cdecdc0ad5c9c93ff2a694094cf6e62afa4c76274959c4953ae6641ba0ea0852"


_GRID_CSV_BYTES = """
import hashlib, json, sys
from tvgo.experiments import experiment_csv
print(hashlib.sha256(experiment_csv(json.loads(sys.argv[1]))[0].encode()).hexdigest())
"""


def test_grid_csv_does_not_depend_on_blas_threads():
    # no pseudoinverse block of these grids is a dense LAPACK inverse: the
    # 8x8 grid's rectangle blocks and its solves are DCT-II products below
    # OpenBLAS's threading threshold, and the staircase's two L-shaped
    # components take Laplacian blocks on the grounded sparse factor, so the
    # golden bytes hold under one and two BLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for cfg, digest in ((GRID_CFG, GRID_CSV_DIGEST), (STAIRCASE_CFG, STAIRCASE_CSV_DIGEST)):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", _GRID_CSV_BYTES, json.dumps(cfg)],
                                 env=env, capture_output=True, text=True, check=True)
            assert out.stdout.strip() == digest, (cfg["S"][:3], threads)


# a random tree whose vertex v draws its parent from the 8 vertices before it,
# cut by 3 edges, with the noise events only
_TREE_PARENTS = [int(p) for p in _random_tree(300, 4).ends[:, 0] + 1]
TREE_EVENTS_CFG = {"graph": {"family": "tree", "params": {"parents": _TREE_PARENTS}},
                   "S": [40, 150, 260], "signal": {"levels": [0.0, 1.0, 0.0, 1.0]},
                   "theorems": [], "events": True, "trials": 8, "seed": 5}


@pytest.mark.parametrize("cfg", [TREE_EVENTS_CFG, GRID_CFG], ids=["tree_events", "grid"])
def test_setup_derives_the_edge_endpoints_once(monkeypatch, cfg):
    # building the graph reads its edges into endpoints; the incidence
    # matrix, the active set, the admissibility test, the pseudoinverse and
    # the solvers' splitting all read those, and none reads them back from D
    calls = []
    read_from_D, check_edges = graphs.edge_endpoints, graphs.DirectedGraph.__post_init__

    def counting(D):
        calls.append("D")
        return read_from_D(D)

    def counting_graph(graph):
        calls.append("graph")
        check_edges(graph)

    for module in (graphs, projections, compatibility):
        monkeypatch.setattr(module, "edge_endpoints", counting)
    monkeypatch.setattr(graphs.DirectedGraph, "__post_init__", counting_graph)
    cfg = experiments.ExperimentConfig.from_dict(cfg)
    exp = experiments.Experiment(cfg)
    assert calls == ["graph"]
    monkeypatch.undo()
    assert np.array_equal(cfg.graph.ends, graphs.edge_endpoints(exp.D))
    if exp.split is not None:
        assert exp.split.ends is cfg.graph.ends


def test_run_experiment_sqrt_regime():
    cfg = {
        "graph": {"family": "path", "params": {"n": 400}},
        "S": [200],
        "signal": {"levels": [0.0, 0.005]},
        "sigma": 1.0,
        "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
        "theorems": ["sqrt_fast", "sqrt_slow"],
        "trials": 80,
        "seed": 3,
        "threads": 2,
    }
    summary, columns = run_experiment(cfg)
    for tid in ("sqrt_fast", "sqrt_slow"):
        assert summary["theorems"][tid]["passes_floor"]
    floor = 1 - 3 * math.exp(-2) - math.exp(-2)
    se = math.sqrt(floor * (1 - floor) / 80)
    assert summary["nonoverfit_fraction"] >= floor - 3 * se
    assert summary["overfit_rate"] == 0.0
    assert 0.8 < summary["sigma_hat_mean"] < 1.2
    # noise-scale consistency: |sigma_hat/sigma - 1| <= eta on the same floor
    frac = np.mean(np.abs(columns["sigma_hat"] - 1.0) <= 0.5)
    assert frac >= floor - 3 * se


def test_run_experiment_other_families():
    cyc = {
        "graph": {"family": "cycle", "params": {"n": 64}},
        "S": [32, 64], "signal": {"levels": [0.0, 1.0]},
        "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
        "theorems": ["cycle_fast", "tree_cycle_slow"],
        "trials": 100, "seed": 5,
    }
    summary, _ = run_experiment(cyc)
    assert summary["theorems"]["cycle_fast"]["passes_floor"]
    assert summary["theorems"]["tree_cycle_slow"]["passes_floor"]

    grid = {
        "graph": {"family": "grid", "params": {"height": 8, "width": 8}},
        "S": [], "signal": {"levels": [0.0]},
        "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
        "theorems": ["grid_slow"], "grid_constant": 1.0,
        "trials": 100, "seed": 6,
    }
    summary, _ = run_experiment(grid)
    assert summary["theorems"]["grid_slow"]["passes_floor"]


def test_run_experiment_equal_size_corollaries():
    cfg = {
        "graph": {"family": "path", "params": {"n": 64}},
        "S": [16, 32, 48], "signal": {"levels": [0.0, 0.02, 0.0, 0.02]},
        "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
        "theorems": ["path_fast_equal", "tree_cycle_slow_equal"],
        "trials": 100, "seed": 8,
    }
    summary, _ = run_experiment(cfg)
    for tid in cfg["theorems"]:
        assert summary["theorems"][tid]["passes_floor"]


def test_run_experiment_sqrt_corollaries():
    cfg = {
        "graph": {"family": "path", "params": {"n": 400}},
        "S": [200], "signal": {"levels": [0.0, 0.004]},
        "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
        "theorems": ["sqrt_path_fast", "sqrt_tree_cycle_slow"],
        "trials": 60, "seed": 12,
    }
    summary, _ = run_experiment(cfg)
    for tid in cfg["theorems"]:
        assert summary["theorems"][tid]["passes_floor"]


def test_theorems_must_share_tuning():
    cfg = dict(BASE_CFG, theorems=["plain_fast", "path_fast"])
    with pytest.raises(ValueError, match="disagree"):
        run_experiment(cfg)


def test_inadmissible_S_rejected():
    cfg = {
        "graph": {"family": "cycle", "params": {"n": 12}},
        "S": [3], "signal": {"levels": [0.0]},
        "theorems": [], "lambda": 0.1, "trials": 4, "seed": 0,
    }
    with pytest.raises(ValueError, match="admissible"):
        run_experiment(cfg)


def test_user_lambda_without_theorems():
    cfg = {
        "graph": {"family": "path", "params": {"n": 32}},
        "S": [16], "signal": {"levels": [0.0, 1.0]},
        "theorems": [], "lambda": 0.2, "trials": 16, "seed": 2,
        "events": False,
    }
    summary, columns = run_experiment(cfg)
    assert summary["mse_plain"] is not None
    assert all(columns[f"{nm}_holds"] is None for nm in experiments.EVENT_NAMES)
    assert columns["mse_sqrt"] is None


@pytest.mark.parametrize("key,value", [("lambda", -0.05), ("lambda", math.nan), ("lambda", math.inf),
                                       ("lambda0", 0.0), ("lambda0", -0.1), ("lambda0", math.nan),
                                       ("solver_tol", 0.0), ("solver_tol", -1.0),
                                       ("sigma", 0.0), ("sigma", -1.0)])
def test_bad_penalty_or_tolerance_rejected(key, value):
    # a negative lambda used to run, a NaN one failed as a singular factor,
    # and a tolerance <= 0 spun to max_iter
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        experiments.ExperimentConfig.from_dict(dict(BASE_CFG, **{key: value}))


@pytest.mark.parametrize("key,value", [("x", 0.0), ("x", -1.0), ("t", math.nan), ("t", -2.0),
                                       ("a", 0.0), ("a", math.inf)])
def test_deviation_parameter_out_of_range_rejected(key, value):
    # eta is left to the checks where it is used
    cfg = dict(BASE_CFG, params=dict(BASE_CFG["params"], **{key: value}))
    with pytest.raises(ValueError, match=f"params.{key} must be finite and > 0"):
        experiments.ExperimentConfig.from_dict(cfg)
    with pytest.raises(ValueError, match=f"params.{key} must be finite and > 0"):
        dataclasses.replace(experiments.ExperimentConfig.from_dict(BASE_CFG), **{key: value})


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_grid_constant_out_of_range_rejected(value):
    # projections.gamma_bound rejects a constant <= 0 too, but only once a
    # grid theorem is evaluated; 0 ran grid_slow at lambda = 0
    with pytest.raises(ValueError, match="grid_constant must be finite and > 0"):
        experiments.ExperimentConfig.from_dict(dict(BASE_CFG, grid_constant=value))


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_rejected(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        experiments.ExperimentConfig.from_dict(dict(BASE_CFG, trials=trials))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_experiment(dict(BASE_CFG, trials=trials))


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_rejected(threads):
    # run_experiment used to run these on one thread
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        experiments.ExperimentConfig.from_dict(dict(BASE_CFG, threads=threads))


def test_kappa_value_needs_the_numeric_source_and_a_positive_value():
    with pytest.raises(ValueError, match="kappa_value needs kappa_source 'numeric'"):
        experiments.ExperimentConfig.from_dict(dict(BASE_CFG, kappa_value=0.01))
    for value in (0.0, -0.3, math.inf):
        with pytest.raises(ValueError, match="kappa_value must be finite and > 0"):
            experiments.ExperimentConfig.from_dict(
                dict(BASE_CFG, kappa_source="numeric", kappa_value=value))
    cfg = experiments.ExperimentConfig.from_dict(
        dict(BASE_CFG, kappa_source="numeric", kappa_value=0.3))
    assert cfg.kappa_value == 0.3


def test_verify_probability_lemmas_small():
    out = verify_probability_lemmas(trials=20_000, seed=11)
    assert out["all_ok"]
    lemmas = {c["lemma"] for c in out["cells"]}
    assert lemmas == {"max_gaussian", "chi_square_upper", "chi_square_lower", "ratio"}
    p1 = [c for c in out["cells"] if c["lemma"] == "max_gaussian"
          and c["params"] == {"p": 1, "t": 2.0}]
    assert p1 and p1[0]["threshold"] == pytest.approx(math.sqrt(2 * math.log(2) + 4))
    ch = [c for c in out["cells"] if c["lemma"] == "chi_square_upper"
          and c["params"] == {"d": 5, "x": 1.0}]
    assert ch and ch[0]["bound"] == pytest.approx(math.exp(-1))
    assert ch[0]["threshold"] == pytest.approx(5 + 2 * math.sqrt(5) + 2)
    lo = [c for c in out["cells"] if c["lemma"] == "chi_square_lower"
          and c["params"] == {"d": 10, "x": 2.0}]
    assert lo and lo[0]["threshold"] == pytest.approx(10 - 2 * math.sqrt(20))


# every remaining inequality id at its minimal tuning, 1000 trials each;
# the five ids above (plain/sqrt theorems, cycle_fast) run at 1000 trials in
# the acceptance module
COVERAGE_CONFIGS = [
    ({"graph": {"family": "path", "params": {"n": 128}}, "S": [64],
      "signal": {"levels": [0.0, 1.0]},
      "theorems": ["path_fast", "tree_cycle_slow"]}, None),
    ({"graph": {"family": "path", "params": {"n": 128}}, "S": [64],
      "signal": {"levels": [0.0, 1.0]},
      "theorems": ["path_fast_equal", "tree_cycle_slow_equal"]}, None),
    ({"graph": {"family": "path", "params": {"n": 400}}, "S": [200],
      "signal": {"levels": [0.0, 0.005]},
      "theorems": ["sqrt_path_fast", "sqrt_path_fast_equal",
                   "sqrt_tree_cycle_slow", "sqrt_tree_cycle_slow_equal"]}, None),
    ({"graph": {"family": "cycle", "params": {"n": 400}}, "S": [100, 300],
      "signal": {"levels": [0.0, 0.002]},
      "theorems": ["sqrt_cycle_fast"]}, None),
    ({"graph": {"family": "grid", "params": {"height": 20, "width": 20}},
      "S": [], "signal": {"levels": [0.0]}, "grid_constant": 1.0,
      "theorems": ["grid_slow", "sqrt_grid_slow"]}, None),
]


@pytest.mark.parametrize("extra,_", COVERAGE_CONFIGS,
                         ids=[";".join(c["theorems"]) for c, _ in COVERAGE_CONFIGS])
def test_theorem_coverage_minimal_tuning(extra, _):
    cfg = {"sigma": 1.0, "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
           "trials": 1000, "seed": 99, "threads": 4, **extra}
    summary, _records = run_experiment(cfg)
    for tid in extra["theorems"]:
        s = summary["theorems"][tid]
        assert s["passes_floor"], (tid, s["holds_fraction"], s["probability_floor"])


def test_all_theorem_ids_covered_somewhere():
    from tvgo.tuning import THEOREMS
    here = {tid for c, _ in COVERAGE_CONFIGS for tid in c["theorems"]}
    acceptance = {"plain_fast", "plain_slow", "sqrt_fast", "sqrt_slow", "cycle_fast"}
    assert here | acceptance == set(THEOREMS)


def test_hypothesis_violation_surfaced():
    cfg = {
        "graph": {"family": "cycle", "params": {"n": 12}},
        "S": [2, 4],  # component of size 2 breaks the >= 4 hypothesis
        "signal": {"levels": [0.0, 1.0]},
        "theorems": ["cycle_fast"], "trials": 4, "seed": 0,
    }
    with pytest.raises(Exception, match=">= 4"):
        run_experiment(cfg)
