"""The full-fusion screen: a column whose solution is the componentwise mean
of Y leaves the solver before any ADMM iteration, with an exact dual.

f = mean is optimal at penalty lam exactly when some v with D'v = Y - mean
has |v| <= n lam, so n lam_max, the least such bound, is the linear
program min ||v||_inf subject to D'v = Y - mean.  The screen must never
certify a column below its lam_max, and every column it certifies must pass
kkt_residual's linear program.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from tvgo import admm, experiments, graphs, polish, projections, solvers, splitting
from tvgo.graphs import (DirectedGraph, cycle_graph, grid_graph, incidence, path_graph,
                         tree_graph)
from tvgo.solvers import (SolverOptions, kkt_bound, kkt_residual, norm_n, solve_analysis_batch,
                          solve_sqrt_analysis, solve_sqrt_analysis_batch)

from test_acceptance import SQRT_CFG
from test_solvers import _relabelled

RELABELLED_GRID = _relabelled(grid_graph(6, 7), np.random.default_rng(5).permutation(42))

GRAPHS = {
    "path": path_graph(40),
    "cycle": cycle_graph(30),
    "tree": tree_graph([int(np.random.default_rng(v).integers(1, v)) for v in range(2, 41)]),
    "grid": grid_graph(6, 7),
    "relabelled-grid": RELABELLED_GRID,
}
SCALES = (0.5, 0.97, 1.03, 2.0)   # levels, as multiples of each column's lam_max


def _lam_max(D, centred):
    """The least lam at which f = mean is optimal: min ||v||_inf over
    D'v = centred, divided by n (a linear program in v and t = ||v||_inf)."""
    m, n = D.shape
    ones = np.ones((m, 1))
    eye = sp.identity(m, format="csr")
    A_ub = sp.vstack([sp.hstack([eye, -ones]), sp.hstack([-eye, -ones])])
    A_eq = sp.hstack([D.T, sp.csr_matrix((n, 1))])
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    sol = linprog(cost, A_ub=A_ub, b_ub=np.zeros(2 * m), A_eq=A_eq, b_eq=centred,
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert sol.success
    return sol.fun / n


@pytest.mark.parametrize("name", list(GRAPHS))
def test_screen_certifies_only_at_or_above_lam_max(name):
    g = GRAPHS[name]
    D = incidence(g)
    split = solvers.Splitting(D)
    assert split.cyclic == (name not in ("path", "tree"))
    rng = np.random.default_rng(len(name))
    Y = rng.standard_normal((g.n, 4)) + np.arange(4) * (np.arange(g.n) >= g.n // 2)[:, None]
    mean = projections.componentwise_mean(split.labels, Y)
    centred = Y - mean
    lam_max = np.array([_lam_max(D, centred[:, j]) for j in range(4)])
    for j in range(4):
        # kkt_residual of the mean, the linear program, brackets lam_max
        assert kkt_residual(Y[:, j], mean[:, j], D, 0.97 * lam_max[j]) > 1e-6
        assert kkt_residual(Y[:, j], mean[:, j], D, 1.03 * lam_max[j]) <= 1e-12
    for s in SCALES:
        lam = s * lam_max
        fused, V = polish._fused_screen(split, centred, g.n * lam, None,
                                        polish.SCREEN_STEPS, polish.SCREEN_BOX)
        assert not fused[lam < lam_max].any(), s
        for k, j in enumerate(np.flatnonzero(fused)):
            assert kkt_residual(Y[:, j], mean[:, j], D, lam[j]) <= 1e-12
            assert kkt_bound(Y[:, j], mean[:, j], split, lam[j], V[:, k]) <= 1e-15
        if s == 2.0 or not split.cyclic and s > 1.0:
            # on a forest the dual is unique, so the screen is exact
            assert fused.all(), s


def test_the_full_fusion_screen_reads_its_knobs_when_it_runs(monkeypatch):
    # solvers passes polish.SCREEN_STEPS and SCREEN_BOX on every call, so a
    # value set on the module reaches the screen.  Each column is scaled to
    # lam_max = 1, and at lam = 1.1 the screen fuses some of them only by
    # its alternating projections: with none it fuses fewer
    split = solvers.Splitting(incidence(GRAPHS["grid"]))
    Y = np.random.default_rng(4).standard_normal((split.D.shape[1], 16))
    centred = Y - projections.componentwise_mean(split.labels, Y)
    Y /= [_lam_max(split.D, centred[:, j]) for j in range(16)]
    calls, screen = [], polish._fused_screen

    def spy(sub, centred, bound, guess, steps, box):
        fused, V = screen(sub, centred, bound, guess, steps, box)
        if sub is split:
            calls.append((steps, box, fused.sum()))
        return fused, V

    monkeypatch.setattr(polish, "_fused_screen", spy)
    solve_analysis_batch(Y, split, 1.1)
    knobs = (polish.SCREEN_STEPS, polish.SCREEN_BOX)
    monkeypatch.setattr(polish, "SCREEN_STEPS", 0)
    monkeypatch.setattr(polish, "SCREEN_BOX", 0.9)
    solve_analysis_batch(Y, split, 1.1)
    (steps, box, fused), bare = calls
    assert (steps, box) == knobs and bare[:2] == (0, 0.9) and bare[2] < fused


BUSHY_TREE = tree_graph([int(np.random.default_rng(400).integers(1, v)) for v in range(2, 401)])


@pytest.mark.parametrize("g", [grid_graph(6, 7), grid_graph(33, 34), RELABELLED_GRID,
                               DirectedGraph(7, ((1, 2), (2, 3), (3, 1), (5, 6))), BUSHY_TREE],
                         ids=["grid-matrices", "grid-pocketfft", "superlu", "disconnected",
                              "bushy-tree"])
def test_laplacian_solve_inverts_dtd_on_centred_data(g):
    # the DCT branches drop the zero mode; the grounded factor grounds one
    # vertex per component (here a triangle, an edge and two isolated
    # vertices).  It is banded on the relabelled grid, whose reverse
    # Cuthill-McKee band is narrow, and SuperLU on the bushy tree, whose band
    # is wider than BAND_MAX
    D = incidence(g)
    split = solvers.Splitting(D)
    R = np.random.default_rng(g.n).standard_normal((g.n, 3))
    R -= projections.componentwise_mean(split.labels, R)
    X = split.lap_solve(R.copy())
    assert np.abs(D.T @ (D @ X) - R).max() <= 1e-12 * np.abs(R).max()


def _grid_halves_rows():
    """Edges of the 32x32 grid kept when the edges between its columns 16
    and 17 are cut, and four more edges elsewhere."""
    ends = graphs.edge_endpoints(incidence(grid_graph(32, 32)))
    cut = (ends[:, 1] - ends[:, 0] == 1) & (ends[:, 0] % 32 == 15)
    cut[np.random.default_rng(32).choice(np.flatnonzero(~cut), 4, replace=False)] = True
    return grid_graph(32, 32), np.flatnonzero(~cut)


# a triangle 1-2-3 whose edge (2, 3) appears three times, once reversed, and
# a path 4-5-6 whose edge (5, 6) appears twice, once reversed; vertex 7 has
# no edge.  The grounded vertices are 1 and 4, so the parallel edges join
# rows the factor keeps
PARALLEL = DirectedGraph(7, ((1, 2), (2, 3), (3, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 5)))
SUBGRAPHS = {
    "grid-halves": (*_grid_halves_rows(), False),
    "parallel-edges": (PARALLEL, np.arange(PARALLEL.m), False),
    # the edges to the tree's last three vertices, all leaves, cut
    "bushy-tree": (BUSHY_TREE, np.arange(BUSHY_TREE.m - 3), True),
    # every edge at vertices 8, 20 and 41 cut: they are isolated
    "isolated-vertices": (grid_graph(6, 7), np.flatnonzero(~np.isin(
        graphs.edge_endpoints(incidence(grid_graph(6, 7))), [8, 20, 41]).any(axis=1)), False),
}


@pytest.mark.parametrize("name", list(SUBGRAPHS))
def test_subgraph_laplacian_solve_inverts_its_dtd_on_centred_data(monkeypatch, name):
    # the polish's factor, built from the kept edges' endpoints: banded in
    # reverse Cuthill-McKee order, or SuperLU on the bushy tree, whose band
    # is wider than BAND_MAX; parallel edges add up in D_F'D_F
    g, rows, superlu = SUBGRAPHS[name]
    split = solvers.Splitting(incidence(g))
    labels = graphs.component_labels(g.n, split.ends[rows])
    splus, splu = [], splitting.spla.splu
    monkeypatch.setattr(splitting.spla, "splu", lambda A: splus.append(1) or splu(A))
    sub = solvers.Splitting(split.D[rows], split.ends[rows], labels)
    assert len(splus) == superlu
    R = np.random.default_rng(g.n).standard_normal((g.n, 3))
    R -= projections.componentwise_mean(labels, R)
    X = sub.lap_solve(R.copy())
    D_F = split.D[rows]
    assert np.abs(D_F.T @ (D_F @ X) - R).max() <= 1e-12 * np.abs(R).max()


@pytest.mark.parametrize("share", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("family", list(GRAPHS))
def test_pattern_splitting_from_the_polish_labels_agrees_with_its_own(family, share):
    # the polish hands a pattern's Splitting the group labels _group_means
    # read; built without them, it finds the same labels, the same cycle
    # test and the same Laplacian solve
    g = GRAPHS[family]
    split = solvers.Splitting(incidence(g))
    rng = np.random.default_rng(g.n)
    fused = rng.random((g.m, 1)) < share
    _, labels = polish._group_means(split, fused, rng.standard_normal((g.n, 1)))
    rows = np.flatnonzero(fused[:, 0])
    given = solvers.Splitting(split.D[rows], split.ends[rows], labels[0])
    own = solvers.Splitting(split.D[rows], split.ends[rows])
    assert np.array_equal(given.labels, own.labels)
    assert given.cyclic == own.cyclic
    R = rng.standard_normal((g.n, 3))
    R -= projections.componentwise_mean(own.labels, R)
    assert np.array_equal(given.lap_solve(R.copy()), own.lap_solve(R.copy()))


def test_shared_laplacian_factor_solves_alike_from_many_threads():
    # an experiment's threads share one Splitting, whose SuperLU factor of
    # the grounded Laplacian each of them solves with
    split = solvers.Splitting(incidence(cycle_graph(300)))
    rng = np.random.default_rng(0)
    Rs = [R - R.mean(axis=0) for R in rng.standard_normal((16, 300, 8))]
    ref = [split.lap_solve(R.copy()) for R in Rs]

    def mismatches(k):
        return sum(not np.array_equal(split.lap_solve(Rs[i].copy()), ref[i])
                   for _ in range(10) for i in range(k % 4, 16, 4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(mismatches, k) for k in range(8)]
            assert sum(f.result(timeout=60) for f in futures) == 0
    finally:
        sys.setswitchinterval(interval)


def test_fully_fused_sqrt_solve_is_exact():
    g = grid_graph(16, 16)
    Y = 0.5 + np.random.default_rng(5).standard_normal(g.n)
    res = solve_sqrt_analysis(Y, incidence(g), 0.1)
    assert res.sigma_hat == norm_n(Y - Y.mean())
    assert np.all(res.f_hat == res.f_hat[0])
    assert res.iterations == 0 and res.converged and not res.overfit
    assert res.kkt_residual <= 1e-15


def test_sqrt_acceptance_block_makes_no_admm_call(monkeypatch):
    calls = []
    inner = admm._admm_batch

    def spy(*args):
        calls.append(args[1].shape[1])
        return inner(*args)

    monkeypatch.setattr(admm, "_admm_batch", spy)
    exp = experiments.Experiment(experiments.ExperimentConfig.from_dict(SQRT_CFG))
    cols = exp.run_block(0, 0, 64)
    assert calls == []
    assert cols["sqrt_converged"].all() and not cols["overfit"].any()
    # a jump of 10 across the cut, which the screen cannot fuse, reaches the
    # same spy: the patch target is the one the fixed point calls
    Y = np.random.default_rng(1).standard_normal((exp.D.shape[1], 1))
    Y[200:] += 10.0
    solve_sqrt_analysis_batch(Y, exp.split, exp.lambda0 / 2.0, exp.solver_opts)
    assert calls and set(calls) == {1}


@pytest.mark.parametrize("sqrt", [False, True], ids=["plain", "sqrt"])
def test_mixed_batch_keeps_the_mean_and_the_rest(sqrt):
    # three noise columns, fused, three with a jump of 4 across the grid's
    # middle, not fused, and a constant column: square-root overfit at once
    # (its scale starts at 0), plain fused at its mean
    g = grid_graph(8, 8)
    split = solvers.Splitting(incidence(g))
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((g.n, 7))
    Y[:, 3:6] += 4.0 * (np.arange(g.n) % 8 >= 4)[:, None]
    Y[:, 6] = 2.5
    solve, level = (solve_sqrt_analysis_batch, 0.02) if sqrt else (solve_analysis_batch, 0.1)
    opts = SolverOptions(tol=1e-7)
    out = solve(Y, split, level, opts)
    mean = projections.componentwise_mean(split.labels, Y)
    assert np.array_equal(out.F[:, :3], mean[:, :3])
    assert not np.any(np.all(out.F[:, 3:6] == mean[:, 3:6], axis=0))
    assert out.converged.all()
    if sqrt:
        assert np.array_equal(out.F[:, 6], Y[:, 6]) and out.overfit[6] and not out.certified[6]
        assert out.sigma_hat[6] == out.lam[6] == 0.0 and not out.V[:, 6].any()
        assert not out.overfit[:6].any()
    else:
        assert np.array_equal(out.F[:, 6], mean[:, 6]) and out.certified[6]
    # the columns left over run the ADMM batch they would run alone
    rest = solve(Y[:, 3:6], split, level, opts)
    assert np.array_equal(out.F[:, 3:6], rest.F) and out.iterations == rest.iterations
    assert np.array_equal(out.lam[3:6], rest.lam) and np.array_equal(out.V[:, 3:6], rest.V)
