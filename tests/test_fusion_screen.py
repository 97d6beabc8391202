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

from tvgo import experiments, projections, solvers
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
        fused, V = solvers._fused_screen(split, centred, g.n * lam)
        assert not fused[lam < lam_max].any(), s
        for k, j in enumerate(np.flatnonzero(fused)):
            assert kkt_residual(Y[:, j], mean[:, j], D, lam[j]) <= 1e-12
            assert kkt_bound(Y[:, j], mean[:, j], split, lam[j], V[:, k]) <= 1e-15
        if s == 2.0 or not split.cyclic and s > 1.0:
            # on a forest the dual is unique, so the screen is exact
            assert fused.all(), s


@pytest.mark.parametrize("g", [grid_graph(6, 7), grid_graph(33, 34), RELABELLED_GRID,
                               DirectedGraph(7, ((1, 2), (2, 3), (3, 1), (5, 6)))],
                         ids=["grid-matrices", "grid-pocketfft", "superlu", "disconnected"])
def test_laplacian_solve_inverts_dtd_on_centred_data(g):
    # the DCT branches drop the zero mode; SuperLU grounds one vertex per
    # component (here a triangle, an edge and two isolated vertices)
    D = incidence(g)
    split = solvers.Splitting(D)
    R = np.random.default_rng(g.n).standard_normal((g.n, 3))
    R -= projections.componentwise_mean(split.labels, R)
    X = split.lap_solve(R.copy())
    assert np.abs(D.T @ (D @ X) - R).max() <= 1e-12 * np.abs(R).max()


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
    inner = solvers._admm_batch

    def spy(*args):
        calls.append(args[1].shape[1])
        return inner(*args)

    monkeypatch.setattr(solvers, "_admm_batch", spy)
    exp = experiments.Experiment(experiments.ExperimentConfig.from_dict(SQRT_CFG))
    cols = exp.run_block(0, 0, 64)
    assert calls == []
    assert cols["sqrt_converged"].all() and not cols["overfit"].any()


@pytest.mark.parametrize("sqrt", [False, True], ids=["plain", "sqrt"])
def test_mixed_batch_keeps_the_mean_and_the_rest(sqrt):
    # three noise columns, fused, and three with a jump of 4 across the
    # grid's middle, not fused
    g = grid_graph(8, 8)
    split = solvers.Splitting(incidence(g))
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((g.n, 6))
    Y[:, 3:] += 4.0 * (np.arange(g.n) % 8 >= 4)[:, None]
    solve, level = (solve_sqrt_analysis_batch, 0.02) if sqrt else (solve_analysis_batch, 0.1)
    opts = SolverOptions(tol=1e-7)
    out = solve(Y, split, level, opts)
    mean = projections.componentwise_mean(split.labels, Y)
    assert np.array_equal(out.F[:, :3], mean[:, :3])
    assert not np.any(np.all(out.F[:, 3:] == mean[:, 3:], axis=0))
    assert out.converged.all()
    # the columns left over run the ADMM batch they would run alone
    rest = solve(Y[:, 3:], split, level, opts)
    assert np.array_equal(out.F[:, 3:], rest.F) and out.iterations == rest.iterations
    assert np.array_equal(out.lam[3:], rest.lam) and np.array_equal(out.V[:, 3:], rest.V)
