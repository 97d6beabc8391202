"""Output contract of the batched solvers.

Each column leaves the ADMM batch at the first iteration where it meets the
stopping test, so columns of one batch stop at different iterations.  What
a batch returns must still hold up column by column: every column converged,
a certified KKT residual within kkt_tol, an objective within 1e-5 relative of
a tight single-column solve, and a warm-start state whose scaled dual agrees
with the returned iterate at the batch's one penalty rho.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgo import experiments, graphs, projections, solvers
from tvgo.solvers import SolverOptions, _objective, kkt_residual, norm_n

B = 24
SIDE = 6
FAMILIES = {
    "path": ({"family": "path", "params": {"n": 48}}, [24]),
    "cycle": ({"family": "cycle", "params": {"n": 40}}, [10, 30]),
    "tree": ({"family": "tree", "params": {"parents": [max(1, v - 1 - (v * 7) % 5)
                                                       for v in range(2, 41)]}}, [5, 20]),
    "grid": ({"family": "grid", "params": {"height": SIDE, "width": SIDE}},
             [(r - 1) * (SIDE - 1) + SIDE // 2 for r in range(1, SIDE + 1)]),
}
TIGHT = SolverOptions(tol=1e-11, certify=False)
GAP = 1e-5   # relative objective excess allowed over the tight reference


def _block(family):
    """(D, Y, lam, lambda0, opts) of the first block of a small experiment,
    with the experiment's own solver options (tol 1e-7)."""
    graph, S = FAMILIES[family]
    cfg = experiments.ExperimentConfig.from_dict(
        {"graph": graph, "S": S, "signal": {"tv_budget": 2.0}, "lambda": 0.02,
         "lambda0": 0.1, "trials": B, "seed": 3, "events": False})
    exp = experiments.Experiment(cfg)
    eps = experiments.trial_noise(cfg.sigma, exp.active.n, cfg.seed, range(B))
    return exp.D, exp.f0[:, None] + eps, exp.lam, exp.lambda0 / 2.0, exp.solver_opts


def _cold_batch(D, Y, lams, opts):
    """solvers._admm_batch from a cold state: f = Y, z = DY, u = 0."""
    split = solvers.Splitting(D)
    centred = Y - projections.componentwise_mean(split.labels, Y)
    return solvers._admm_batch(solvers._AdmmState(split, Y, lams, centred), Y, lams, opts)


def _dual_mismatch(D, Y, state):
    """Per column ||rho D'u - (Y - f)|| / ||Y - f||: the f-update's optimality
    condition, which a warm-start state meets up to the stopping tolerance."""
    R = Y - state.F
    return np.linalg.norm(state.rho * (D.T @ state.U) - R, axis=0) / np.linalg.norm(R, axis=0)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_batch_columns_converge_certify_and_match_single_solves(family):
    D, Y, lam, _, opts = _block(family)
    lams = np.full(B, lam)
    F, state, it, conv = _cold_batch(D, Y, lams, opts)
    assert conv.all()
    # the columns stopped at different iterations: a shorter run leaves
    # some converged and some not
    partial = _cold_batch(D, Y, lams, SolverOptions(tol=opts.tol, max_iter=it // 2))[3]
    assert 0 < partial.sum() < B
    for j in (0, B // 2, B - 1):
        assert kkt_residual(Y[:, j], F[:, j], D, lam) <= SolverOptions().kkt_tol
    obj = _objective(Y, F, lams, D)
    ref = np.array([solvers.solve_analysis(Y[:, j], D, lam, TIGHT).objective for j in range(B)])
    assert np.all(obj <= ref * (1.0 + GAP))
    assert _dual_mismatch(D, Y, state).max() <= 1e-3


def test_sqrt_batch_warm_start_across_rho_change_matches_single_solves(monkeypatch):
    D, Y, _, lambda0, opts = _block("cycle")
    calls = []
    inner = solvers._admm_batch

    def spy(state, Y_, lam_, opts_):
        # the first call starts from the fixed point's fresh (cold) state
        rho_in = state.rho if calls else None
        out = inner(state, Y_, lam_, opts_)
        mismatch = _dual_mismatch(state.split.D, Y_, out[1]).max()
        calls.append((Y_.shape[1], rho_in, out[1].rho, mismatch))
        return out

    monkeypatch.setattr(solvers, "_admm_batch", spy)
    out = solvers.solve_sqrt_analysis_batch(Y, D, lambda0, opts)
    F, sigma, overfit = out.F, out.sigma_hat, out.overfit
    monkeypatch.undo()
    # a warm-started batch of several columns changed rho: the state of the
    # columns that had left the batch was carried across the change
    assert any(b > 1 and r_in is not None and r_in != r_out for b, r_in, r_out, _ in calls)
    assert max(mis for *_, mis in calls) <= 1e-3
    assert not overfit.any()
    n = Y.shape[0]
    obj = norm_n(Y - F, axis=0) + 2.0 * lambda0 * np.abs(D @ F).sum(axis=0)
    for j in range(0, B, 3):
        ref = solvers.solve_sqrt_analysis(Y[:, j], D, lambda0,
                                          SolverOptions(tol=1e-11, fp_tol=1e-11, certify=False))
        assert obj[j] <= ref.objective * (1.0 + GAP)
        assert abs(sigma[j] - ref.sigma_hat) <= 1e-3 * ref.sigma_hat
        assert norm_n(F[:, j] - ref.f_hat) <= 1e-2 * np.sqrt(n) * ref.sigma_hat


def test_column_that_converged_early_stays_converged_at_small_max_iter():
    D, Y, lam, _, opts = _block("grid")
    lams = np.full(B, lam)
    F_full, state_full, it, conv_full = _cold_batch(D, Y, lams, opts)
    assert conv_full.all()
    seen = np.zeros(B, dtype=bool)
    for k in (it // 4, it // 2, 3 * it // 4):
        F, state, _, conv = _cold_batch(D, Y, lams, SolverOptions(tol=opts.tol, max_iter=k))
        # a column that met the test at an earlier max_iter met it again, and
        # left with the same iterate whatever the others did afterwards
        assert conv[seen].all()
        assert 0 < conv.sum() < B
        assert np.array_equal(F[:, conv], F_full[:, conv])
        assert np.array_equal(state.Z[:, conv], state_full.Z[:, conv])
        seen = conv
    assert seen.sum() > 1


def _graph(family, size, rng):
    if family == "path":
        return graphs.path_graph(size)
    if family == "cycle":
        return graphs.cycle_graph(size)
    if family == "tree":
        return graphs.tree_graph([int(rng.integers(1, v)) for v in range(2, size + 1)])
    return graphs.grid_graph(2 + size % 4, 2 + size // 4)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(family=st.sampled_from(["path", "cycle", "tree", "grid"]),
       size=st.integers(4, 24), cols=st.integers(1, 8),
       lam=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 16))
def test_batch_column_equals_single_solve(family, size, cols, lam, seed):
    rng = np.random.default_rng(seed)
    D = graphs.incidence(_graph(family, size, rng))
    n = D.shape[1]
    Y = rng.standard_normal((n, cols)) + (np.arange(n) >= n // 2)[:, None]
    opts = SolverOptions(tol=1e-7, certify=False)
    F = solvers.solve_analysis_batch(Y, D, lam, opts).F
    for j in range(cols):
        single = solvers.solve_analysis(Y[:, j], D, lam, opts)
        obj = float(_objective(Y[:, j:j + 1], F[:, j:j + 1], np.array([lam]), D)[0])
        assert abs(obj - single.objective) <= GAP * single.objective
        # the objective is 1-strongly convex in ||.||_n^2, so two points
        # within GAP of the optimum lie within 2 sqrt(GAP * objective)
        assert norm_n(F[:, j] - single.f_hat) ** 2 <= 4.0 * GAP * single.objective
