"""The polish of the plain ADMM batch: exact solutions read off a loose solve.

The plain estimator runs ADMM to solvers.POLISH_TOL, reads each column's
fused groups and boundary signs, and takes the one candidate the KKT
conditions allow for them.  A column is certified only with an exact dual,
so every certified column is the exact solution for its groups and signs:
the polish of a loose iterate and that of a much tighter one agree bit for
bit whenever both read the same groups and signs.
"""
import numpy as np
import pytest

from tvgo import experiments, graphs, projections, solvers
from tvgo.solvers import SolverOptions, kkt_bound, kkt_residual, solve_analysis_batch

from test_output_contract import FAMILIES as CONTRACT_FAMILIES
from test_output_contract import _block as _contract_block
from test_output_contract import _dual_mismatch

KKT_TOL = SolverOptions().kkt_tol

# the mc_grid benchmark configuration: a 32x32 grid cut between columns 16
# and 17 of every row, 64 trials per experiment
SIDE = 32
MC_GRID = {"graph": {"family": "grid", "params": {"height": SIDE, "width": SIDE}},
           "S": [(r - 1) * (SIDE - 1) + SIDE // 2 for r in range(1, SIDE + 1)],
           "signal": {"levels": [0.0, 1.0]}, "theorems": ["plain_slow", "sqrt_slow"],
           "trials": 64, "threads": 1}


def _mc_grid_block(seed):
    """(Splitting, Y, lam, opts) of block 0 of the mc_grid experiment of a
    benchmark seed, whose config seed (the noise key) is drawn from it."""
    cfg_seed = int(np.random.default_rng([seed, 0]).integers(0, 2 ** 40))
    exp = experiments.Experiment(experiments.ExperimentConfig.from_dict(
        dict(MC_GRID, seed=cfg_seed)))
    eps = experiments.trial_noise(exp.cfg.sigma, exp.active.n, cfg_seed, range(64))
    return exp.split, exp.f0[:, None] + eps, exp.lam, exp.solver_opts


def _admm(split, Y, lam, tol):
    """Cold-started ADMM iterates and scaled duals of the columns of Y."""
    lams = np.full(Y.shape[1], lam)
    centred = Y - projections.componentwise_mean(split.labels, Y)
    F, state, _, _ = solvers._admm_batch(solvers._AdmmState(split, Y, lams, centred), Y, lams,
                                         SolverOptions(tol=tol))
    return F.copy(), solvers._scaled_dual(state.U.copy(), state.rho, Y.shape[0], lams), lams


@pytest.mark.parametrize("seed", [0, 1, 2101])
def test_polished_grid_columns_equal_the_polish_of_a_tight_solve(seed):
    split, Y, lam, opts = _mc_grid_block(seed)
    out = solve_analysis_batch(Y, split, lam, opts)
    assert out.converged.all() and out.certified.sum() >= 60
    F, V, lams = _admm(split, Y, lam, 1e-11)
    tight = solvers._polish(split, Y, F, V, lams, {})
    assert (out.certified <= tight).all()
    assert np.array_equal(out.F[:, out.certified], F[:, out.certified])
    for j in np.flatnonzero(out.certified)[::8]:
        assert kkt_bound(Y[:, j], out.F[:, j], split, lam, out.V[:, j]) <= 1e-15


@pytest.mark.parametrize("family", list(CONTRACT_FAMILIES))
def test_loose_state_meets_the_warm_start_check(monkeypatch, family):
    # the state of the loose pass, from which uncertified columns run on,
    # agrees with its iterates as output_contract asks of a full solve
    D, Y, lam, _, opts = _contract_block(family)
    passes, inner = [], solvers._admm_batch

    def spy(state, Y_, lam_, opts_):
        out = inner(state, Y_, lam_, opts_)
        passes.append((opts_.tol, _dual_mismatch(state.split.D, Y_, out[1]).max()))
        return out

    monkeypatch.setattr(solvers, "_admm_batch", spy)
    assert solve_analysis_batch(Y, D, lam, opts).converged.all()
    assert passes[0][0] == solvers.POLISH_TOL
    assert max(mismatch for _, mismatch in passes) <= 1e-3


def _moving_first_columns(monkeypatch):
    """Make every polish move one vertex of its candidate by 1e-3 in the
    first column of each pattern of fused edges (where componentwise_mean
    forms the candidate); returns the list of moved columns' T inputs."""
    mean, real, moved = projections.componentwise_mean, solvers._polish, []

    def wrong(labels, T):
        C = mean(labels, T)
        C[len(labels) // 3, 0] += 1e-3
        moved.append(T[:, 0])
        return C

    def polish(*args):
        with monkeypatch.context() as m:
            m.setattr(projections, "componentwise_mean", wrong)
            return real(*args)

    monkeypatch.setattr(solvers, "_polish", polish)
    return moved


def test_moved_candidate_is_not_certified(monkeypatch):
    split, Y, lam, _ = _mc_grid_block(0)
    F, V, lams = _admm(split, Y, lam, solvers.POLISH_TOL)
    clean = solvers._polish(split, Y, F.copy(), V.copy(), lams, {})
    fused, _ = solvers._groups_and_signs(split.D, Y, F)
    first = np.unique(fused.T, axis=0, return_index=True)[1]
    moved = _moving_first_columns(monkeypatch)
    F_out, V_out = F.copy(), V.copy()
    ok = solvers._polish(split, Y, F_out, V_out, lams, {})
    assert len(moved) == len(first) > 1 and clean[first].sum() > 1
    assert not ok[first].any()
    rest = np.setdiff1d(np.arange(Y.shape[1]), first)
    assert np.array_equal(ok[rest], clean[rest])
    # an uncertified column keeps the iterate and the dual it came with
    assert np.array_equal(F_out[:, ~ok], F[:, ~ok]) and np.array_equal(V_out[:, ~ok], V[:, ~ok])


def test_moved_candidate_is_counted_uncertified(monkeypatch):
    cfg = dict(MC_GRID, graph={"family": "grid", "params": {"height": 12, "width": 12}},
               S=[(r - 1) * 11 + 6 for r in range(1, 13)], theorems=["plain_slow"], seed=5)
    summary, columns = experiments.run_experiment(cfg)
    assert summary["uncertified"] == {"plain": int((~columns["plain_certified"]).sum()),
                                      "sqrt": None}
    moved = _moving_first_columns(monkeypatch)
    wrong, wrong_columns = experiments.run_experiment(cfg)
    assert moved and wrong["uncertified"]["plain"] > summary["uncertified"]["plain"]
    assert wrong["uncertified"]["plain"] == int((~wrong_columns["plain_certified"]).sum())
    assert wrong["nonconverged"] == summary["nonconverged"] == {"plain": 0, "sqrt": None}


def _sweep_problem(k):
    """Problem k of the sweep: a path, cycle, tree or grid with at most 64
    vertices, a step of 2 plus standard normal noise, and a log-uniform lam
    in [1e-3, 0.5]."""
    rng = np.random.default_rng([7, k])
    family, n = ("path", "cycle", "tree", "grid")[k % 4], int(rng.integers(4, 65))
    if family == "path":
        g = graphs.path_graph(n)
    elif family == "cycle":
        g = graphs.cycle_graph(n)
    elif family == "tree":
        g = graphs.tree_graph([int(rng.integers(1, v)) for v in range(2, n + 1)])
    else:
        h = int(rng.integers(2, 9))
        g = graphs.grid_graph(h, min(max(2, n // h), 64 // h))
    Y = rng.standard_normal(g.n) + 2.0 * (np.arange(g.n) >= g.n // 2)
    return solvers.Splitting(graphs.incidence(g)), Y, float(np.exp(rng.uniform(np.log(1e-3),
                                                                           np.log(0.5))))


def test_group_dual_certifies_wherever_the_program_does():
    # every certified column passes the program; of the columns the program
    # accepts at kkt_tol (it reads 0 on every solve here), the polish leaves
    # out only those whose exact solution has a jump of at most FUSE_TOL of
    # the data scale, which the fused-edge threshold reads as fused: 10 of
    # 240, all with a jump of 2e-4 to 9e-4 of the scale
    missed = []
    for k in range(240):
        split, Y, lam = _sweep_problem(k)
        out = solve_analysis_batch(Y[:, None], split, lam, SolverOptions(tol=1e-7))
        f, v = out.F[:, 0], out.V[:, 0]
        assert out.converged[0] and kkt_residual(Y, f, split, lam) <= KKT_TOL
        if out.certified[0]:
            assert kkt_bound(Y, f, split, lam, v) <= 1e-12
            continue
        missed.append(k)
        F, V, lams = _admm(split, Y[:, None], lam, 1e-13)
        assert not solvers._polish(split, Y[:, None], F, V, lams, {})[0]
        jumps = np.abs(split.D @ F[:, 0])
        jumps /= max(jumps.max(), np.abs(split.D @ Y).max())
        assert np.any((jumps > 1e-8) & (jumps <= solvers.FUSE_TOL))
    assert len(missed) <= 10
