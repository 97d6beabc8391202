"""The polish of the plain ADMM batch: exact solutions read off a loose solve.

The plain estimator runs ADMM down the tolerances of polish.POLISH_LADDER
to the requested one and, after each, reads each live column's fused groups
(at the largest gap of its sorted |Df|) and boundary signs, and takes the
one candidate the KKT conditions allow for them.  A column is certified
only with an exact dual, so every certified column is the exact solution
for its groups and signs: the polish of a loose iterate and that of a much
tighter one agree bit for bit whenever both read the same groups and signs.
"""
from dataclasses import replace

import numpy as np
import pytest

from tvgo import admm, experiments, graphs, polish, projections, solvers, splitting
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


def _mean(split, Y):
    """The componentwise mean of the columns of Y, which the solvers add
    back to the fits of the centred columns."""
    return projections.componentwise_mean(split.labels, Y)


def _admm(split, Y, lam, tol):
    """Cold-started ADMM iterates and scaled duals of the centred columns of
    Y, as _plain_batch runs them."""
    lams = np.full(Y.shape[1], lam)
    centred = Y - _mean(split, Y)
    F, state, _, _ = admm._admm_batch(admm._AdmmState(split, centred, lams), centred, lams,
                                      SolverOptions(tol=tol))
    return F.copy(), admm._scaled_dual(state.U.copy(), state.rho, Y.shape[0], lams), lams


def _dy(split, Y):
    """Each column's ||D Yc||_inf, Yc the centred Y: the scale term of the
    gap rule."""
    return np.max(np.abs(split.D @ (Y - _mean(split, Y))), axis=0)


def _polish(split, Y, F, V, lams):
    """polish._polish of the centred columns of Y and the groups and signs
    read off their iterates F (see _admm)."""
    return polish._polish(split, Y - _mean(split, Y), F, V, lams,
                          *polish._groups_and_signs(split.D, _dy(split, Y), F))


@pytest.mark.parametrize("seed", [0, 1, 2101])
def test_polished_grid_columns_equal_the_polish_of_a_tight_solve(seed):
    split, Y, lam, opts = _mc_grid_block(seed)
    out = solve_analysis_batch(Y, split, lam, opts)
    assert out.converged.all() and out.certified.sum() >= 60
    F, V, lams = _admm(split, Y, lam, 1e-11)
    tight = _polish(split, Y, F, V, lams)
    assert (out.certified <= tight).all()
    F += _mean(split, Y)
    assert np.array_equal(out.F[:, out.certified], F[:, out.certified])
    for j in np.flatnonzero(out.certified)[::8]:
        assert kkt_bound(Y[:, j], out.F[:, j], split, lam, out.V[:, j]) <= 1e-15


@pytest.mark.parametrize("family", list(CONTRACT_FAMILIES))
def test_loose_state_meets_the_warm_start_check(monkeypatch, family):
    # the state of every rung of the ladder, from which uncertified columns
    # run on, agrees with its iterates as output_contract asks of a full solve
    D, Y, lam, _, opts = _contract_block(family)
    # to within ten times the rung's tolerance: the mismatch follows the
    # stopping test, about 1.3e-2 after the 3e-2 rung, so a fixed 1e-3 holds
    # from the 1e-4 rung on, where the bound is the 1e-3 it was there
    passes, inner = [], admm._admm_batch

    def spy(state, Y_, lam_, opts_):
        out = inner(state, Y_, lam_, opts_)
        passes.append((opts_.tol, _dual_mismatch(state.split.D, Y_, out[0], out[1]).max()))
        return out

    monkeypatch.setattr(admm, "_admm_batch", spy)
    assert solve_analysis_batch(Y, D, lam, opts).converged.all()
    assert passes[0][0] == polish.POLISH_LADDER[0]
    assert all(mismatch <= 10.0 * tol for tol, mismatch in passes)
    assert all(mismatch <= 1e-3 for tol, mismatch in passes if tol <= 1e-4)


def _moving_first_columns(monkeypatch):
    """Make every polish move one vertex of its candidate by 1e-3 in the
    first column of each pattern of fused edges (where _group_means forms
    the candidates); returns the list of each call's moved columns."""
    real, moved = polish._group_means, []

    def wrong(split, fused, T):
        C, labels = real(split, fused, T)
        first = np.unique(fused.T, axis=0, return_index=True)[1]
        C[len(C) // 3, first] += 1e-3
        moved.append(first)
        return C, labels

    monkeypatch.setattr(polish, "_group_means", wrong)
    return moved


def test_moved_candidate_is_not_certified(monkeypatch):
    split, Y, lam, _ = _mc_grid_block(0)
    F, V, lams = _admm(split, Y, lam, 1e-4)
    clean = _polish(split, Y, F.copy(), V.copy(), lams)
    fused, _ = polish._groups_and_signs(split.D, _dy(split, Y), F)
    first = np.unique(fused.T, axis=0, return_index=True)[1]
    moved = _moving_first_columns(monkeypatch)
    F_out, V_out = F.copy(), V.copy()
    ok = _polish(split, Y, F_out, V_out, lams)
    assert len(moved) == 1 and np.array_equal(moved[0], first)
    assert len(first) > 1 and clean[first].sum() > 1
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
    # out only those whose exact solution fuses no edge but has a jump below
    # GAP_CAP of the data scale, which the gap rule reads as fused: 4 of 240
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
        assert not _polish(split, Y[:, None], F, V, lams)[0]
        jumps = np.abs(split.D @ F[:, 0])
        jumps /= max(jumps.max(), np.abs(split.D @ Y).max())
        assert 1e-8 < jumps.min() < polish.GAP_CAP
    assert len(missed) <= 4


def test_small_true_jump_is_certified():
    # the exact solution of sweep problem 204, a 53-vertex path, has a jump
    # of 4.7e-4 of the data scale, which a fixed threshold of 1e-3 read as
    # fused; the gap rule reads it, and the estimate is the polish of a
    # tol=1e-11 solve bit for bit
    split, Y, lam = _sweep_problem(204)
    out = solve_analysis_batch(Y[:, None], split, lam, SolverOptions(tol=1e-7))
    assert out.certified[0]
    F, V, lams = _admm(split, Y[:, None], lam, 1e-11)
    assert _polish(split, Y[:, None], F, V, lams)[0]
    assert np.array_equal(out.F, F + _mean(split, Y[:, None]))
    jumps = np.abs(split.D @ F[:, 0]) / np.abs(split.D @ Y).max()
    assert np.any((jumps > 4e-4) & (jumps < 6e-4))


def test_gap_rule_reads_fused_edges_below_the_largest_gap_only():
    # columns of a path's iterates with jumps (relative to the scale) of
    # noise at 1e-9 to 1e-8 and true jumps of 5e-4 and 1: the cut falls in
    # the one large gap; a column of jumps all above GAP_CAP reads none
    D = graphs.incidence(graphs.path_graph(7))
    steps = np.array([[1e-9, 5e-4, 3e-9, 1.0, 1e-8, 2e-9],
                      [0.5, 0.02, 0.3, 1.0, 0.011, 0.2],
                      [1e-9, 2e-9, 0.0, 1.0, 3e-9, 1e-9],
                      [0.5, 0.02, 0.3, 1.0, 0.005, 0.25]]).T
    F = np.vstack([np.zeros(4), np.cumsum(steps, axis=0)])
    fused, S = polish._groups_and_signs(D, np.max(np.abs(D @ F), axis=0), F)
    assert np.array_equal(fused[:, 0], steps[:, 0] < 1e-7)
    assert not fused[:, 1].any() and np.array_equal(S[:, 1], np.ones(6))
    assert np.array_equal(fused[:, 2], steps[:, 2] < 1e-7)
    # the gap from 0.02 to 0.3 is larger, but only a gap below the cap cuts
    assert np.array_equal(fused[:, 3], steps[:, 3] < 0.01)
    assert np.array_equal(S[~fused], np.ones((~fused).sum()))
    # the signs are zero exactly on the fused edges, the exact zero jump of
    # column 2 among them, so the ladder reads the masks back off the signs
    assert np.array_equal(S == 0, fused)


def test_group_means_equal_each_columns_componentwise_mean():
    # the one labelling of the union numbers each column's groups as
    # component_labels does, and the means are componentwise_mean's bits
    split = solvers.Splitting(graphs.incidence(graphs.grid_graph(6, 7)))
    rng = np.random.default_rng(4)
    fused = rng.random((split.D.shape[0], 9)) < np.linspace(0.3, 1.0, 9)
    fused[:, 0] = False
    T = rng.standard_normal((split.D.shape[1], 9))
    C, labels = polish._group_means(split, fused, T)
    for j in range(9):
        own = graphs.component_labels(split.D.shape[1], split.ends[fused[:, j]])
        assert np.array_equal(labels[j], own)
        assert np.array_equal(C[:, j], projections.componentwise_mean(own, T[:, j]))


def test_one_edge_graph_is_polished():
    # path(2), the closed-form case of acceptance criterion 1: f moves each
    # value 2 lam toward the other, or to the mean; the one gap of |Df|
    # runs to the scale, so a jump above GAP_CAP of |DY| reads as a jump
    # and is certified exact, and one below it reads as fused and is not
    D = graphs.incidence(graphs.path_graph(2))
    for jump, certified in ((3.0, True), (0.4 + 2e-3, False)):
        Y = np.array([[0.2], [0.2 + jump]])
        out = solve_analysis_batch(Y, D, 0.1, SolverOptions(tol=1e-10))
        exact = Y[:, 0] + np.array([0.2, -0.2])
        assert out.converged[0] and out.certified[0] == certified
        assert np.allclose(out.F[:, 0], exact, rtol=0, atol=1e-12 if certified else 1e-7)
        if certified:
            assert kkt_bound(Y[:, 0], out.F[:, 0], D, 0.1, out.V[:, 0]) <= 1e-15


def test_max_iter_is_one_budget_over_the_ladder(monkeypatch):
    # each rung gets what the rungs before it left of max_iter; a column the
    # ladder leaves uncertified before opts.tol's rung is not converged
    split, Y, lam, opts = _mc_grid_block(0)
    calls, inner = [], admm._admm_batch

    def spy(state, Y_, lam_, opts_):
        out = inner(state, Y_, lam_, opts_)
        calls.append((opts_.max_iter, out[2]))
        return out

    monkeypatch.setattr(admm, "_admm_batch", spy)
    out = solve_analysis_batch(Y, split, lam, replace(opts, max_iter=50))
    spent = np.cumsum([0] + [k for _, k in calls])
    assert [budget for budget, _ in calls] == list(50 - spent[:-1])
    assert out.iterations == spent[-1] <= 50 and len(calls) < len(polish.POLISH_LADDER)
    assert 0 < out.certified.sum() < Y.shape[1]
    assert np.array_equal(out.converged, out.certified)


def _spy_rungs(monkeypatch, split):
    """Record each rung's (tol, state dtype, budget, iterations, float32
    floor): the floor is the largest over the rung's live columns of
    eps32 sqrt(m) max|centred_j| / ||D centred_j||_2, which _plain_batch
    holds to SINGLE_HEADROOM below a float32 rung's tol."""
    rungs, inner = [], admm._admm_batch
    eps, m = np.finfo(np.float32).eps, split.D.shape[0]

    def spy(state, Y_, lam_, opts_):
        assert Y_.dtype == state.F.dtype == state.Z.dtype == state.U.dtype
        Yc = Y_.astype(np.float64)
        floor = np.max(eps * np.sqrt(m) * np.max(np.abs(Yc), axis=0)
                       / np.linalg.norm(split.D @ Yc, axis=0))
        out = inner(state, Y_, lam_, opts_)
        rungs.append((opts_.tol, state.F.dtype, opts_.max_iter, out[2], floor))
        return out

    monkeypatch.setattr(admm, "_admm_batch", spy)
    return rungs


def _switches_once(dtypes):
    """float32 rungs, if any, then float64 ones, the last among them."""
    k = dtypes.count(np.float32)
    return dtypes == [np.float32] * k + [np.float64] * (len(dtypes) - k) and k < len(dtypes)


def test_loose_rungs_run_in_float32_and_the_rest_in_float64(monkeypatch):
    # candidates moved off the exact solution never certify, so the ladder
    # runs to opts.tol: float32 exactly at the rungs whose tol is at least
    # SINGLE_HEADROOM times the live columns' float32 floor, until a rung
    # stalls at SINGLE_MAX_ITER or the ladder reaches opts.tol, float64 from
    # there on, with max_iter one budget of which a float32 rung may take
    # SINGLE_MAX_ITER
    split, Y, lam, opts = _mc_grid_block(0)
    _moving_first_columns(monkeypatch)
    rungs = _spy_rungs(monkeypatch, split)
    out = solve_analysis_batch(Y, split, lam, opts)
    assert [tol for tol, *_ in rungs] == [t for t in polish.POLISH_LADDER if t > opts.tol] + [
        opts.tol]
    single, expected = True, []
    for tol, _, _, k, floor in rungs:
        single = single and tol != opts.tol and polish.SINGLE_HEADROOM * floor <= tol
        expected.append(np.float32 if single else np.float64)
        single = single and k < polish.SINGLE_MAX_ITER
    dtypes = [dtype for _, dtype, *_ in rungs]
    assert dtypes == expected and _switches_once(dtypes)
    # the headroom, not a stall or opts.tol, ends float32 here, after a
    # float32 rung below 1e-3
    k = dtypes.count(np.float32)
    assert rungs[k - 1][0] < 1e-3 and rungs[k - 1][3] < polish.SINGLE_MAX_ITER
    assert opts.tol < rungs[k][0] < polish.SINGLE_HEADROOM * rungs[k][4]
    spent = np.cumsum([0] + [k for _, _, _, k, _ in rungs])
    assert [budget for _, _, budget, _, _ in rungs] == [
        min(left, polish.SINGLE_MAX_ITER) if dtype == np.float32 else left
        for (_, dtype, *_), left in zip(rungs, opts.max_iter - spent[:-1])]
    assert out.iterations == spent[-1] and not out.certified.all() and out.converged.all()


@pytest.mark.parametrize("seed", [0, 1, 2101])
def test_float32_rungs_keep_their_headroom_above_the_float32_floor(monkeypatch, seed):
    # every rung above opts.tol may run in float32, but a float32 state
    # cannot meet the tightest ones (at seed 0 the 1e-6 rung took 99,780
    # iterations without the headroom); the ladder hands over to float64 at
    # the first rung within SINGLE_HEADROOM of the live columns' float32 floor
    split, Y, lam, opts = _mc_grid_block(seed)
    rungs = _spy_rungs(monkeypatch, split)
    out = solve_analysis_batch(Y, split, lam, opts)
    dtypes = [dtype for _, dtype, *_ in rungs]
    assert _switches_once(dtypes) and np.float32 in dtypes
    first64 = rungs[dtypes.index(np.float64)]
    assert first64[0] > 1e-6 and polish.SINGLE_HEADROOM * first64[4] > first64[0]
    assert all(polish.SINGLE_HEADROOM * floor <= tol
               for tol, dtype, *_, floor in rungs if dtype == np.float32)
    assert out.converged.all() and out.iterations < 1000


def test_a_stalled_float32_rung_hands_over_to_float64(monkeypatch):
    # with no headroom every rung above opts.tol runs in float32, and the
    # float32 rung at 1e-6 stalls at float32's rounding; it stops at
    # SINGLE_MAX_ITER and the ladder goes on in float64 down to a tol of 1e-9
    monkeypatch.setattr(polish, "SINGLE_HEADROOM", 0.0)
    split, Y, lam, opts = _mc_grid_block(0)
    rungs = _spy_rungs(monkeypatch, split)
    out = solve_analysis_batch(Y, split, lam, replace(opts, tol=1e-9))
    dtypes = [dtype for _, dtype, *_ in rungs]
    assert _switches_once(dtypes)
    k = dtypes.count(np.float32)
    assert rungs[k - 1][0] == 1e-6 and rungs[k - 1][3] == polish.SINGLE_MAX_ITER
    assert rungs[k][0] > 1e-9
    assert out.converged.all() and out.iterations < 3 * polish.SINGLE_MAX_ITER


def test_a_long_trend_path_runs_in_float64(monkeypatch):
    # paths have no float32 operators: a float32 factor of I + rho D'D went
    # singular on this path once a float32 residual floor had driven rho
    # past 1e8, where the float64 ladder certifies at its first rung
    n = 200_000
    D = graphs.incidence(graphs.path_graph(n))
    split = solvers.Splitting(D)
    rungs = _spy_rungs(monkeypatch, split)
    out = solvers.solve_analysis(np.arange(n, dtype=float), split, 1e-4)
    assert {dtype for _, dtype, *_ in rungs} == {np.dtype(np.float64)}
    assert out.converged and out.iterations == 20 and out.kkt_residual <= KKT_TOL


@pytest.mark.parametrize("seed", [0, 2101])
def test_a_large_shift_certifies_the_same_columns(seed):
    # the ladder runs on the centred columns, so Y + 1e6, whose float32
    # rounding (a spacing of 0.0625) would lose Y, certifies the same
    # columns, and each estimate moves by the shift alone
    split, Y, lam, opts = _mc_grid_block(seed)
    out = solve_analysis_batch(Y, split, lam, opts)
    moved = solve_analysis_batch(Y + 1e6, split, lam, opts)
    assert out.certified.sum() >= 60 and np.array_equal(moved.certified, out.certified)
    assert np.max(np.abs(moved.F - 1e6 - out.F)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2101])
def test_float32_rounding_of_a_tight_iterate_reads_the_same_groups(seed):
    # rounding to float32 leaves exact zeros among the noise of the fused
    # edges; the float32 iterate's own half-ulp floor reads them as no gap,
    # where float64's would cut between the zeros and the rest
    split, Y, lam, _ = _mc_grid_block(seed)
    F, _, _ = _admm(split, Y, lam, 1e-11)
    dy = _dy(split, Y)
    fused, S = polish._groups_and_signs(split.D, dy, F)
    fused32, S32 = polish._groups_and_signs(split.D, dy, F.astype(np.float32))
    assert np.array_equal(fused32, fused) and np.array_equal(S32, S)
    assert np.array_equal(S32 == 0, fused32)


def test_each_fused_edge_pattern_is_factored_once_per_batch(monkeypatch):
    # every slab of a rung's polish shares one dict of pattern Splittings,
    # which keeps the patterns the rung read, so a mask of fused edges
    # screened at consecutive rungs, as every mask of this block is, is
    # factored once; the graph's Splitting is prebuilt, so every
    # _grounded_solve call is a pattern's
    split, Y, lam, opts = _mc_grid_block(2101)
    builds, screened = [], []
    grounded, screen = splitting._grounded_solve, polish._fused_screen

    def spy(sub, *args):
        if sub is not split:
            screened.append(graphs.edge_endpoints(sub.D).tobytes())
        return screen(sub, *args)

    monkeypatch.setattr(splitting, "_grounded_solve", lambda *a: builds.append(1) or grounded(*a))
    monkeypatch.setattr(polish, "_fused_screen", spy)
    solve_analysis_batch(Y, split, lam, opts)
    # one screen per pattern and slab, so their count is the per-slab sum
    assert len(builds) == len(set(screened)) < len(screened)


def test_shared_subgraphs_polish_as_fresh_ones(monkeypatch):
    # each slab's polish with its rung's dict and the last rung's gives the
    # bits of a polish with a dict of its own
    split, Y, lam, opts = _mc_grid_block(2101)
    real, shared = polish._polish, []

    def both(split_, Y_, F, V, lam_, fused, S, subgraphs, held):
        F_own, V_own = F.copy(), V.copy()
        own = real(split_, Y_, F_own, V_own, lam_, fused, S.copy(), {})
        shared.append(len(subgraphs) + len(held))
        ok = real(split_, Y_, F, V, lam_, fused, S, subgraphs, held)
        assert np.array_equal(ok, own)
        assert np.array_equal(F, F_own) and np.array_equal(V, V_own)
        return ok

    monkeypatch.setattr(polish, "_polish", both)
    assert solve_analysis_batch(Y, split, lam, opts).certified.all()
    assert len(shared) > 1 and shared[0] == 0 < shared[-1]


def _polish_rungs(monkeypatch, seed):
    """The batch's Splitting and, for each rung of block 0 of a benchmark
    seed's mc_grid plain batch, the pattern Splittings its slabs screened
    and those its dict held after its last slab."""
    split, Y, lam, opts = _mc_grid_block(seed)
    real, screen, batch, rungs = polish._polish, polish._fused_screen, admm._admm_batch, []

    def rung(*args):
        rungs.append(([], []))
        return batch(*args)

    def screening(sub, *args):
        if sub is not split:
            rungs[-1][0].append(sub)
        return screen(sub, *args)

    def spy(split_, Y_, F, V, lam_, fused, S, subgraphs, held):
        ok = real(split_, Y_, F, V, lam_, fused, S, subgraphs, held)
        rungs[-1][1][:] = subgraphs.values()
        return ok

    monkeypatch.setattr(admm, "_admm_batch", rung)
    monkeypatch.setattr(polish, "_fused_screen", screening)
    monkeypatch.setattr(polish, "_polish", spy)
    solve_analysis_batch(Y, split, lam, opts)
    return split, rungs


@pytest.mark.parametrize("seed", [0, 2101])
def test_the_pattern_cache_holds_what_its_rung_read(monkeypatch, seed):
    # a pattern leaves the dict at the first rung none of whose slabs reads
    # it: it rarely recurs, and each held a banded factor
    _, rungs = _polish_rungs(monkeypatch, seed)
    assert len(rungs) > 2
    for read, held in rungs:
        assert {id(sub) for sub in held} == {id(sub) for sub in read}
    # a pattern read at consecutive rungs is the same Splitting
    assert any({id(s) for s in a[1]} & {id(s) for s in b[1]} for a, b in zip(rungs, rungs[1:]))


def test_each_cached_pattern_owns_its_labels(monkeypatch):
    # a row of the rung's (B, n) labels held the whole array for as long as
    # the pattern stayed in the dict
    split, rungs = _polish_rungs(monkeypatch, 0)
    held = [sub for _, subs in rungs for sub in subs]
    assert held
    for sub in held:
        assert sub.labels.shape == (split.D.shape[1],) and sub.labels.base is None


def test_the_polish_slabs_give_the_bits_of_one_pass(monkeypatch):
    # the ladder polishes each rung's live columns POLISH_SLAB // m at a
    # time; slabs of one column, the default's and one slab of the whole
    # block give the same fits, duals, masks and iterations
    split, Y, lam, opts = _mc_grid_block(0)
    m, B = split.D.shape[0], Y.shape[1]
    default = polish.POLISH_SLAB // m
    centred = np.subtract(Y, _mean(split, Y), order="F")
    lams = np.full(B, lam)
    widths, inner, runs = [], admm._admm_batch, []
    monkeypatch.setattr(admm, "_admm_batch", lambda state, Y_, *a: widths.append(Y_.shape[1])
                        or inner(state, Y_, *a))
    for slab in (m, polish.POLISH_SLAB, B * m):
        monkeypatch.setattr(polish, "POLISH_SLAB", slab)
        F, V = np.empty_like(centred), np.empty((m, B))
        runs.append((F, V, *polish._plain_batch(split, centred, lams, opts, F, V)))
    # the columns leave over several rungs, one of which splits its live
    # columns into more than one default slab
    assert runs[0][3].all() and any(default < width < B for width in widths)
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))
