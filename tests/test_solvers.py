import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import brute_force_path2_sqrt, cd_reference_path, objective
from tvgo import experiments, solvers
from tvgo.graphs import (DirectedGraph, cycle_graph, edge_endpoints, grid_graph, incidence,
                         path_graph, tree_graph)
from tvgo.solvers import (SolverOptions, kkt_residual, norm_n,
                          solve_analysis, solve_analysis_batch,
                          solve_sqrt_analysis, solve_sqrt_analysis_batch)

P2 = incidence(path_graph(2))
Y2 = np.array([0.0, 2.0])


def test_norm_n():
    assert norm_n(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))


def test_lambda_zero_returns_data():
    r = solve_analysis(Y2, P2, 0.0)
    assert np.array_equal(r.f_hat, Y2)
    assert r.converged and r.residual_norm_n == 0.0


def test_path2_closed_form_small_lambda():
    for lam in (0.1, 0.25, 0.4, 0.5):
        r = solve_analysis(Y2, P2, lam)
        assert np.allclose(r.f_hat, [2 * lam, 2 - 2 * lam], atol=1e-6)
        assert r.residual_norm_n == pytest.approx(2 * lam, abs=1e-6)
        assert r.kkt_residual <= 1e-8


def test_path2_closed_form_large_lambda():
    for lam in (0.51, 0.75, 3.0):
        r = solve_analysis(Y2, P2, lam)
        assert np.allclose(r.f_hat, [1.0, 1.0], atol=1e-6)
        assert r.kkt_residual <= 1e-8


def test_large_lambda_gives_componentwise_means():
    rng = np.random.default_rng(0)
    for g in [path_graph(7), cycle_graph(6), grid_graph(2, 4)]:
        Y = rng.standard_normal(g.n) * 2.0
        r = solve_analysis(Y, incidence(g), 50.0)
        assert np.allclose(r.f_hat, Y.mean(), atol=1e-6)


def test_data_in_nullspace_returned_unchanged():
    g = path_graph(5)
    Y = np.full(5, 3.7)
    r = solve_analysis(Y, incidence(g), 0.3)
    assert np.allclose(r.f_hat, Y, atol=1e-9)
    rs = solve_sqrt_analysis(Y, incidence(g), 0.3)
    assert np.array_equal(rs.f_hat, Y)
    assert rs.overfit and rs.sigma_hat == 0.0


def test_matches_coordinate_descent_reference():
    # reference: exhaustive coordinate descent with block fusion moves,
    # run to an objective change of 1e-12 per sweep
    rng = np.random.default_rng(42)
    for _ in range(12):
        n = int(rng.integers(3, 11))
        Y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        lam = float(rng.uniform(0.02, 1.0))
        f_ref = cd_reference_path(Y, lam)
        r = solve_analysis(Y, incidence(path_graph(n)), lam)
        assert norm_n(r.f_hat - f_ref) < 1e-6
        assert r.objective <= objective(Y, f_ref, lam) + 1e-6


def test_non_convergence_flagged():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal(200)
    r = solve_analysis(Y, incidence(path_graph(200)), 0.05,
                       SolverOptions(max_iter=3, certify=False))
    assert not r.converged


def test_sqrt_path2_above_threshold():
    for lam0 in (0.26, 0.3, 1.0):
        r = solve_sqrt_analysis(Y2, P2, lam0)
        assert not r.overfit
        assert np.allclose(r.f_hat, [1.0, 1.0], atol=1e-6)
        assert r.sigma_hat == pytest.approx(1.0, abs=1e-6)


def test_sqrt_path2_below_threshold_overfits():
    for lam0 in (0.05, 0.2, 0.24):
        r = solve_sqrt_analysis(Y2, P2, lam0)
        assert r.overfit
        assert np.array_equal(r.f_hat, Y2)
        assert r.sigma_hat == 0.0
        assert r.kkt_residual is None


def test_sqrt_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    for _ in range(6):
        Y = rng.standard_normal(2) * 2
        lam0 = float(rng.uniform(0.05, 0.6))
        f_bf, sig_bf = brute_force_path2_sqrt(Y, lam0)
        r = solve_sqrt_analysis(Y, P2, lam0)
        assert r.sigma_hat == pytest.approx(sig_bf, abs=2e-5)
        assert np.allclose(r.f_hat, f_bf, atol=2e-5)


def test_starved_inner_solve_is_not_an_overfit():
    # one ADMM iteration per outer step: an inner solve that has not converged
    # keeps its scale, so its iterate after one step does not count as an
    # overfit, and the warm-started steps reach the fixed point
    rng = np.random.default_rng(0)
    D = incidence(path_graph(64))
    Y = np.repeat([0.0, 1.0], 32)[:, None] + rng.standard_normal((64, 16))
    out = solve_sqrt_analysis_batch(Y, D, 0.1, SolverOptions(max_iter=1))
    assert not out.overfit.any() and out.converged.all()
    ref = solve_sqrt_analysis_batch(Y, D, 0.1, SolverOptions(tol=1e-11))
    np.testing.assert_allclose(out.sigma_hat, ref.sigma_hat, rtol=1e-5)


def test_sqrt_fixed_point_consistency():
    # a non-overfit square-root solution solves the plain problem at lambda_used
    rng = np.random.default_rng(5)
    g = path_graph(50)
    D = incidence(g)
    Y = np.where(np.arange(50) < 25, 0.0, 2.0) + rng.standard_normal(50)
    r = solve_sqrt_analysis(Y, D, 0.05)
    assert not r.overfit and r.converged
    assert r.lambda_used == pytest.approx(2 * 0.05 * r.sigma_hat, rel=1e-8)
    assert r.sigma_hat == pytest.approx(r.residual_norm_n, rel=1e-12)
    rp = solve_analysis(Y, D, r.lambda_used)
    assert norm_n(rp.f_hat - r.f_hat) < 1e-6
    assert r.kkt_residual <= 1e-6


def test_kkt_closed_form_zero():
    f = np.array([0.5, 1.5])
    assert kkt_residual(Y2, f, P2, 0.25) <= 1e-8
    assert kkt_residual(Y2, np.array([1.0, 1.0]), P2, 0.75) <= 1e-8


def test_kkt_positive_for_suboptimal():
    # f = Y with a strictly increasing Y cannot be optimal for lam > 0
    Y = np.array([0.0, 1.0, 3.0, 6.0])
    D = incidence(path_graph(4))
    lam = 0.2
    res = kkt_residual(Y, Y, D, lam)
    dual = np.abs(D.T @ np.sign(D @ Y))
    assert res >= lam * dual[dual > 1e-12].min() - 1e-12


def test_kkt_lambda_zero_degenerate():
    f = np.array([0.1, 1.7])
    assert kkt_residual(Y2, f, P2, 0.0) == pytest.approx(
        np.abs(Y2 - f).max() / 2.0)


def test_kkt_fused_solution_certified():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal(30)
    D = incidence(path_graph(30))
    assert kkt_residual(Y, np.full(30, Y.mean()), D, 5.0) <= 1e-10


def test_batch_matches_single():
    rng = np.random.default_rng(9)
    g = path_graph(40)
    D = incidence(g)
    Y = rng.standard_normal((40, 5))
    out = solve_analysis_batch(Y, D, 0.2, SolverOptions(certify=False))
    assert out.converged.all() and np.array_equal(out.lam, np.full(5, 0.2))
    F = out.F
    for j in range(5):
        r = solve_analysis(Y[:, j], D, 0.2, SolverOptions(certify=False))
        assert norm_n(F[:, j] - r.f_hat) < 1e-6


def test_sqrt_batch_matches_single():
    rng = np.random.default_rng(10)
    g = path_graph(40)
    D = incidence(g)
    Y = np.where(np.arange(40) < 20, 0.0, 1.0)[:, None] + rng.standard_normal((40, 4))
    out = solve_sqrt_analysis_batch(Y, D, 0.05, SolverOptions(certify=False))
    F, sig, ovf = out.F, out.sigma_hat, out.overfit
    assert not ovf.any() and out.converged.all()
    for j in range(4):
        r = solve_sqrt_analysis(Y[:, j], D, 0.05, SolverOptions(certify=False))
        assert abs(sig[j] - r.sigma_hat) < 1e-6
        assert norm_n(F[:, j] - r.f_hat) < 1e-5


@pytest.mark.parametrize("solve,level", [(solve_analysis, 0.05), (solve_sqrt_analysis, 0.02)])
def test_single_solve_takes_a_splitting(solve, level):
    # a 5x6 grid takes the spectral solve, and certification runs on both
    D = incidence(grid_graph(5, 6))
    Y = np.where(np.arange(30) < 15, 0.0, 1.0) + np.random.default_rng(11).standard_normal(30)
    expected = solve(Y, D, level).to_dict()
    got = solve(Y, solvers.Splitting(D), level).to_dict()
    assert expected["kkt_residual"] is not None
    assert got.pop("f_hat") == expected.pop("f_hat") and got == expected


def test_warm_started_inner_solve_does_not_settle_sigma_early():
    # a warm-started inner solve returns the iterate that met the stopping
    # test; returning its starting iterate instead left sigma where it was,
    # and the column settled up to 8e-7 away from the fixed point
    rng = np.random.default_rng(10)
    D = incidence(path_graph(40))
    Y = np.where(np.arange(40) < 20, 0.0, 1.0)[:, None] + rng.standard_normal((40, 4))
    out = solve_sqrt_analysis_batch(Y, D, 0.05, SolverOptions(certify=False))
    tight = SolverOptions(tol=1e-12, fp_tol=1e-13, certify=False)
    for j in range(4):
        ref = solve_sqrt_analysis(Y[:, j], D, 0.05, tight)
        single = solve_sqrt_analysis(Y[:, j], D, 0.05, SolverOptions(certify=False))
        assert ref.converged
        assert abs(out.sigma_hat[j] - ref.sigma_hat) <= 1e-8
        assert abs(single.sigma_hat - ref.sigma_hat) <= 1e-8


def test_stopping_test_ignores_a_constant_shift():
    # f(Y + b) = f(Y) + b, and the stopping test and penalty balancing read
    # Y only through D Y and Y minus its componentwise mean, so a shifted
    # solve takes the same iterations to the same tolerance
    rng = np.random.default_rng(0)
    n = 128
    D = incidence(path_graph(n))
    Y = (np.arange(n) >= n // 2) + rng.standard_normal(n)
    opts = SolverOptions(tol=1e-7, certify=False)
    base = solve_analysis(Y, D, 0.05, opts)
    for b in (10.0, 1e3, 1e5):
        moved = solve_analysis(Y + b, D, 0.05, opts)
        assert moved.converged and moved.iterations == base.iterations
        assert np.max(np.abs(moved.f_hat - b - base.f_hat)) <= 1e-6
    # the objective ignores the shift; the tight reference runs on Y, since
    # at 1e5 rounding in f keeps the residuals above a 1e-11 test
    ref = solve_analysis(Y, D, 0.05, SolverOptions(tol=1e-11, certify=False))
    assert moved.objective <= ref.objective * (1.0 + 1e-5)


P5 = incidence(path_graph(5))


@pytest.mark.parametrize("entry,batch", [
    (solve_analysis, False), (solve_analysis_batch, True),
    (solve_sqrt_analysis, False), (solve_sqrt_analysis_batch, True),
], ids=["plain", "plain_batch", "sqrt", "sqrt_batch"])
@pytest.mark.parametrize("shape,level", [
    ("short", 0.3),         # 4 rows for a 5-vertex D
    ("short", 0.0),         # the plain lam = 0 shortcut checks Y as well
    ("wrong_ndim", 0.3),    # (n,) to a batch, (n, B) to a single solve
], ids=["short_y", "short_y_level0", "wrong_ndim"])
def test_dimension_mismatch_raises(entry, batch, shape, level):
    if shape == "short":
        Y = np.zeros((4, 2)) if batch else np.zeros(4)
    else:
        Y = np.zeros(5) if batch else np.zeros((5, 2))
    with pytest.raises(ValueError, match="dimension"):
        entry(Y, P5, level)


def test_penalty_adaptation_that_cycles_is_held():
    # trial 7 of this 32x32 grid experiment made the residual balancing
    # double rho and halve it ten iterations later, every ~170 iterations,
    # and stay unconverged after 20000; held after its second reversal, rho
    # lets it converge
    side = 32
    cfg = experiments.ExperimentConfig.from_dict(
        {"graph": {"family": "grid", "params": {"height": side, "width": side}},
         "S": [(r - 1) * (side - 1) + side // 2 for r in range(1, side + 1)],
         "signal": {"levels": [0.0, 1.0]}, "theorems": ["plain_slow"],
         "trials": 8, "seed": 918072011719, "events": False})
    exp = experiments.Experiment(cfg)
    y = exp.f0 + experiments.trial_noise(cfg.sigma, exp.active.n, cfg.seed, 7)
    r = solve_analysis(y, exp.D, exp.lam, SolverOptions(tol=1e-7, max_iter=6000, certify=False))
    assert r.converged


@pytest.mark.parametrize("call,name", [
    (lambda Y: solve_analysis_batch(Y, P2, -0.05), "lam"),
    (lambda Y: solve_analysis_batch(Y, P2, np.nan), "lam"),
    (lambda Y: solve_analysis_batch(Y, P2, 0.25, SolverOptions(tol=0.0)), "tol"),
    (lambda Y: solve_analysis_batch(Y, P2, 0.25, SolverOptions(tol=-1.0)), "tol"),
    (lambda Y: solve_sqrt_analysis_batch(Y, P2, 0.0), "lambda0"),
    (lambda Y: solve_sqrt_analysis_batch(Y, P2, -0.1), "lambda0"),
    (lambda Y: solve_sqrt_analysis_batch(Y, P2, np.inf), "lambda0"),
    (lambda Y: solve_sqrt_analysis_batch(Y, P2, 0.3, SolverOptions(tol=0.0)), "tol"),
    (lambda Y: solve_analysis(Y[:, 0], P2, np.nan), "lam"),
    (lambda Y: solve_analysis(Y[:, 0], P2, -0.5), "lam"),
    (lambda Y: solve_sqrt_analysis(Y[:, 0], P2, 0.0), "lambda0"),
    (lambda Y: solve_sqrt_analysis(Y[:, 0], P2, 0.3, SolverOptions(tol=-1.0)), "tol"),
], ids=["plain_negative", "plain_nan", "plain_tol0", "plain_tol_negative", "sqrt_zero",
        "sqrt_negative", "sqrt_inf", "sqrt_tol0", "single_nan", "single_negative",
        "single_sqrt_zero", "single_sqrt_tol_negative"])
def test_bad_penalty_or_tolerance_rejected(call, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(np.tile(Y2[:, None], (1, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observations_rejected(bad):
    Y = np.array([0.0, bad])
    calls = [lambda: solve_analysis(Y, P2, 0.25),
             lambda: solve_analysis(Y, P2, 0.0),
             lambda: solve_analysis_batch(Y[:, None], P2, 0.25),
             lambda: solve_sqrt_analysis(Y, P2, 0.3),
             lambda: solve_sqrt_analysis_batch(Y[:, None], P2, 0.3)]
    for call in calls:
        with pytest.raises(ValueError, match="NaN or inf"):
            call()


def test_estimate_result_serialization():
    r = solve_analysis(Y2, P2, 0.25)
    d = r.to_dict()
    assert d["converged"] is True
    assert d["f_hat"] == pytest.approx([0.5, 1.5], abs=1e-6)
    assert d["sigma_hat"] is None


def test_kkt_certified_across_families_and_penalties():
    # the feasibility program is an independent global-optimality certificate
    # for this convex problem; sweep families, penalty scales, and signals
    rng = np.random.default_rng(77)
    cases = [path_graph(37), cycle_graph(30), grid_graph(5, 6)]
    for g in cases:
        D = incidence(g)
        for lam in (0.02, 0.2, 1.5):
            f0 = rng.standard_normal() * (np.arange(g.n) % 7 == 0)
            Y = f0 + rng.standard_normal(g.n)
            r = solve_analysis(Y, D, lam)
            assert r.converged
            assert r.kkt_residual <= 1e-7 * max(1.0, np.abs(Y).max()), (g.n, lam)


def _shuffled_flipped(g, rng):
    """The same graph with its edges in random order and random orientation."""
    edges = [g.edges[k] for k in rng.permutation(g.m)]
    return DirectedGraph(g.n, tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in edges))


def _relabelled(g, perm):
    """The graph with vertex v renamed perm[v - 1] + 1."""
    return DirectedGraph(g.n, tuple((int(perm[u - 1]) + 1, int(perm[v - 1]) + 1)
                                    for u, v in g.edges))


def _grid_shape_of(g):
    D = incidence(g)
    return solvers._grid_shape(D, edge_endpoints(D))


@pytest.mark.parametrize("h,w", [(2, 2), (3, 7), (7, 3), (8, 8), (32, 32)])
def test_grid_detected_whatever_the_edge_order_and_orientation(h, w):
    rng = np.random.default_rng(h * 100 + w)
    g = grid_graph(h, w)
    assert _grid_shape_of(g) == (h, w)
    assert _grid_shape_of(_shuffled_flipped(g, rng)) == (h, w)


def test_non_grids_take_superlu():
    rng = np.random.default_rng(5)
    g = grid_graph(8, 8)
    cut = [e for k, e in enumerate(g.edges) if k % 7 != 3]          # the grid minus 8 edges
    extra = g.edges + ((1, 64),)                                    # one edge too many
    relabelled = _relabelled(g, rng.permutation(64))                # same n and m, other D'D
    doubled = g.edges[:-1] + (g.edges[0],)          # one edge twice, another gone: same n and m
    for other in [path_graph(12), DirectedGraph(64, tuple(cut)), DirectedGraph(64, extra),
                  relabelled, DirectedGraph(64, doubled), cycle_graph(12),
                  tree_graph([1, 1, 2, 2, 3, 3, 4])]:
        assert _grid_shape_of(other) is None


@pytest.mark.parametrize("h,w", [(7, 3), (8, 8)])
@pytest.mark.parametrize("rho", [1e-3, 1.0, 1e3])
def test_spectral_grid_solve_matches_superlu(h, w, rho):
    D = incidence(grid_graph(h, w))
    DtD = (D.T @ D).tocsc()
    lu = spla.splu((sp.identity(h * w, format="csc") + rho * DtD).tocsc())
    solve = solvers.Splitting(D).factory(rho)
    rng = np.random.default_rng(int(rho * 1000) + h)
    for B in (1, 5, 64):
        R = rng.standard_normal((h * w, B))
        ref = lu.solve(R)
        X = solve(R.copy())
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_grid_batch_agrees_with_relabelled_grid_on_superlu():
    # the same problem, once through the spectral solve and once, with the
    # vertices renamed, through SuperLU
    rng = np.random.default_rng(12)
    g = grid_graph(6, 9)
    perm = rng.permutation(g.n)
    g_perm = _relabelled(g, perm)
    assert _grid_shape_of(g) == (6, 9) and _grid_shape_of(g_perm) is None
    Y = rng.standard_normal((g.n, 6)) + (np.arange(g.n) % 9 >= 4)[:, None]
    Y_perm = np.empty_like(Y)
    Y_perm[perm] = Y
    lams = np.full(6, 0.05)
    opts = SolverOptions(tol=1e-7, certify=False)
    state, state_perm = (solvers._AdmmState(split, Y_, lams, Y_ - Y_.mean(axis=0))
                         for split, Y_ in ((solvers.Splitting(incidence(g)), Y),
                                           (solvers.Splitting(incidence(g_perm)), Y_perm)))
    F, _, _, conv = solvers._admm_batch(state, Y, lams, opts)
    F_perm, _, _, conv_perm = solvers._admm_batch(state_perm, Y_perm, lams, opts)
    assert conv.all() and conv_perm.all()
    obj = solvers._objective(Y, F, lams, incidence(g))
    obj_perm = solvers._objective(Y_perm, F_perm, lams, incidence(g_perm))
    assert np.all(np.abs(obj - obj_perm) <= 1e-5 * obj_perm)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(3, 10), lam=st.floats(0.02, 1.0), scale=st.floats(0.5, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_random_paths_match_coordinate_descent_reference(n, lam, scale, seed):
    Y = np.random.default_rng(seed).standard_normal(n) * scale
    f_ref = cd_reference_path(Y, lam)
    r = solve_analysis(Y, incidence(path_graph(n)), lam, SolverOptions(certify=False))
    assert norm_n(r.f_hat - f_ref) < 1e-6
    assert r.objective <= objective(Y, f_ref, lam) + 1e-6


@settings(derandomize=True, deadline=None, max_examples=30)
@given(family=st.sampled_from(["path", "grid"]), size=st.integers(4, 30),
       a=st.floats(0.1, 10.0), negate=st.booleans(), b=st.floats(-10.0, 10.0),
       lam=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 16))
def test_solution_is_affine_equivariant(family, size, a, negate, b, lam, seed):
    # f(aY + b) = a f(Y) + b at penalty |a| lam: D annihilates constants and
    # the objective scales by a^2.  Paths take SuperLU, grids the DCT.
    g = path_graph(size) if family == "path" else grid_graph(2 + size % 4, 2 + size // 4)
    D = incidence(g)
    a = -a if negate else a
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal(g.n) + (np.arange(g.n) >= g.n // 2)
    opts = SolverOptions(tol=1e-9, certify=False)
    base = solve_analysis(Y, D, lam, opts)
    moved = solve_analysis(a * Y + b, D, abs(a) * lam, opts)
    gap = 1e-5
    assert abs(moved.objective - a * a * base.objective) <= gap * moved.objective
    assert norm_n(moved.f_hat - (a * base.f_hat + b)) ** 2 <= 4.0 * gap * moved.objective
