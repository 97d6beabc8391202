import ast
import graphlib
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import brute_force_path2_sqrt, cd_reference_path, objective
from tvgo import admm, experiments, griddct, polish, solvers
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


@pytest.mark.parametrize("g", [grid_graph(5, 6), grid_graph(8, 8), path_graph(64)],
                         ids=["grid5x6", "grid8x8", "path64"])
@pytest.mark.parametrize("c", [0.1, 3.7, math.pi, 1e6 + 0.1, -7.3])
def test_constant_up_to_rounding_overfits_on_every_graph(g, c):
    # the componentwise mean of these columns rounds, so Y - Ybar is 4e-17
    # to 1e-9, not 0: such a column has no scale and leaves at once as
    # overfit, whichever Laplacian solve its graph takes (the DCT on the
    # grids, a factor on the path)
    Y = np.full(g.n, c)
    r = solve_sqrt_analysis(Y, incidence(g), 0.05)
    assert r.overfit and r.converged
    assert np.array_equal(r.f_hat, Y)
    assert r.sigma_hat == 0.0 and r.lambda_used == 0.0
    assert r.iterations == 0


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
    # the first step's fit (2 lam - 1, 1 - 2 lam) is certified with two
    # groups, so a = 0 and the column jumps to the overfit floor, where
    # polishing the same pattern verifies it: some ten inner iterations at
    # each lambda0, where the monotone step, which multiplies sigma by
    # 4 lambda0, took 53,280 at 0.245 and ran out of its 100,000 at 0.249
    start = time.process_time()
    for lam0 in (0.05, 0.2, 0.24, 0.245, 0.249):
        r = solve_sqrt_analysis(Y2, P2, lam0)
        assert r.overfit and r.converged and r.iterations <= 100
        assert np.array_equal(r.f_hat, Y2)
        assert r.sigma_hat == 0.0
        assert r.kkt_residual is None
    assert time.process_time() - start < 0.1
    # at 0.2499 the fit's jump starts below GAP_CAP of the data's scale, which
    # the polish reads as fused, so monotone steps run until one certifies
    r = solve_sqrt_analysis(Y2, P2, 0.2499)
    assert r.overfit and r.converged and r.iterations <= 1000
    assert np.array_equal(r.f_hat, Y2) and r.sigma_hat == 0.0


def test_sqrt_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    for _ in range(6):
        Y = rng.standard_normal(2) * 2
        lam0 = float(rng.uniform(0.05, 0.6))
        f_bf, sig_bf = brute_force_path2_sqrt(Y, lam0)
        r = solve_sqrt_analysis(Y, P2, lam0)
        assert r.sigma_hat == pytest.approx(sig_bf, abs=2e-5)
        assert np.allclose(r.f_hat, f_bf, atol=2e-5)


def test_sqrt_path2_sweep_matches_brute_force_scan():
    # lambda0 = 1/4 is left out: there the objective is flat along the
    # fused-to-Y segment, and any of its points is a minimizer
    for k in range(110):
        lam0 = 0.05 + 0.005 * k
        if abs(lam0 - 0.25) < 1e-12:
            continue
        f_bf, sig_bf = brute_force_path2_sqrt(Y2, lam0)
        r = solve_sqrt_analysis(Y2, P2, lam0)
        assert r.converged and r.overfit == (lam0 < 0.25), lam0
        assert r.sigma_hat == pytest.approx(sig_bf, abs=2e-5), lam0
        assert np.allclose(r.f_hat, f_bf, atol=2e-5), lam0


def test_starved_inner_solve_is_not_an_overfit():
    # one ADMM iteration for the whole fixed point: an inner solve that has
    # not converged keeps its scale, so its iterate does not count as an
    # overfit; the columns the screen fuses (7-9) take no iteration and stay
    # converged, and the others keep their starting scale, unsettled
    rng = np.random.default_rng(0)
    D = incidence(path_graph(64))
    Y = np.repeat([0.0, 1.0], 32)[:, None] + rng.standard_normal((64, 16))
    out = solve_sqrt_analysis_batch(Y, D, 0.1, SolverOptions(max_iter=1))
    assert not out.overfit.any() and out.iterations == 1
    assert np.array_equal(np.flatnonzero(out.converged), [7, 8, 9])
    assert np.array_equal(out.certified, out.converged)
    np.testing.assert_allclose(out.sigma_hat, norm_n(Y - Y.mean(axis=0), axis=0), rtol=1e-14)


@pytest.mark.parametrize("max_iter", [1, 10, 100, 1000])
def test_max_iter_bounds_the_whole_sqrt_fixed_point(max_iter):
    # a noisy step on path(200) at lambda0 = 0.1 settles after 1,784 inner
    # iterations over four outer steps; max_iter bounds them all, not each
    # step's ladder, so a smaller budget is spent to the last iteration and
    # leaves the scale unsettled
    n = 200
    Y = (np.arange(n) >= n // 2) + 0.5 * np.random.default_rng(1).standard_normal(n)
    D, Y = incidence(path_graph(n)), Y[:, None]
    full = solve_sqrt_analysis_batch(Y, D, 0.1)
    assert full.converged[0] and full.certified[0] and full.iterations > 1000
    out = solve_sqrt_analysis_batch(Y, D, 0.1, SolverOptions(max_iter=max_iter))
    assert out.iterations == max_iter and not out.converged[0] and not out.overfit[0]
    assert not out.certified[0]


def test_a_jump_that_misses_falls_back_to_the_monotone_step(monkeypatch):
    # path(4): the fit at the starting scale fuses vertices 1-3, and that
    # pattern's own fixed point lies below the penalties at which the
    # pattern holds, so polishing it there fails; the column takes the
    # monotone step from the starting scale instead and settles later by a
    # verified jump
    lams, inner = [], polish._plain_batch

    def spy(split, Y, lam, opts, F, V):
        lams.append(float(lam[0]))
        return inner(split, Y, lam, opts, F, V)

    monkeypatch.setattr(polish, "_plain_batch", spy)
    D, Y, lam0 = incidence(path_graph(4)), np.array([-2.3, -1.1, -1.4, 2.2]), 0.127
    r = solve_sqrt_analysis(Y, D, lam0)
    monkeypatch.undo()
    sigma0 = norm_n(Y - Y.mean())
    f0 = solve_analysis(Y, D, 2.0 * lam0 * sigma0).f_hat
    s0 = np.sign(D @ f0)
    assert np.array_equal(s0, [0.0, 0.0, 1.0])
    # the pattern's closed form f(lam) = Ybar_G - n lam w, and its own root
    G = np.array([0, 0, 0, 1])

    def means(v):
        return (np.bincount(G, v) / np.bincount(G))[G]

    a, b = norm_n(Y - means(Y)) ** 2, norm_n(4 * means(D.T @ s0)) ** 2
    root = math.sqrt(a / (1.0 - 4.0 * b * lam0 ** 2))
    assert root < sigma0
    # the fit at the root reads another pattern, so the jump misses ...
    assert not np.array_equal(np.sign(D @ solve_analysis(Y, D, 2.0 * lam0 * root).f_hat), s0)
    # ... and the second step is the monotone one from the starting scale
    assert len(lams) == 3 and lams[0] == 2.0 * lam0 * sigma0
    assert lams[1] == pytest.approx(2.0 * lam0 * norm_n(Y - f0), rel=1e-12)
    # a jump from the last step settled the column: lambda_used is no step's
    assert r.converged and not r.overfit and r.kkt_residual <= 1e-12
    assert r.lambda_used == 2.0 * lam0 * r.sigma_hat < lams[-1]
    # sigma_hat is a fixed point, the exact plain fit's residual norm ...
    assert r.sigma_hat == pytest.approx(norm_n(Y - r.f_hat), rel=1e-12)
    assert np.allclose(r.f_hat, cd_reference_path(Y, r.lambda_used), atol=1e-9)
    # ... and the largest: every larger scale's plain fit leaves less
    for s in np.geomspace(sigma0, 1.001 * r.sigma_hat, 30):
        assert norm_n(Y - solve_analysis(Y, D, 2.0 * lam0 * s).f_hat) < s


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


@pytest.mark.parametrize("sqrt", [False, True], ids=["plain", "sqrt"])
def test_stopping_test_ignores_a_constant_shift(sqrt):
    # f(Y + b) = f(Y) + b and sigma_hat(Y + b) = sigma_hat(Y): the solver
    # core sees only Y minus its componentwise mean, so a shifted solve takes
    # the same iterations to the same tolerance, loose or tight
    rng = np.random.default_rng(0)
    n = 128
    D = incidence(path_graph(n))
    Y = (np.arange(n) >= n // 2) + rng.standard_normal(n)
    solve = solve_sqrt_analysis if sqrt else solve_analysis
    loose = SolverOptions(tol=1e-7, certify=False)
    tight = SolverOptions(tol=1e-11, fp_tol=1e-11, certify=False)
    ref = solve(Y, D, 0.05, tight)
    for opts in (loose, tight):
        base = solve(Y, D, 0.05, opts)
        for b in (10.0, 1e3, 1e5, 1e6, 1e7):
            start = time.perf_counter()
            moved = solve(Y + b, D, 0.05, opts)
            seconds = time.perf_counter() - start
            assert moved.converged and moved.iterations == base.iterations
            assert np.max(np.abs(moved.f_hat - b - base.f_hat)) <= 1e-6
            # the objective ignores the shift
            assert moved.objective <= ref.objective * (1.0 + 1e-5)
            if sqrt:
                assert not moved.overfit
                assert abs(moved.sigma_hat - base.sigma_hat) <= 1e-9 * base.sigma_hat
            if opts is tight and b == 1e5:
                assert seconds < 1.0


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


@pytest.mark.parametrize("opts,message", [
    (SolverOptions(max_iter=0), "max_iter must be an integer >= 1, got 0"),
    (SolverOptions(max_iter=-2), "max_iter must be an integer >= 1, got -2"),
    (SolverOptions(max_iter=2.5), "max_iter must be an integer >= 1, got 2.5"),
    (SolverOptions(fp_tol=0.0), "fp_tol must be finite and > 0"),
    (SolverOptions(fp_tol=np.nan), "fp_tol must be finite and > 0"),
    (SolverOptions(kkt_tol=-1e-6), "kkt_tol must be finite and > 0"),
    (SolverOptions(kkt_tol=np.inf), "kkt_tol must be finite and > 0"),
], ids=["max_iter0", "max_iter_negative", "max_iter_float", "fp_tol0", "fp_tol_nan",
        "kkt_tol_negative", "kkt_tol_inf"])
def test_bad_solver_options_rejected(opts, message):
    # a budget below 1 ran no ADMM iteration and crashed on an unset iterate;
    # every entry point checks every option, whichever estimator reads it
    Y = np.array([0.0, 1.0, 5.0])
    D = incidence(path_graph(3))
    calls = [lambda: solve_analysis(Y, D, 0.1, opts),
             lambda: solve_analysis_batch(Y[:, None], D, 0.1, opts),
             lambda: solve_sqrt_analysis(Y, D, 0.01, opts),
             lambda: solve_sqrt_analysis_batch(Y[:, None], D, 0.01, opts)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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


def test_complex_observations_rejected():
    # the float conversion dropped the imaginary part with a ComplexWarning
    # alone, and the solve reported converged
    Y = np.arange(2) + 1j
    calls = [lambda: solve_analysis(Y, P2, 0.25),
             lambda: solve_analysis_batch(Y[:, None], P2, 0.25),
             lambda: solve_sqrt_analysis(Y, P2, 0.3),
             lambda: solve_sqrt_analysis_batch(Y[:, None], P2, 0.3)]
    for call in calls:
        with pytest.raises(ValueError, match="observations must be real, got dtype complex128"):
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
    return griddct._grid_shape(D.shape[1], edge_endpoints(D))


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


def _random_tree(seed, n):
    rng = np.random.default_rng(seed)
    return tree_graph([int(rng.integers(1, v)) for v in range(2, n + 1)])


# the graphs that take a SuperLU factor of I + rho D'D; a parallel pair, one
# edge of it reversed, must add up to -2 rho off the diagonal
FACTORED = {
    "path": path_graph(30),
    "cycle": cycle_graph(25),
    "random-tree": _random_tree(3, 40),
    "parallel-pair": DirectedGraph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (2, 1),
                                       (3, 4))),
    "relabelled-grid": _relabelled(grid_graph(9, 7), np.random.default_rng(8).permutation(63)),
}


@pytest.mark.parametrize("name", list(FACTORED))
@pytest.mark.parametrize("rho", [0.01, 1.7, 300.0])
def test_endpoint_built_factor_solves_as_the_sparse_product_does(name, rho):
    # the f-update's I + rho L is built from the edge endpoints; the sparse
    # product D'D is the independent oracle, and the solves agree bit for bit
    D = incidence(FACTORED[name])
    n = D.shape[1]
    assert solvers.Splitting(D).single is None
    lu = spla.splu((sp.identity(n, format="csc") + rho * (D.T @ D)).tocsc())
    solve = solvers.Splitting(D).factory(rho)
    R = np.random.default_rng(n).standard_normal((n, 5))
    assert np.array_equal(solve(R.copy()), lu.solve(R))
    assert np.array_equal(solve(R[:, 0].copy()), lu.solve(R[:, 0]))


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
    # both grids are connected, so the componentwise mean is each column's
    mean, mean_perm = Y.mean(axis=0), Y_perm.mean(axis=0)
    F, _, _, conv = admm._admm_batch(admm._AdmmState(solvers.Splitting(incidence(g)), Y - mean,
                                                     lams), Y - mean, lams, opts)
    F_perm, _, _, conv_perm = admm._admm_batch(
        admm._AdmmState(solvers.Splitting(incidence(g_perm)), Y_perm - mean_perm, lams),
        Y_perm - mean_perm, lams, opts)
    assert conv.all() and conv_perm.all()
    obj = solvers._objective(Y, F + mean, lams, incidence(g))
    obj_perm = solvers._objective(Y_perm, F_perm + mean_perm, lams, incidence(g_perm))
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


@pytest.mark.parametrize("sqrt", [False, True], ids=["plain", "sqrt"])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(family=st.sampled_from(["path", "grid"]), size=st.integers(4, 30),
       a=st.floats(0.1, 10.0), negate=st.booleans(), b=st.floats(-10.0, 10.0),
       lam=st.floats(0.01, 0.5), seed=st.integers(0, 2 ** 16))
@example(family="path", size=20, a=1.0, negate=False, b=1e7, lam=0.05, seed=0)
# a nearly constant aY + b, 3 + 1e-9 noise, whose scale is a's alone
@example(family="grid", size=20, a=1e-9, negate=False, b=3.0, lam=0.05, seed=0)
def test_solution_is_affine_equivariant(sqrt, family, size, a, negate, b, lam, seed):
    # f(aY + b) = a f(Y) + b at penalty |a| lam: D annihilates constants and
    # the objective scales by a^2.  The square root keeps its level lambda0:
    # its objective and sigma_hat scale by |a|, and the overfit floor is
    # relative to the scale of Y minus its componentwise mean, so the flag
    # does not move.  Paths take SuperLU, grids the DCT.
    g = path_graph(size) if family == "path" else grid_graph(2 + size % 4, 2 + size // 4)
    D = incidence(g)
    a = -a if negate else a
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal(g.n) + (np.arange(g.n) >= g.n // 2)
    opts = SolverOptions(tol=1e-9, certify=False)
    gap = 1e-5
    if sqrt:
        base = solve_sqrt_analysis(Y, D, lam, opts)
        moved = solve_sqrt_analysis(a * Y + b, D, lam, opts)
        assert moved.overfit == base.overfit and moved.converged
        assert abs(moved.objective - abs(a) * base.objective) <= gap * moved.objective
        assert abs(moved.sigma_hat - abs(a) * base.sigma_hat) <= gap * moved.sigma_hat
        assert norm_n(moved.f_hat - (a * base.f_hat + b)) <= gap * moved.objective
        # only a Y constant up to the rounding of its mean has no scale,
        # and reads as overfit
        assert solve_sqrt_analysis(np.full(g.n, 3.0), D, lam, opts).overfit
        return
    base = solve_analysis(Y, D, lam, opts)
    moved = solve_analysis(a * Y + b, D, abs(a) * lam, opts)
    assert abs(moved.objective - a * a * base.objective) <= gap * moved.objective
    assert norm_n(moved.f_hat - (a * base.f_hat + b)) ** 2 <= 4.0 * gap * moved.objective


def test_readme_import_sentence_matches_the_code():
    # the relative imports of src/tvgo form no cycle, and among the solver
    # modules and projections they are exactly the ones README's "Imports
    # run one way" sentence lists
    root = Path(__file__).parents[1]
    imports = {}
    for path in (root / "src" / "tvgo").glob("*.py"):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[path.stem] |= ({node.module} if node.module
                                       else {alias.name for alias in node.names})
    list(graphlib.TopologicalSorter(imports).static_order())   # CycleError on a cycle
    readme = " ".join((root / "README.md").read_text().split())
    sentence = readme.split("the imports are exactly these: ", 1)[1].split(".", 1)[0]
    listed = set()
    for clause in sentence.split(";"):
        importers, imported = re.split(r"\bimports?\b", clause)
        listed |= {(a, b) for a in re.findall(r"`(\w+)`", importers)
                   for b in re.findall(r"`(\w+)`", imported)}
    core = {module for edge in listed for module in edge}
    assert core == {"griddct", "splitting", "admm", "projections", "certify", "polish", "solvers"}
    assert {(a, b) for a in core for b in imports[a] & core} == listed


SOLVER_MODULES = ("solvers", "griddct", "splitting", "admm", "polish", "certify")


def _module_tree(module):
    return ast.parse((Path(__file__).parents[1] / "src" / "tvgo" / f"{module}.py").read_text())


def test_no_solver_function_binds_a_knob_as_a_default():
    # a default argument value is evaluated once, at import, so a module
    # constant bound there ignores a value later set on the module: every
    # function of the solver modules reads its knobs when it runs
    for module in SOLVER_MODULES:
        tree = _module_tree(module)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [d for d in node.args.defaults + node.args.kw_defaults if d]
                bound = {name.id if isinstance(name, ast.Name) else name.attr
                         for d in defaults for name in ast.walk(d)
                         if isinstance(name, (ast.Name, ast.Attribute))}
                assert not {name for name in bound if name.isupper()}, \
                    (module, getattr(node, "name", "lambda"))


def test_readme_module_table_names_every_knob():
    # every upper-case module constant of the solver modules is named in its
    # module's row of README's module table, or matched there by a PREFIX_*
    # wildcard; every constant and wildcard a row names exists in its module
    root = Path(__file__).parents[1]
    rows = {}
    for line in (root / "README.md").read_text().splitlines():
        if cell := re.match(r"\| `(\w+)` \| (.*) \|$", line):
            rows[cell[1]] = set(re.findall(r"`([A-Z][A-Z0-9_]+\*?)`", cell[2]))
    for module in SOLVER_MODULES:
        tree = _module_tree(module)
        knobs = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()}
        named = rows[module]
        wildcards = {name[:-1] for name in named if name.endswith("*")}
        assert knobs, module
        for knob in knobs:
            assert knob in named or any(knob.startswith(w) for w in wildcards), (module, knob)
        assert named - {w + "*" for w in wildcards} <= knobs, module
        assert all(any(knob.startswith(w) for knob in knobs) for w in wildcards), module


def test_one_code_computes_a_plain_fit():
    # both estimators reach ADMM only through the polished ladder
    # (polish._plain_batch): solvers names no ADMM state, batch or dual
    named = {node.attr for node in ast.walk(_module_tree("solvers"))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "admm"}
    assert not named & {"_admm_batch", "_AdmmState", "_scaled_dual"}
    assert "_plain_batch" in {node.attr for node in ast.walk(_module_tree("solvers"))
                              if isinstance(node, ast.Attribute)}
