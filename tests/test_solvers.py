import numpy as np
import pytest

from _reference import brute_force_path2_sqrt, cd_reference_path, objective
from tvgo import solvers
from tvgo.graphs import cycle_graph, grid_graph, incidence, path_graph
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


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal(60)
    D = incidence(path_graph(60))
    r = solve_analysis(Y, D, 0.15, SolverOptions(track_objective=True, certify=False))
    trace = np.asarray(r.objective_trace)
    assert np.all(np.diff(trace) <= 1e-14)
    assert r.objective == pytest.approx(trace[-1], rel=1e-12)


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
    F = solve_analysis_batch(Y, D, 0.2, SolverOptions(certify=False))
    for j in range(5):
        r = solve_analysis(Y[:, j], D, 0.2, SolverOptions(certify=False))
        assert norm_n(F[:, j] - r.f_hat) < 1e-6


def test_sqrt_batch_matches_single():
    rng = np.random.default_rng(10)
    g = path_graph(40)
    D = incidence(g)
    Y = np.where(np.arange(40) < 20, 0.0, 1.0)[:, None] + rng.standard_normal((40, 4))
    F, sig, ovf = solve_sqrt_analysis_batch(Y, D, 0.05, SolverOptions(certify=False))
    assert not ovf.any()
    for j in range(4):
        r = solve_sqrt_analysis(Y[:, j], D, 0.05, SolverOptions(certify=False))
        assert abs(sig[j] - r.sigma_hat) < 1e-6
        assert norm_n(F[:, j] - r.f_hat) < 1e-5


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        solve_analysis(np.zeros(3), P2, 0.1)
    with pytest.raises(ValueError):
        solve_analysis(Y2, P2, -0.5)
    with pytest.raises(ValueError):
        solve_sqrt_analysis(Y2, P2, 0.0)


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
