"""The dual certificate of a solve against the linear program it stands in for.

kkt_bound builds a feasible point of kkt_residual's linear program from the
solver's own dual (BatchResult.V), so its residual bounds the program's
optimum from above; a certified single solve reports it when it passes
kkt_tol and runs the program only otherwise, so scipy.optimize is imported
only for that fallback.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tvgo
from tvgo import graphs, solvers, splitting
from tvgo.graphs import cycle_graph, grid_graph, incidence, path_graph, tree_graph
from tvgo.solvers import (SolverOptions, kkt_bound, kkt_residual, solve_analysis,
                          solve_analysis_batch, solve_sqrt_analysis_batch)

from test_experiments import GRID_CFG

KKT_TOL = SolverOptions().kkt_tol
HIGHS_FEAS_TOL = 1e-7   # HiGHS's default feasibility tolerance: its optimum is good to this


def _graph(family, size, seed):
    if family == "path":
        return path_graph(size)
    if family == "cycle":
        return cycle_graph(size)
    if family == "grid":
        return grid_graph(2 + size % 4, 2 + size // 4)
    rng = np.random.default_rng(seed)
    return tree_graph([int(rng.integers(1, v)) for v in range(2, size + 1)])


FAMILIES = [("path", 40), ("cycle", 30), ("grid", 6), ("tree", 40)]


def _problem(family, size):
    g = grid_graph(size, size) if family == "grid" else _graph(family, size, 7)
    rng = np.random.default_rng(size)
    Y = rng.standard_normal(g.n) + 2.0 * (np.arange(g.n) >= g.n // 2)
    return incidence(g), Y


@pytest.mark.parametrize("family,size", FAMILIES)
@pytest.mark.parametrize("sqrt", [False, True], ids=["plain", "sqrt"])
def test_moved_vertex_fails_bound_and_program(family, size, sqrt):
    D, Y = _problem(family, size)
    solve = solve_sqrt_analysis_batch if sqrt else solve_analysis_batch
    out = solve(Y[:, None], D, 0.1 if sqrt else 0.05)
    f, lam, v = out.F[:, 0], out.lam[0], out.V[:, 0]
    assert out.converged[0] and lam > 0
    assert kkt_bound(Y, f, D, lam, v) <= KKT_TOL
    moved = f.copy()
    moved[len(f) // 3] += 1e-3
    assert kkt_bound(Y, moved, D, lam, v) > KKT_TOL
    assert kkt_residual(Y, moved, D, lam) > KKT_TOL


@settings(derandomize=True, deadline=None, max_examples=40)
@given(family=st.sampled_from(["path", "cycle", "tree", "grid"]), size=st.integers(4, 30),
       sqrt=st.booleans(), level=st.floats(0.01, 0.5), scale=st.floats(0.2, 5.0),
       seed=st.integers(0, 2 ** 16))
def test_bound_is_above_program_and_passes_on_converged_solves(family, size, sqrt, level,
                                                                 scale, seed):
    g = _graph(family, size, seed)
    D = incidence(g)
    rng = np.random.default_rng(seed)
    Y = scale * (rng.standard_normal(g.n) + (np.arange(g.n) % 7 < 3))
    out = (solve_sqrt_analysis_batch if sqrt else solve_analysis_batch)(Y[:, None], D, level)
    if sqrt and out.overfit[0]:
        return   # f = Y and lam = 0: there is no multiplier to certify
    f, lam = out.F[:, 0], out.lam[0]
    bound = kkt_bound(Y, f, D, lam, out.V[:, 0])
    assert bound >= kkt_residual(Y, f, D, lam) - HIGHS_FEAS_TOL
    if out.converged[0]:
        assert bound <= KKT_TOL


def test_certified_solves_and_experiments_leave_the_lp_unloaded():
    # scipy.optimize adds about 14 MB of RSS to a process, so it is loaded
    # only by the linear-program fallback, which none of these need: nor
    # does the polish of a grid experiment or of a 32x32 grid batch
    script = """
import json, sys
import numpy as np
from tvgo import experiments, solvers
from tvgo.graphs import cycle_graph, grid_graph, incidence, path_graph, tree_graph
rng = np.random.default_rng(0)
graphs = [path_graph(40), cycle_graph(30), grid_graph(6, 6),
          tree_graph([max(1, v - 1 - (v * 7) % 5) for v in range(2, 41)])]
for g in graphs:
    D = incidence(g)
    Y = rng.standard_normal(g.n) + 2.0 * (np.arange(g.n) >= g.n // 2)
    for res in (solvers.solve_analysis(Y, D, 0.05), solvers.solve_sqrt_analysis(Y, D, 0.1)):
        assert res.converged and res.kkt_residual <= solvers.SolverOptions().kkt_tol, res
experiments.experiment_csv({
    "graph": {"family": "path", "params": {"n": 48}}, "S": [24],
    "signal": {"levels": [0.0, 1.0]}, "theorems": ["plain_slow", "sqrt_slow"],
    "trials": 16, "seed": 5, "events": True})
experiments.experiment_csv(json.loads(sys.argv[1]))
g = grid_graph(32, 32)
Y = rng.standard_normal((g.n, 8)) + (np.arange(g.n) % 32 >= 16)[:, None]
assert solvers.solve_analysis_batch(Y, incidence(g), 0.004).certified.any()
print("scipy.optimize" in sys.modules)
D = incidence(path_graph(6))
solvers.kkt_residual(np.arange(6.0), np.full(6, 2.5), D, 0.05)   # every row free
print("scipy.optimize" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(tvgo.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", script, json.dumps(GRID_CFG)], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]


def test_single_solve_reports_the_bound_without_the_program(monkeypatch):
    def no_program(*args):
        raise AssertionError("the linear program ran")

    monkeypatch.setattr(solvers, "kkt_residual", no_program)
    D, Y = _problem("grid", 6)
    r = solve_analysis(Y, D, 0.05)
    out = solve_analysis_batch(Y[:, None], D, 0.05)
    assert r.kkt_residual == kkt_bound(Y, out.F[:, 0], D, 0.05, out.V[:, 0]) <= KKT_TOL


@pytest.mark.parametrize("solve,level", [(solvers.solve_analysis, 0.05),
                                         (solvers.solve_sqrt_analysis, 0.1)],
                         ids=["plain", "sqrt"])
def test_certified_solve_reads_the_edges_once(monkeypatch, solve, level):
    # the certificate's forest step takes the edge endpoints the solve's
    # Splitting already read
    calls = []
    original = graphs.edge_endpoints

    def counting(D):
        calls.append(D.shape)
        return original(D)

    monkeypatch.setattr(graphs, "edge_endpoints", counting)
    D, Y = _problem("grid", 6)
    r = solve(Y, D, level)
    assert r.converged and r.kkt_residual is not None and r.kkt_residual <= KKT_TOL
    assert calls == [D.shape]


@pytest.mark.parametrize("family,size", [("path", 128), ("cycle", 128), ("tree", 200)])
def test_bound_of_a_plain_D_builds_no_factor(monkeypatch, family, size):
    # a plain D gives kkt_bound its edge endpoints alone, without the grounded
    # Laplacian factor a Splitting builds for the fusion screen, and the same bits
    D, Y = _problem(family, size)
    out = solve_analysis_batch(Y[:, None], D, 0.05)
    f, v = out.F[:, 0], out.V[:, 0]
    factors = []
    factor = splitting._grounded_solve
    monkeypatch.setattr(splitting, "_grounded_solve",
                        lambda *a: factors.append(1) or factor(*a))
    split = solvers.Splitting(D)
    assert factors == [1]
    assert kkt_bound(Y, f, D, 0.05, v) == kkt_bound(Y, f, split, 0.05, v)
    assert factors == [1]


def test_bound_above_tolerance_falls_back_to_the_program(monkeypatch):
    # three iterations leave the dual far from certifying, so the solve runs
    # the program and reports its optimum, which is below the bound
    calls = []
    program = solvers.kkt_residual

    def spy(*args):
        calls.append(program(*args))
        return calls[-1]

    monkeypatch.setattr(solvers, "kkt_residual", spy)
    D, Y = _problem("path", 40)
    opts = SolverOptions(max_iter=3)
    r = solve_analysis(Y, D, 0.05, opts)
    out = solve_analysis_batch(Y[:, None], D, 0.05, opts)
    bound = kkt_bound(Y, r.f_hat, D, 0.05, out.V[:, 0])
    assert not r.converged and bound > KKT_TOL
    assert calls == [r.kkt_residual] and r.kkt_residual <= bound


@settings(derandomize=True, deadline=None, max_examples=30)
@given(family=st.sampled_from(["path", "cycle", "tree", "grid"]), size=st.integers(4, 30),
       lam=st.floats(0.001, 0.5), fuse=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_bound_is_above_program_for_any_candidate(family, size, lam, fuse, seed):
    # any f and any dual guess, even one outside [-1, 1]: the bound comes
    # from a feasible point of the program, so it is never below its optimum
    g = _graph(family, size, seed)
    D = incidence(g)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal(g.n) * 3.0
    f = np.where(rng.random(g.n) < fuse, Y.mean(), Y + 0.1 * rng.standard_normal(g.n))
    v = rng.uniform(-1.5, 1.5, g.m)
    assert kkt_bound(Y, f, D, lam, v) >= kkt_residual(Y, f, D, lam) - HIGHS_FEAS_TOL


def test_bound_spreads_a_component_total_like_the_program():
    # f is the optimum moved by a constant on a fully fused cycle: no
    # multiplier changes the component's total residual, and the least
    # largest residual spreads it evenly over the n vertices
    n, shift = 12, 1e-3
    D = incidence(cycle_graph(n))
    Y = np.random.default_rng(3).standard_normal(n)
    f = np.full(n, Y.mean() + shift)
    assert kkt_bound(Y, f, D, 5.0, np.zeros(n)) == pytest.approx(shift / n, rel=1e-9)
    assert kkt_residual(Y, f, D, 5.0) == pytest.approx(shift / n, abs=HIGHS_FEAS_TOL)
