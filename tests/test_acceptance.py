"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Shared Monte Carlo runs are module-scoped fixtures so the square
root regime is simulated once and asserted twice (bounds and non-overfit).
"""
import math

import numpy as np
import pytest

from tvgo import compatibility, experiments, graphs, projections, solvers, tuning
from tvgo.experiments import experiment_csv, run_experiment
from tvgo.graphs import active_set, incidence, path_graph, tree_graph


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_closed_form_solver_oracle():
    D = incidence(path_graph(2))
    Y = np.array([0.0, 2.0])
    ok = True
    for lam in (0.05, 0.2, 0.5):
        f = solvers.solve_analysis(Y, D, lam).f_hat
        ok &= bool(np.allclose(f, [2 * lam, 2 - 2 * lam], atol=1e-6))
    for lam in (0.6, 1.5):
        f = solvers.solve_analysis(Y, D, lam).f_hat
        ok &= bool(np.allclose(f, [1.0, 1.0], atol=1e-6))
    for lam0 in (0.26, 0.4, 2.0):
        r = solvers.solve_sqrt_analysis(Y, D, lam0)
        ok &= (not r.overfit) and bool(np.allclose(r.f_hat, 1.0, atol=1e-6)) \
            and abs(r.sigma_hat - 1.0) <= 1e-6
    for lam0 in (0.05, 0.24):
        r = solvers.solve_sqrt_analysis(Y, D, lam0)
        ok &= bool(r.overfit)
    _report(1, ok, "path(2) closed forms, plain threshold 1/2 and sqrt threshold 1/4")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_gamma_bound_random_trees():
    rng = np.random.default_rng(2024)
    violations = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        parents = [int(rng.integers(1, v)) for v in range(2, n + 1)]
        g = tree_graph(parents)
        D = incidence(g)
        n_sets = 0
        while n_sets < 20:
            S = [i + 1 for i in range(g.m) if rng.random() < 0.3]
            a = active_set(g, S)
            if not a.inactive:
                continue
            n_sets += 1
            checked += 1
            rep = projections.theory_report(D, a)
            bound = math.sqrt((a.n_max + 1) / (4.0 * n))
            if rep.gamma > bound + 1e-12:
                violations += 1
    _report(2, violations == 0,
            f"gamma <= sqrt((n_max+1)/(4n)) on {checked} (tree, S) pairs, "
            f"{violations} violations")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_path_column_norms():
    # independent oracle: numpy's SVD pseudoinverse of the dense incidence;
    # the production column norms must match it and the closed form
    worst = 0.0
    for k in range(2, 65):
        g = path_graph(k)
        D = incidence(g)
        svd_norms = np.linalg.norm(np.linalg.pinv(D.toarray()), axis=0)
        prod_norms = projections.pseudoinverse(D, active_set(g, [])).column_norms()
        j = np.arange(1, k)
        closed = np.sqrt(j * (k - j) / k)
        worst = max(worst, float(np.abs(svd_norms - closed).max()),
                    float(np.abs(prod_norms - closed).max()))
    # and inside a larger block structure
    g = path_graph(96)
    a = active_set(g, [32])
    norms = projections.pseudoinverse(incidence(g), a).column_norms()
    j = np.arange(1, 32)
    worst = max(worst, float(np.abs(norms[:31] - np.sqrt(j * (32 - j) / 32)).max()))
    _report(3, worst < 1e-10, f"max |norm - closed form| = {worst:.2e} over n_i <= 64")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_compatibility_tightness():
    g = path_graph(8)
    a = active_set(g, [4])
    kappa = compatibility.kappa_numeric(incidence(g), a)
    sup = math.sqrt(a.r_S) / kappa
    ok = abs(sup - 2.0) <= 0.05 * 2.0
    _report(4, ok, f"numeric sqrt(r_S)/kappa = {sup:.6f} vs sqrt(nK) = 2 (within 5%)")


# -- 5 ----------------------------------------------------------------------

def _compositions(total, lo):
    if total == 0:
        yield ()
        return
    for first in range(lo, total + 1):
        for rest in _compositions(total - first, lo):
            yield (first,) + rest


def test_criterion_5_weight_increment_bound():
    violations = 0
    checked = 0

    def check(n, sizes):
        nonlocal violations, checked
        g = path_graph(n)
        a = active_set(g, list(np.cumsum(sizes[:-1])))
        rep = projections.theory_report(incidence(g), a)
        w = np.concatenate([rep.weights, [1.0]])
        lhs = float(np.sum(np.diff(w) ** 2))
        rhs = (5.0 / rep.gamma ** 2) * (a.r_S / n) * math.log(n / a.r_S)
        checked += 1
        if lhs > rhs:
            violations += 1

    for sizes in _compositions(16, 4):  # exhaustive at n = 16
        check(16, sizes)
    rng = np.random.default_rng(5)
    for n in (64, 256):  # the n >= 64 families are sampled: they are too many to enumerate
        for _ in range(400):
            sizes, left = [], n
            while left >= 8:
                take = int(rng.integers(4, left - 3))
                sizes.append(take)
                left -= take
            sizes.append(left)
            if min(sizes) >= 4:
                check(n, tuple(sizes))
    _report(5, violations == 0,
            f"weight-increment bound on {checked} admissible S (n in 16/64/256), "
            f"{violations} violations")


# -- 6 and 7 ------------------------------------------------------------------

PLAIN_CFG = {
    "graph": {"family": "path", "params": {"n": 128}},
    "S": [64],
    "signal": {"levels": [0.0, 1.0]},
    "sigma": 1.0,
    "params": {"x": 2.0, "t": 2.0, "a": 2.0, "eta": 0.5},
    "theorems": ["plain_fast", "plain_slow"],
    "trials": 1000,
    "seed": 606,
    "threads": 4,
}

SQRT_CFG = {
    "graph": {"family": "path", "params": {"n": 400}},
    "S": [200],
    "signal": {"levels": [0.0, 0.005]},
    "sigma": 1.0,
    "params": {"x": 2.0, "t": 2.0, "a": 2.0, "eta": 0.5},
    "theorems": ["sqrt_fast", "sqrt_slow"],
    "trials": 1000,
    "seed": 607,
    "threads": 4,
}

CYCLE_CFG = {
    "graph": {"family": "cycle", "params": {"n": 128}},
    "S": [64, 128],
    "signal": {"levels": [0.0, 1.0]},
    "sigma": 1.0,
    "params": {"x": 2.0, "t": 2.0, "a": 2.0, "eta": 0.5},
    "theorems": ["cycle_fast"],
    "trials": 1000,
    "seed": 608,
    "threads": 4,
}


@pytest.fixture(scope="module")
def sqrt_summary():
    summary, _ = run_experiment(dict(SQRT_CFG))
    return summary


def _floor_threshold(floor, trials):
    return floor - 3.0 * math.sqrt(floor * (1 - floor) / trials)


def test_criterion_6_oracle_inequality_floors(sqrt_summary):
    # the square-root regime must actually satisfy the assumption set
    rep = tuning.check_assumption1(
        400, 2, sqrt_summary["config"]["gamma"], 1.0, 2.0, 0.5, 2.0,
        sqrt_summary["config"]["lambda0"], sqrt_summary["config"]["norm_Df0_1"])
    assert rep.ok, "square-root acceptance regime violates the assumption set"

    plain, _ = run_experiment(dict(PLAIN_CFG))
    cyc, _ = run_experiment(dict(CYCLE_CFG))
    floor_plain = 1 - 2 * math.exp(-2)
    floor_sqrt = 1 - 5 * math.exp(-2)
    assert floor_plain == pytest.approx(0.7293, abs=5e-4)
    assert floor_sqrt == pytest.approx(0.3233, abs=5e-4)
    details, ok = [], True
    for summ, ids, floor in ((plain, ["plain_fast", "plain_slow"], floor_plain),
                             (sqrt_summary, ["sqrt_fast", "sqrt_slow"], floor_sqrt),
                             (cyc, ["cycle_fast"], floor_plain)):
        for tid in ids:
            frac = summ["theorems"][tid]["holds_fraction"]
            thr = _floor_threshold(floor, summ["config"]["trials"])
            ok &= frac >= thr
            details.append(f"{tid}={frac:.3f}(>={thr:.3f})")
    _report(6, ok, "holding fractions " + ", ".join(details))


def test_criterion_7_non_overfit(sqrt_summary):
    floor = 1 - 3 * math.exp(-2) - math.exp(-2)
    assert floor == pytest.approx(0.4586, abs=5e-4)
    frac = sqrt_summary["nonoverfit_fraction"]
    thr = _floor_threshold(floor, sqrt_summary["config"]["trials"])
    _report(7, frac >= thr,
            f"|ratio - 1| <= eta in {frac:.3f} of trials (floor {thr:.3f}), "
            f"overfit rate {sqrt_summary['overfit_rate']:.4f}")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_probability_lemmas():
    out = experiments.verify_probability_lemmas(trials=100_000, seed=808)
    bad = [c for c in out["cells"] if not c["ok"]]
    _report(8, out["all_ok"],
            f"{len(out['cells'])} tail cells at 1e5 samples, {len(bad)} exceed "
            "bound + 3 SE")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_rate_shape():
    t = 2.0
    ns = [64, 128, 256, 512, 1024, 2048, 4096]
    medians = []
    for n in ns:
        r = max(2, round((n * (math.log(2 * n) + t)) ** (1.0 / 3.0)))
        cfg = {
            "graph": {"family": "path", "params": {"n": n}},
            "S": [round(k * n / r) for k in range(1, r)],
            "signal": {"tv_budget": 1.0},
            "sigma": 1.0,
            "params": {"x": 2.0, "t": t, "a": 2.0, "eta": 0.5},
            "theorems": [],
            "lambda": math.sqrt((math.log(2 * n) + t) / (r * n)),
            "trials": 31,
            "seed": 909,
            "threads": 4,
            "events": False,
        }
        summary, _ = run_experiment(cfg)
        medians.append(summary["mse_plain"]["median"])
    slope = float(np.polyfit(np.log(ns), np.log(medians), 1)[0])
    ok = -0.80 <= slope <= -0.55
    _report(9, ok, f"log-log slope of median MSE = {slope:.3f} (target [-0.80, -0.55])")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_determinism_across_threads():
    cfg = dict(PLAIN_CFG, trials=96)
    csv1, _ = experiment_csv(dict(cfg, threads=1))
    csv8, _ = experiment_csv(dict(cfg, threads=8))
    _report(10, csv1 == csv8,
            f"{cfg['trials']}-trial CSV byte-identical across 1 and 8 threads "
            f"({len(csv1)} bytes)")
