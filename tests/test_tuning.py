import dataclasses
import math

import numpy as np
import pytest

from tvgo import graphs, projections, tuning
from tvgo.compatibility import kappa_bound_cycle, kappa_bound_path
from tvgo.graphs import active_set, cycle_graph, grid_graph, incidence, path_graph
from tvgo.tuning import (TheoremHypothesisError, TheoremInputs, THEOREMS,
                         admissible_set_requirements, check_assumption1,
                         lambda0_sqrt, lambda_plain, minimal_tuning,
                         oracle_rhs, t_max_sqrt)


def test_lambda_plain_value():
    # gamma=0.5, sigma=1, n=100, r_S=2, t=1
    got = lambda_plain(0.5, 1.0, 100, 2, 1.0)
    expect = 0.5 * math.sqrt((2 * math.log(196.0) + 2.0) / 100.0)
    assert got == pytest.approx(expect, rel=1e-15)
    assert got == pytest.approx(0.17717385048633047, rel=1e-14)


def test_lambda_plain_homogeneous():
    base = lambda_plain(0.4, 1.0, 64, 3, 2.0)
    assert lambda_plain(0.4, 2.0, 64, 3, 2.0) == pytest.approx(2 * base)
    assert lambda_plain(0.0, 1.0, 64, 3, 2.0) == 0.0
    with pytest.raises(ValueError):
        lambda_plain(0.4, 1.0, 4, 4, 2.0)


def test_lambda0_prefactor():
    v0 = lambda0_sqrt(0.3, 100, 2, 1.0, 1e-12)
    vhalf = lambda0_sqrt(0.3, 100, 2, 1.0, 0.5)
    assert vhalf == pytest.approx(2 * v0, rel=1e-9)


def test_lambda0_sigma_free():
    # the square-root tuning has no noise-scale argument at all
    import inspect
    assert "sigma" not in inspect.signature(lambda0_sqrt).parameters


def test_lambda0_boundary_r_S():
    v = lambda0_sqrt(0.3, 100, 99, 1.0, 0.5)
    expect = 0.6 * math.sqrt((2 * math.log(2.0) + 2.0) / 99.0)
    assert v == pytest.approx(expect, rel=1e-14)


def test_lambda0_t_range_enforced():
    tm = t_max_sqrt(100, 2)
    with pytest.raises(ValueError):
        lambda0_sqrt(0.3, 100, 2, tm + 1.0, 0.5)
    with pytest.raises(ValueError):
        lambda0_sqrt(0.3, 100, 2, 1.0, 1.5)


def test_assumption1_limit_large_n():
    # c tends to sqrt((eta/2)^2 + 4) - 2 as n grows
    eta = 0.5
    rep = check_assumption1(10**9, 2, 0.01, 1.0, 1.0, eta, 1.0, 1.0, 0.0)
    assert rep.c == pytest.approx(math.sqrt((eta / 2) ** 2 + 4) - 2, abs=1e-3)


def test_assumption1_eta_too_small():
    rep = check_assumption1(400, 50, 0.3, 1.0, 2.0, 0.05, 2.0, 1.0, 0.0)
    assert not rep.eta_large_enough and not rep.ok
    assert rep.details["reason"] == "eta too small for r_S"


def test_assumption1_zero_signal_always_ok():
    rep = check_assumption1(400, 2, 0.3536, 1.0, 2.0, 0.5, 2.0, 0.15, 0.0)
    assert rep.signal_small_enough


def test_assumption1_requires_n_over_8a():
    with pytest.raises(ValueError, match="8a"):
        check_assumption1(10, 2, 0.3, 1.0, 2.0, 0.5, 1.0, 0.1, 0.0)


def test_admissible_caps_value():
    caps = admissible_set_requirements(0.2, 1.0, 1.0, 0.5, 400)
    root = 0.5 * math.sqrt(400 - math.sqrt(8 * 400)) / 2 - math.sqrt(2.0)
    assert caps.max_r_S == pytest.approx(root ** 2, rel=1e-14)
    assert caps.max_gamma == pytest.approx(
        0.2 * 0.5 * math.sqrt(399 / (2 * math.log(800) + 2)), rel=1e-14)
    assert caps.feasible


def test_admissible_caps_scaling_and_infeasible():
    c1 = admissible_set_requirements(0.2, 1.0, 1.0, 0.5, 400)
    c2 = admissible_set_requirements(0.4, 1.0, 1.0, 0.5, 400)
    assert c2.max_gamma == pytest.approx(2 * c1.max_gamma)
    tiny_eta = admissible_set_requirements(0.2, 1.0, 1.0, 1e-4, 400)
    assert not tiny_eta.feasible


def _inputs(g, S, family, f=None, f0=None, **kw):
    D = incidence(g)
    a = active_set(g, S)
    rep = projections.theory_report(D, a)
    f0 = np.zeros(g.n) if f0 is None else f0
    f = f0 if f is None else f
    inp = TheoremInputs(active=a, report=rep, family=family, sigma=kw.pop("sigma", 1.0),
                        t=kw.pop("t", 2.0), x=kw.pop("x", 2.0), a=kw.pop("a", 2.0),
                        eta=kw.pop("eta", 0.5), f=f, f0=f0, D=D, **kw)
    inp.lam = minimal_tuning("plain_fast", inp)
    try:
        inp.lambda0 = minimal_tuning("sqrt_fast", inp)
    except ValueError:  # t outside the admissible window on tiny graphs
        inp.lambda0 = None
    return inp


def test_slow_plain_nullspace_candidate():
    # f = f0 constant, S empty: only the noise term survives
    g = path_graph(10)
    inp = _inputs(g, [], "path", f0=np.full(10, 2.0))
    rhs = oracle_rhs("plain_slow", inp)
    x = inp.x
    assert rhs.value == pytest.approx((math.sqrt(2 * x) + 1.0) ** 2 / 10.0, rel=1e-12)
    assert rhs.probability == pytest.approx(1 - math.exp(-x) - math.exp(-inp.t))


def test_plain_fast_monotone_in_lambda():
    g = path_graph(16)
    inp = _inputs(g, [8], "path")
    vals = []
    for lam in (0.05, 0.1, 0.2, 0.4):
        inp.lam = lam
        vals.append(oracle_rhs("plain_fast", inp).value)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_equal_size_corollary_uses_4rs():
    g = path_graph(16)
    inp = _inputs(g, [8], "path")
    inp.lam = minimal_tuning("path_fast_equal", inp)
    rhs = oracle_rhs("path_fast_equal", inp)
    n, r = 16, 2
    lt = math.log(32.0) + inp.t
    assert rhs.breakdown["stochastic.rate_K"] == pytest.approx(
        math.sqrt(4 * r * lt / n), rel=1e-12)


def test_hypothesis_violations_named():
    g = path_graph(9)
    inp = _inputs(g, [2], "path")  # sizes 2, 7
    inp.lam = 0.1
    with pytest.raises(TheoremHypothesisError, match=">= 4"):
        oracle_rhs("path_fast", inp)
    g = path_graph(12)
    inp = _inputs(g, [4], "path")  # sizes 4, 8
    inp.lam = 0.1
    with pytest.raises(TheoremHypothesisError, match="n_min = n_max"):
        oracle_rhs("path_fast_equal", inp)
    gc = cycle_graph(12)
    inp = _inputs(gc, [], "cycle")
    inp.lam = 0.1
    with pytest.raises(TheoremHypothesisError, match="nonempty"):
        oracle_rhs("cycle_fast", inp)
    gg = grid_graph(4, 4)
    inp = _inputs(gg, [], "grid")
    with pytest.raises(ValueError, match="grid_constant"):
        minimal_tuning("grid_slow", inp)


def test_probability_patterns():
    g = path_graph(64)
    inp = _inputs(g, [32], "path")
    e_t, e_x, e_a = math.exp(-inp.t), math.exp(-inp.x), math.exp(-inp.a)
    for tid, expect in [
        ("plain_fast", 1 - e_x - e_t), ("plain_slow", 1 - e_x - e_t),
        ("path_fast", 1 - e_x - e_t), ("tree_cycle_slow", 1 - e_x - e_t),
        ("sqrt_fast", 1 - 4 * e_a - e_t), ("sqrt_slow", 1 - 4 * e_a - e_t),
        ("sqrt_path_fast", 1 - 4 * e_a - e_t),
        ("sqrt_tree_cycle_slow", 1 - 4 * e_a - e_t),
    ]:
        assert oracle_rhs(tid, inp).probability == pytest.approx(expect, rel=1e-14)


def test_sigma_independence_of_lambda0():
    g = path_graph(64)
    inp1 = _inputs(g, [32], "path", sigma=1.0)
    inp2 = _inputs(g, [32], "path", sigma=7.3)
    assert minimal_tuning("sqrt_fast", inp1) == minimal_tuning("sqrt_fast", inp2)
    assert minimal_tuning("plain_fast", inp2) == pytest.approx(
        7.3 * minimal_tuning("plain_fast", inp1), rel=1e-14)


def _independent_rhs(tid, inp):
    """Reviewer-style recomputation: same displays, independent composition
    (terms accumulated in reverse order, no shared helpers)."""
    n, r = inp.active.n, inp.active.r_S
    nmax = inp.active.n_max
    sg, t, x, a, eta = inp.sigma, inp.t, inp.x, inp.a, inp.eta
    lt = math.log(2 * n) + t
    Df = np.abs(np.asarray(inp.D @ inp.f))
    pen_all = float(np.sum(Df))
    pen_S = float(sum(Df[i - 1] for i in inp.active.S))
    pen_mS = pen_all - pen_S
    approx = float(np.mean((np.asarray(inp.f) - np.asarray(inp.f0)) ** 2))
    if inp.family == "path":
        kb = kappa_bound_path(inp.active, inp.report.weights, inp.report.gamma)
        K = kb.K
    else:
        kb = kappa_bound_cycle(inp.active, inp.report.weights, inp.report.gamma)
        K = kb.K_prime
    sr_k = kb.sqrt_rs_over_kappa_weighted
    if tid == "plain_fast":
        terms = [inp.lam * sr_k, sg * math.sqrt(r / n), sg * math.sqrt(2 * x / n)]
        return sum(terms) ** 2 + 4 * inp.lam * pen_mS + approx
    if tid == "plain_slow":
        return 4 * inp.lam * pen_all + sg ** 2 / n * (math.sqrt(r) + math.sqrt(2 * x)) ** 2 + approx
    if tid == "sqrt_fast":
        terms = [4 * inp.lambda0 * sr_k, math.sqrt(r / n), math.sqrt(2 * a / n)]
        return sg ** 2 * sum(terms) ** 2 + 16 * sg * inp.lambda0 * pen_mS + approx
    if tid == "sqrt_slow":
        return 16 * sg * inp.lambda0 * pen_all \
            + sg ** 2 / n * (math.sqrt(r) + math.sqrt(2 * a)) ** 2 + approx
    if tid in ("path_fast", "cycle_fast"):
        terms = [math.sqrt(10 * r / n * lt * math.log(n / r)),
                 math.sqrt(nmax * K * lt / n),
                 math.sqrt(r / n), math.sqrt(2 * x / n)]
        return sg ** 2 * sum(terms) ** 2 + 4 * inp.lam * pen_mS + approx
    if tid in ("sqrt_path_fast", "sqrt_cycle_fast"):
        q = 4.0 / (1 - eta)
        terms = [q * math.sqrt(10 * r / (n - 1) * lt * math.log(n / r)),
                 q * math.sqrt(nmax * K * lt / (n - 1)),
                 math.sqrt(r / n), math.sqrt(2 * a / n)]
        return sg ** 2 * sum(terms) ** 2 + 16 * sg * inp.lambda0 * pen_mS + approx
    if tid == "tree_cycle_slow":
        return 4 * inp.lam * pen_all \
            + sg ** 2 / n * (math.sqrt(r) + math.sqrt(2 * x)) ** 2 + approx
    if tid == "sqrt_tree_cycle_slow":
        return 16 * sg * inp.lambda0 * pen_all \
            + sg ** 2 / n * (math.sqrt(r) + math.sqrt(2 * a)) ** 2 + approx
    raise KeyError(tid)


def test_dispatcher_exactness_independent_recomputation():
    rng = np.random.default_rng(21)
    gp = path_graph(24)
    f0 = np.repeat([0.0, 1.0, -0.5], 8)
    fc = f0 + 0.01 * rng.standard_normal(24)
    inp = _inputs(gp, [8, 16], "path", f=fc, f0=f0)
    for tid in ("plain_fast", "plain_slow", "sqrt_fast", "sqrt_slow",
                "path_fast", "tree_cycle_slow", "sqrt_path_fast",
                "sqrt_tree_cycle_slow"):
        got = oracle_rhs(tid, inp).value
        want = _independent_rhs(tid, inp)
        assert got == pytest.approx(want, rel=1e-12), tid
    gc = cycle_graph(24)
    f0c = np.repeat([0.0, 1.0, 0.0], 8)
    inpc = _inputs(gc, [8, 16, 24], "cycle", f=f0c, f0=f0c)
    for tid in ("cycle_fast", "sqrt_cycle_fast"):
        got = oracle_rhs(tid, inpc).value
        want = _independent_rhs(tid, inpc)
        assert got == pytest.approx(want, rel=1e-12), tid


def test_grid_corollaries_use_constant():
    g = grid_graph(4, 4)
    inp = _inputs(g, [], "grid", grid_constant=2.0)
    inp.lam = minimal_tuning("grid_slow", inp)
    n = 16
    lt = math.log(2 * n) + inp.t
    assert inp.lam == pytest.approx(2.0 * math.sqrt(math.log(n) * lt) / n, rel=1e-14)
    rhs = oracle_rhs("grid_slow", inp)
    assert rhs.breakdown["penalty"] == 0.0  # f0 = 0 has no variation
    inp.lambda0 = minimal_tuning("sqrt_grid_slow", inp)
    assert inp.lambda0 == pytest.approx(
        2.0 / (1 - inp.eta) * math.sqrt(math.log(n) * lt / (n * (n - 1))), rel=1e-14)


def test_sqrt_fast_intermediate_constant_noted():
    g = path_graph(64)
    f0 = np.where(np.arange(64) < 32, 0.0, 1.0)
    f = np.where(np.arange(64) < 30, 0.0, 1.0)  # candidate off the true set
    inp = _inputs(g, [32], "path", f=f, f0=f0)
    rhs = oracle_rhs("sqrt_fast", inp)
    assert "penalty_intermediate" in rhs.breakdown
    assert rhs.breakdown["penalty_intermediate"] <= rhs.breakdown["penalty"] + 1e-12


def test_minimal_tuning_registry_complete():
    g = path_graph(16)
    inp = _inputs(g, [8], "path", grid_constant=1.0)
    for tid in THEOREMS:
        if "cycle" in tid and tid not in ("tree_cycle_slow", "tree_cycle_slow_equal",
                                          "sqrt_tree_cycle_slow",
                                          "sqrt_tree_cycle_slow_equal"):
            continue
        assert minimal_tuning(tid, inp) > 0
    with pytest.raises(ValueError, match="unknown theorem"):
        minimal_tuning("nope", inp)


def test_levels_fill_only_what_is_not_given():
    inp = _inputs(path_graph(16), [8], "path")
    lam, lam0 = minimal_tuning("plain_fast", inp), minimal_tuning("sqrt_slow", inp)
    assert tuning.levels(["plain_fast", "plain_slow", "sqrt_slow"], inp) == (lam, lam0)
    assert tuning.levels(["plain_fast"], inp) == (lam, None)
    assert tuning.levels(["plain_fast"], inp, 0.3, 0.2) == (0.3, 0.2)
    assert tuning.levels([], inp, None, 0.2) == (None, 0.2)
    # a given level skips its kind's minimal tuning, which would need C here
    assert tuning.levels(["grid_slow"], inp, lam=0.3) == (0.3, None)
    with pytest.raises(ValueError, match="disagree"):
        tuning.levels(["plain_fast", "path_fast"], inp)
    with pytest.raises(ValueError, match="unknown theorem id 'nope'"):
        tuning.levels(["nope"], inp, 0.3, 0.2)
    with pytest.raises(ValueError, match="unknown theorem id 'nope'"):
        tuning.theorem_kind("nope")


@pytest.mark.parametrize("tid", sorted(THEOREMS))
def test_missing_inputs_raise_value_error(tid):
    # the kind's level, and a grid id's constant, are checked before any arithmetic
    _, inp = next(_golden_battery())
    level = "lam" if tuning.theorem_kind(tid) == "plain" else "lambda0"
    for name in [level] + ["grid_constant"] * ("grid" in tid):
        with pytest.raises(ValueError, match=f"theorem needs input '{name}'"):
            oracle_rhs(tid, dataclasses.replace(inp, **{name: None}))


def _golden_battery():
    """Inputs on a path, a cycle, a 4x4 grid and a tree, each at two
    sigma/eta settings; the grid and the tree take a numeric kappa."""
    rng = np.random.default_rng(8)
    cases = [(path_graph(24), [8, 16], "path", {}),
             (cycle_graph(24), [6, 12, 18, 24], "cycle", {}),
             (grid_graph(4, 4), [2, 6, 10], "grid",
              {"kappa_source": "numeric", "kappa_value": 0.7}),
             (graphs.tree_graph([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10]),
              [3, 8], "tree", {"kappa_source": "numeric", "kappa_value": 0.4})]
    for g, S, family, kw in cases:
        D = incidence(g)
        a = active_set(g, S)
        rep = projections.theory_report(D, a)
        f0 = np.zeros(g.n)
        for tail, head in (g.edges[k - 1] for k in S):
            f0[head - 1:] += 1.0
        f = f0 + 0.05 * rng.standard_normal(g.n)
        for sigma, eta in ((1.0, 0.5), (0.7, 0.25)):
            yield f"{family}/{sigma}/{eta}", TheoremInputs(
                active=a, report=rep, family=family, sigma=sigma, t=1.5, x=2.0,
                a=1.5, eta=eta, lam=0.3 * sigma, lambda0=0.2, f=f, f0=f0, D=D,
                grid_constant=1.25, **kw)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"
    return out.to_dict() if isinstance(out, tuning.OracleRHS) else out


def test_every_theorem_golden_digest():
    # every id's RHS value, term breakdown (key order included), probability,
    # minimal tuning and LHS coefficient, or the error it raises
    import hashlib
    import json
    record = {name: {tid: [_outcome(fn, tid, inp) for fn in (
        oracle_rhs, minimal_tuning, tuning.lhs_penalty_coefficient)] for tid in THEOREMS}
        for name, inp in _golden_battery()}
    assert len(record) == 8 and all(len(v) == 16 for v in record.values())
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == \
        "4c7e9a2de1f36af3b2ed13704e051a4c3718499c93c1311de583db9d26cb0b4e"
