import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvgo
from tvgo import experiments, graphs
from tvgo.cli import build_parser, dispatch, parse_graph_spec, parse_set_spec

# the directory the tested tvgo was imported from, so the CLI's subprocess
# runs this copy and not another one that happens to be installed
SRC = str(Path(tvgo.__file__).resolve().parent.parent)


def run_cli(args, env=None, **kw):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tvgo.cli", *args],
                          capture_output=True, text=True, env=env, **kw)


def test_parse_graph_specs():
    g, fam = parse_graph_spec("path:5")
    assert fam == "path" and g.m == 4
    g, fam = parse_graph_spec("grid:2x3")
    assert fam == "grid" and g.n == 6
    assert parse_set_spec("3,1,7") == (1, 3, 7)
    assert parse_set_spec("") == ()


@pytest.mark.parametrize("spec,missing", [("grid:3", "'width'"), ("grid:", "'width'")])
def test_graph_spec_names_a_missing_parameter(capsys, spec, missing):
    assert dispatch(["theory", "--graph", spec]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["type"] == "GraphError" and f"missing parameter {missing}" in payload["error"]


@pytest.mark.parametrize("spec,named", [("grid:3xk", "'width'"), ("path:eight", "'n'"),
                                        ("cycle:-3", "'n'")])
def test_graph_spec_names_a_token_that_is_no_integer(capsys, spec, named):
    assert dispatch(["theory", "--graph", spec]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["type"] == "GraphError"
    assert f"parameter {named} has a value of the wrong type" in payload["error"]


def test_graph_round_trip(tmp_path):
    out = tmp_path / "g.txt"
    assert dispatch(["graph", "--family", "cycle:5", "--out", str(out)]) == 0
    g = graphs.read_graph(str(out))
    expect = graphs.cycle_graph(5)
    assert g == expect
    assert np.array_equal(graphs.incidence(g).toarray(),
                          graphs.incidence(expect).toarray())


def test_theory_command(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert dispatch(["theory", "--graph", "path:8", "--S", "4",
                     "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["r_S"] == 2
    assert rep["gamma"] == pytest.approx(math.sqrt(1 / 8))
    assert rep["weights"][3] == 1.0
    assert rep["admissible"] is True


def test_solve_command_closed_form(tmp_path):
    y = tmp_path / "y.csv"
    y.write_text("0\n2\n")
    out = tmp_path / "res.json"
    code = dispatch(["solve", "--graph", "path:2", "--y", str(y),
                     "--lambda", "0.25", "--out", str(out)])
    assert code == 0
    res = json.loads(out.read_text())
    assert res["f_hat"] == pytest.approx([0.5, 1.5], abs=1e-6)
    assert res["kkt_residual"] <= 1e-8


def test_solve_sqrt_and_nonconvergence(tmp_path):
    y = tmp_path / "y.csv"
    y.write_text("0\n2\n")
    out = tmp_path / "res.json"
    assert dispatch(["solve", "--graph", "path:2", "--y", str(y),
                     "--lambda0", "0.3", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["sigma_hat"] == pytest.approx(1.0, abs=1e-6)
    # starving the solver of iterations must surface exit code 3
    rng = np.random.default_rng(0)
    y2 = tmp_path / "y2.csv"
    y2.write_text("\n".join(str(v) for v in rng.standard_normal(300)) + "\n")
    code = dispatch(["solve", "--graph", "path:300", "--y", str(y2),
                     "--lambda", "0.05", "--max-iter", "3", "--no-certify",
                     "--out", str(out)])
    assert code == 3


def test_solve_rejects_non_finite_observations(tmp_path, capsys):
    y = tmp_path / "y.csv"
    y.write_text("0\nnan\n1\n")
    for penalty in (["--lambda", "0.25"], ["--lambda0", "0.3"]):
        assert dispatch(["solve", "--graph", "path:3", "--y", str(y), *penalty]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ValueError" and "NaN or inf" in err["error"]


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_solve_rejects_an_iteration_budget_below_one(tmp_path, capsys, budget):
    # no ADMM iteration ran, and the solve crashed on the unset iterate
    y = tmp_path / "y.csv"
    y.write_text("0\n1\n5\n")
    for penalty in (["--lambda", "0.1"], ["--lambda0", "0.01"]):
        assert dispatch(["solve", "--graph", "path:3", "--y", str(y), *penalty,
                         "--max-iter", budget]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["type"] == "ValueError"
        assert payload["error"] == f"max_iter must be an integer >= 1, got {budget}"


@pytest.mark.parametrize("theorem,flag,value", [
    ("plain_slow", "--x", "-1"), ("sqrt_slow", "--a", "0"), ("plain_fast", "--t", "nan"),
    ("plain_slow", "--x", "inf"), ("sqrt_fast", "--t", "-2"),
    ("plain_fast", "--lambda", "-1"), ("plain_fast", "--lambda", "inf"),
    ("sqrt_fast", "--lambda0", "0"), ("grid_slow", "--grid-constant", "-1"),
    ("grid_slow", "--grid-constant", "0"), ("grid_slow", "--grid-constant", "nan"),
])
def test_oracle_rhs_rejects_a_deviation_parameter_out_of_range(capsys, theorem, flag, value):
    # --x -1 failed as a math domain error, --a 0 printed a negative
    # probability, --lambda -1 and --lambda0 0 printed numbers, and
    # --grid-constant -1 was reported as theorems that disagree
    assert dispatch(["oracle-rhs", "--theorem", theorem, "--graph", "path:16", "--S", "8",
                     flag, value]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["type"] == "ValueError"
    bound = ">= 0" if flag == "--lambda" else "> 0"
    assert payload["error"].startswith(f"{flag} must be finite and {bound}")


@pytest.mark.parametrize("flag", ["--t", "--a"])
def test_tune_rejects_a_deviation_parameter_out_of_range(capsys, flag):
    assert dispatch(["tune", "--n", "16", "--r-S", "2", "--gamma", "0.3", flag, "0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(f"{flag} must be finite")


@pytest.mark.parametrize("flag,value,bound", [("--lambda0", "-1", "> 0"),
                                              ("--norm-df0", "-1", ">= 0"),
                                              ("--norm-df0", "nan", ">= 0")])
def test_tune_rejects_a_level_out_of_range(capsys, flag, value, bound):
    # each printed numbers: --lambda0 -1 evaluated assumption 1 at lambda0 = -1
    assert dispatch(["tune", "--graph", "path:16", "--S", "8", flag, value]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        f"{flag} must be finite and {bound}")


@pytest.mark.parametrize("key,value", [("t", float("nan")), ("x", -1.0), ("a", 0.0),
                                       ("t", float("inf"))])
def test_simulate_rejects_a_deviation_parameter_out_of_range(tmp_path, capsys, key, value):
    # a NaN t was reported as a bad lam, and with no theorem it ran with NaN event floors
    for theorems in (["plain_fast"], []):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SIM_CFG, theorems=theorems,
                                       params=dict(SIM_CFG["params"], **{key: value}))))
        assert dispatch(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "t.csv")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["type"] == "ValueError"
        assert payload["error"].startswith(f"params.{key} must be finite and > 0")


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_simulate_rejects_a_grid_constant_out_of_range(tmp_path, capsys, value):
    # 0 ran grid_slow at lambda = 0, so f_hat = Y and no trial held; -1 was
    # reported as theorems that disagree, and NaN as a bad lam
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, graph={"family": "grid",
                                                   "params": {"height": 6, "width": 6}},
                                   S=[3], theorems=["grid_slow"], grid_constant=value)))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["type"] == "ValueError"
    assert payload["error"].startswith("grid_constant must be finite and > 0")


@pytest.mark.parametrize("flag", ["--f0", "--f"])
@pytest.mark.parametrize("values,error", [
    (["0", "1", "2"], "{flag} must hold 16 values, one per vertex, got 3"),
    (["nan"] + ["0"] * 15, "{flag} holds NaN or inf"),
])
def test_oracle_rhs_names_a_bad_signal_file(tmp_path, capsys, flag, values, error):
    # a short file failed with numpy's matmul dimension message, and a NaN
    # exited 0 with "value": NaN, which is no JSON
    signal = tmp_path / "f.csv"
    signal.write_text("\n".join(values) + "\n")
    assert dispatch(["oracle-rhs", "--theorem", "plain_fast", "--graph", "path:16", "--S", "8",
                     flag, str(signal)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error.format(flag=flag),
                                                   "type": "ValueError"}


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_prob_rejects_trials_below_one(capsys, trials):
    # 0 raised ZeroDivisionError, -5 numpy's negative-dimensions error
    assert dispatch(["verify-prob", "--trials", trials]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": f"trials must be at least 1, got {trials}", "type": "ValueError"}


def test_solve_requires_one_penalty(tmp_path, capsys):
    y = tmp_path / "y.csv"
    y.write_text("0\n2\n")
    assert dispatch(["solve", "--graph", "path:2", "--y", str(y)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["type"] == "validation"


def test_validation_error_is_structured(capsys):
    assert dispatch(["theory", "--graph", "moebius:4"]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert "moebius" in payload["error"]


def test_tune_command(tmp_path):
    out = tmp_path / "tune.json"
    assert dispatch(["tune", "--graph", "path:400", "--S", "200",
                     "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["lambda_plain"] > 0
    assert res["assumption1"]["eta_large_enough"] is True
    assert res["admissible_caps"]["feasible"] is True


def test_oracle_rhs_command(tmp_path):
    out = tmp_path / "rhs.json"
    assert dispatch(["oracle-rhs", "--theorem", "plain_slow", "--graph",
                     "path:64", "--S", "32", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["probability"] == pytest.approx(1 - 2 * math.exp(-2))
    assert res["value"] > 0 and res["lambda"] > 0


def test_kappa_command(tmp_path):
    out = tmp_path / "kappa.json"
    assert dispatch(["kappa", "--graph", "path:8", "--S", "4", "--weights",
                     "identity", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["K"] == pytest.approx(0.5)
    assert res["sqrt_rs_over_kappa_numeric"] == pytest.approx(2.0, rel=0.05)
    assert res["kappa_paper_lower_bound"] <= res["numeric_kappa_estimate"]


@pytest.mark.parametrize("graph,S", [("path:40", "10,20,30"), ("path:64", "16"),
                                     ("cycle:40", "5,20,33"), ("path:12", "4,8")])
@pytest.mark.parametrize("weights", ["identity", "computed"])
def test_kappa_command_is_exact_and_above_the_paper_bound(capsys, graph, S, weights):
    # the closed forms bound kappa from below; on paths with identity
    # weights they are tight
    assert dispatch(["kappa", "--graph", graph, "--S", S, "--weights", weights]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["kappa_paper_lower_bound"] <= res["numeric_kappa_estimate"] * (1 + 1e-12)
    if weights == "identity" and graph.startswith("path"):
        assert res["sqrt_rs_over_kappa_numeric"] == pytest.approx(
            res["sqrt_rs_over_kappa_identity"], rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["kappa", "--budget", "100"], ["kappa", "--steps", "100"], ["kappa", "--seed", "1"],
    ["oracle-rhs", "--theorem", "plain_fast", "--budget", "100"],
    ["oracle-rhs", "--theorem", "plain_fast", "--seed", "1"]])
def test_kappa_has_no_search_flags(capsys, argv):
    # kappa is exact: no budget, steps or seed to set
    assert dispatch([*argv, "--graph", "path:8", "--S", "4"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


SIM_CFG = {
    "graph": {"family": "path", "params": {"n": 48}},
    "S": [24],
    "signal": {"levels": [0.0, 1.0]},
    "sigma": 1.0,
    "params": {"x": 2, "t": 2, "a": 2, "eta": 0.5},
    "theorems": ["plain_fast"],
    "trials": 40,
    "seed": 77,
}


def test_simulate_deterministic_across_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    out1 = tmp_path / "a.csv"
    out8 = tmp_path / "b.csv"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out8),
                     "--threads", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    assert len(out1.read_text().splitlines()) == 41


def test_simulate_defaults_to_one_thread(tmp_path, monkeypatch):
    # as run_experiment does: more threads only when the config or --threads
    # asks, whatever the machine's core count
    seen = []

    def record(cfg):
        seen.append(experiments.ExperimentConfig.from_dict(cfg).threads)
        return "", {"nonconverged": {"plain": 0, "sqrt": None}}

    monkeypatch.setattr(experiments, "experiment_csv", record)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfg = tmp_path / "cfg.json"
    out = str(tmp_path / "t.csv")
    cfg.write_text(json.dumps(SIM_CFG))
    assert dispatch(["simulate", "--config", str(cfg), "--out", out]) == 0
    assert dispatch(["simulate", "--config", str(cfg), "--out", out, "--threads", "3"]) == 0
    cfg.write_text(json.dumps(dict(SIM_CFG, threads=2)))
    assert dispatch(["simulate", "--config", str(cfg), "--out", out]) == 0
    assert seen == [1, 3, 2]


def test_simulate_summary_written(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    out = tmp_path / "t.csv"
    summ = tmp_path / "s.json"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out),
                     "--summary", str(summ)]) == 0
    s = json.loads(summ.read_text())
    assert s["theorems"]["plain_fast"]["passes_floor"] is True


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_simulate_summary_is_strict_json(tmp_path):
    # plain estimator only: the square-root statistics are absent, and
    # absent statistics must be null rather than bare NaN tokens
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    summ = tmp_path / "s.json"
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                     "--summary", str(summ)]) == 0
    s = json.loads(summ.read_text(), parse_constant=_reject_constant)
    for key in ("mse_sqrt", "sigma_hat_mean", "overfit_rate", "nonoverfit_fraction"):
        assert s[key] is None, key
    assert s["mse_plain"] is not None


@pytest.mark.parametrize("trials", [0, -5])
def test_simulate_rejects_trials_below_one(tmp_path, capsys, trials):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, trials=trials)))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload == {"error": f"trials must be at least 1, got {trials}",
                       "type": "ValueError"}


@pytest.mark.parametrize("override", [{"threads": 0}, {}])
def test_simulate_rejects_threads_below_one(tmp_path, capsys, override):
    # the config's threads or --threads; 0 used to run on one thread
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, **override)))
    flag = [] if override else ["--threads", "0"]
    assert dispatch(["simulate", "--config", str(cfg), *flag,
                     "--out", str(tmp_path / "t.csv")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "threads must be at least 1, got 0",
                                                   "type": "ValueError"}


@pytest.mark.parametrize("graph", [SIM_CFG["graph"],
                                   {"family": "tree", "params": {"parents": list(range(1, 48))}}])
def test_simulate_rejects_kappa_value_without_the_numeric_source(tmp_path, capsys, graph):
    # the value used to be ignored: the path RHS was the closed-form one, and
    # the tree failed on its missing closed form
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, graph=graph, kappa_value=0.01)))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "kappa_value" in json.loads(err)["error"] and "kappa_source" in json.loads(err)["error"]


@pytest.mark.parametrize("text,argv,token", [
    ("1\nx\n", ["theory", "--graph", "tree:@{file}"], "'x'"),
    ("4\nx\n", ["theory", "--graph", "path:8", "--S", "@{file}"], "'x'"),
    ("3 2\n1 2\n2 x\n", ["theory", "--graph", "{file}"], "'x'"),
    ("0\nz\n", ["solve", "--graph", "path:2", "--y", "{file}", "--lambda", "0.1"], "'z'"),
    ("0\nz\n", ["oracle-rhs", "--theorem", "plain_slow", "--graph", "path:2", "--f0", "{file}"],
     "'z'"),
], ids=["tree-parents", "S-file", "graph-file", "y", "f0"])
def test_bad_number_in_a_file_names_the_file_and_token(tmp_path, capsys, text, argv, token):
    path = tmp_path / "numbers.txt"
    path.write_text(text)
    assert dispatch([tok.format(file=path) for tok in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"{path}: {token} is not " + \
        ("a number" if token == "'z'" else "an integer")


def test_bad_number_in_S_names_the_flag_and_token(capsys):
    assert dispatch(["theory", "--graph", "path:8", "--S", "4,x"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "--S: 'x' is not an integer"


@pytest.mark.parametrize("argv", [
    ["oracle-rhs", "--theorem", "plain_fast", "--graph", "path:16", "--S", "8", "--sigma", "0"],
    ["tune", "--graph", "path:16", "--S", "8", "--sigma", "-1"],
], ids=["oracle-rhs-zero", "tune-negative"])
def test_bad_sigma_flag_exits_2_naming_it(capsys, argv):
    # a zero sigma used to exit 1 with a ZeroDivisionError traceback, and a
    # negative one printed a value
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("--sigma must be finite and > 0")


@pytest.mark.parametrize("command", ["verify-prob", "simulate"])
def test_bad_env_seed_names_the_variable_and_token(tmp_path, capsys, monkeypatch, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    monkeypatch.setenv("TVGO_SEED", "abc")
    assert dispatch([command, *{"verify-prob": ["--trials", "10"],
                                "simulate": ["--config", str(cfg)]}[command]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "TVGO_SEED: 'abc' is not an integer"


@pytest.mark.parametrize("key,value", [("lambda", -0.05), ("lambda", float("nan")),
                                       ("lambda0", 0.0), ("solver_tol", 0.0),
                                       ("sigma", 0.0), ("sigma", -1.0)])
def test_simulate_rejects_bad_penalty_or_tolerance(tmp_path, capsys, key, value):
    # a NaN lambda used to exit 3 on a singular factor, a negative one ran
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, **{key: value})))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["type"] == "ValueError" and f"{key} must be finite" in payload["error"]


SEEDS_OUT_OF_RANGE = [2 ** 63, 2 ** 64 - 1, 2 ** 64, -1]


@pytest.mark.parametrize("seed", SEEDS_OUT_OF_RANGE)
@pytest.mark.parametrize("command,source", [("simulate", "seed"), ("simulate", "--seed"),
                                            ("simulate", "TVGO_SEED"), ("verify-prob", "--seed"),
                                            ("verify-prob", "TVGO_SEED")])
def test_seed_out_of_range_exits_2_naming_its_source(tmp_path, capsys, monkeypatch, command,
                                                     source, seed):
    # Philox keys a seed as an unsigned 64-bit word: 2**64 - 1 reproduced
    # seed 0's noise with a RuntimeWarning, 2**63 + 1 that of 2**63, and
    # 2**64 and above crashed with an OverflowError traceback (exit 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, seed=seed) if source == "seed" else SIM_CFG))
    argv = {"simulate": ["--config", str(cfg)], "verify-prob": ["--trials", "10"]}[command]
    if source == "--seed":
        argv += ["--seed", str(seed)]
    if source == "TVGO_SEED":
        monkeypatch.setenv("TVGO_SEED", str(seed))
    assert dispatch([command, *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"{source} must be an integer in [0, 2**63), got {seed}"


def test_env_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    env = dict(os.environ, TVGO_SEED="123")
    r = run_cli(["simulate", "--config", str(cfg), "--out", str(a)], env=env)
    assert r.returncode == 0, r.stderr
    r = run_cli(["simulate", "--config", str(cfg), "--out", str(b),
                 "--seed", "999"], env=env)
    assert r.returncode == 0, r.stderr
    # env var wins over --seed and over the config seed
    assert a.read_bytes() == b.read_bytes()
    r = run_cli(["simulate", "--config", str(cfg), "--out", str(c),
                 "--seed", "123"])
    assert r.returncode == 0, r.stderr
    assert c.read_bytes() == a.read_bytes()


def test_verify_prob_command(tmp_path):
    out = tmp_path / "vp.json"
    assert dispatch(["verify-prob", "--trials", "5000", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["all_ok"] is True


def test_csv_format_flag(capsys):
    assert dispatch(["theory", "--graph", "path:4", "--S", "2",
                     "--format", "csv"]) == 0
    outp = capsys.readouterr().out
    assert outp.splitlines()[0].startswith("omega,")


def test_simulate_rejects_format_flag(tmp_path):
    # simulate writes the trials CSV and the JSON summary whatever --format
    # says, so argparse rejects the flag instead of ignoring it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CFG))
    assert dispatch(["simulate", "--config", str(cfg), "--format", "csv"]) == 2


def test_console_script_installed():
    r = run_cli(["graph", "--family", "path:3"])
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "3 2"


def test_oracle_rhs_numeric_shows_both(tmp_path):
    out = tmp_path / "rhs.json"
    assert dispatch(["oracle-rhs", "--theorem", "plain_fast", "--graph",
                     "path:16", "--S", "8", "--kappa-source", "numeric",
                     "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    # the exact kappa is at least the closed-form lower bound, so its bound
    # is no larger
    assert res["value"] <= res["value_paper_bound"] + 1e-9


def test_oracle_rhs_numeric_without_a_closed_form_comparison(tmp_path):
    # S = {1} leaves a one-vertex first component, outside the closed-form
    # path bound's hypothesis; the numeric RHS is still reported
    out = tmp_path / "rhs.json"
    assert dispatch(["oracle-rhs", "--theorem", "plain_fast", "--graph", "path:12",
                     "--S", "1", "--kappa-source", "numeric",
                     "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["value_paper_bound"] is None and math.isfinite(res["value"])


# every subcommand's flags and defaults ("required" for a required flag); a
# subcommand rejects every flag it does not read
CLI_SURFACE = {
    "graph": {"--family": "required", "--out": None},
    "theory": {"--graph": "required", "--S": "", "--out": None, "--format": "json"},
    "kappa": {"--graph": "required", "--S": "", "--weights": "computed", "--out": None,
              "--format": "json"},
    "solve": {"--graph": "required", "--y": "required", "--lambda": None, "--lambda0": None,
              "--tol": 1e-08, "--max-iter": 100000, "--no-certify": False, "--out": None,
              "--format": "json"},
    "tune": {"--graph": None, "--S": "", "--n": None, "--r-S": None, "--gamma": None,
             "--sigma": 1.0, "--t": 2.0, "--a": 2.0, "--eta": 0.5, "--lambda0": None,
             "--norm-df0": 0.0, "--out": None, "--format": "json"},
    "oracle-rhs": {"--theorem": "required", "--graph": "required", "--S": "", "--sigma": 1.0,
                   "--t": 2.0, "--x": 2.0, "--a": 2.0, "--eta": 0.5, "--lambda": None,
                   "--lambda0": None, "--f0": None, "--f": None, "--kappa-source": "paper_bound",
                   "--grid-constant": None, "--out": None, "--format": "json"},
    "simulate": {"--config": "required", "--out": None, "--summary": None, "--threads": None,
                 "--seed": None},
    "verify-prob": {"--trials": 100000, "--out": None, "--format": "json", "--seed": 0},
}


def test_cli_surface():
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(CLI_SURFACE)
    for name, parser in sub.choices.items():
        flags = {opt: "required" if action.required else parser.get_default(action.dest)
                 for action in parser._actions for opt in action.option_strings
                 if opt not in ("-h", "--help")}
        assert flags == CLI_SURFACE[name], name
    choices = {name: {opt: action.choices for action in parser._actions
                      for opt in action.option_strings if action.choices}
               for name, parser in sub.choices.items()}
    assert choices["oracle-rhs"]["--kappa-source"] == ("paper_bound", "numeric")
    assert choices["kappa"]["--weights"] == ["computed", "identity"]
    assert all(c["--format"] == ["json", "csv"] for c in choices.values() if "--format" in c)


@pytest.mark.parametrize("cfg,named", [
    (dict(SIM_CFG, params=None), "'params'"),
    (dict(SIM_CFG, signal=[0.0, 1.0]), "'signal'"),
    (dict(SIM_CFG, graph={"family": "path", "params": {"m": 16}}), "'n'"),
    (dict(SIM_CFG, graph={"family": "path", "params": None}), "'graph.params'"),
    (dict(SIM_CFG, graph={"family": "moebius", "params": {"n": 16}}), "'moebius'"),
    ({k: v for k, v in SIM_CFG.items() if k != "graph"}, "graph.family"),
    (dict(SIM_CFG, theorems=["nope"]), "'nope'"),
    (dict(SIM_CFG, kappa_source="nope"), "'nope'"),
    ([SIM_CFG], "the config"),
    (dict(SIM_CFG, S=8), "'S'"),
    (dict(SIM_CFG, sigma=None), "'sigma'"),
    (dict(SIM_CFG, graph={"family": "path", "params": {"n": None}}), "'n'"),
    # values are checked against their fields' types, not converted
    (dict(SIM_CFG, S=[None]), "'S'"),
    (dict(SIM_CFG, S="12"), "'S'"),
    (dict(SIM_CFG, S=[8.5]), "'S'"),
    (dict(SIM_CFG, events="false"), "'events'"),
    (dict(SIM_CFG, trials=10.7), "'trials'"),
    (dict(SIM_CFG, trials="12"), "'trials'"),
    (dict(SIM_CFG, seed=True), "'seed'"),
    (dict(SIM_CFG, theorems="plain_slow"), "'theorems'"),
    (dict(SIM_CFG, graph={"family": "tree", "params": {"parents": [1, None]}}), "'parents'"),
    (dict(SIM_CFG, signal={"levels": [0.0, None]}), "'signal.levels'"),
    # the signal spec: exactly one of levels and a finite budget >= 0, finite levels
    (dict(SIM_CFG, signal={"tv_budget": -1.0}), "signal.tv_budget must be finite and >= 0"),
    (dict(SIM_CFG, signal={"tv_budget": float("nan")}), "signal.tv_budget must be finite"),
    (dict(SIM_CFG, signal={"tv_budget": float("inf")}), "signal.tv_budget must be finite"),
    (dict(SIM_CFG, signal={"levels": [0.0, float("nan")]}), "signal.levels must be finite"),
    (dict(SIM_CFG, signal={"levels": [0.0, float("-inf")]}), "signal.levels must be finite"),
    (dict(SIM_CFG, signal={"levels": [0.0, 1.0], "tv_budget": 2.0}),
     "exactly one of signal.levels and signal.tv_budget"),
    (dict(SIM_CFG, signal={}), "exactly one of signal.levels and signal.tv_budget"),
], ids=["params-null", "signal-list", "graph-params-typo", "graph-params-null",
        "unknown-family", "no-graph", "unknown-theorem", "kappa-source-typo", "not-an-object",
        "S-number", "sigma-null", "graph-n-null", "S-null-element", "S-string",
        "S-float-element", "events-string", "trials-float", "trials-string", "seed-bool",
        "theorems-string", "tree-parent-null", "signal-level-null", "tv-budget-negative",
        "tv-budget-nan", "tv-budget-inf", "levels-nan", "levels-inf", "levels-and-tv-budget",
        "signal-empty"])
def test_simulate_malformed_config_exits_2_naming_it(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert named in json.loads(err)["error"]


def test_simulate_override_of_a_config_that_is_no_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([SIM_CFG]))
    assert dispatch(["simulate", "--config", str(path), "--seed", "3", "--threads", "2"]) == 2
    assert "the config must be an object" in json.loads(capsys.readouterr().err)["error"]


def test_graph_file_tree_parents_and_active_set_file(tmp_path, capsys):
    # a path is the tree whose every vertex hangs from the one before it
    gfile, parents, sfile = tmp_path / "g.txt", tmp_path / "parents.txt", tmp_path / "S.txt"
    assert dispatch(["graph", "--family", "path:12", "--out", str(gfile)]) == 0
    parents.write_text("\n".join(str(v) for v in range(1, 12)))
    graphs.write_active_set([4, 8], str(sfile))
    reports = []
    for spec in ("path:12", str(gfile), f"tree:@{parents}"):
        for S in ("8,4", f"@{sfile}"):
            assert dispatch(["theory", "--graph", spec, "--S", S]) == 0
            reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["r_S"] == 3 and all(rep == reports[0] for rep in reports)


def test_graph_command_writes_stdout(capsys):
    assert dispatch(["graph", "--family", "cycle:3"]) == 0
    assert capsys.readouterr().out == "3 3\n1 2\n2 3\n3 1\n"


def test_tune_from_n_r_S_and_gamma(capsys):
    # the three numbers stand in for the graph they describe
    assert dispatch(["tune", "--graph", "path:400", "--S", "200"]) == 0
    from_graph = json.loads(capsys.readouterr().out)
    assert dispatch(["tune", "--n", "400", "--r-S", "2",
                     "--gamma", repr(from_graph["gamma"])]) == 0
    assert json.loads(capsys.readouterr().out) == from_graph


@pytest.mark.parametrize("missing", ["--n", "--r-S", "--gamma"])
def test_tune_without_a_graph_needs_all_three(capsys, missing):
    given = {"--n": "400", "--r-S": "2", "--gamma": "0.05"}
    del given[missing]
    assert dispatch(["tune", *[tok for flag in given.items() for tok in flag]]) == 2
    assert "--n, --r-S, --gamma" in json.loads(capsys.readouterr().err)["error"]


def test_tune_reports_a_t_past_the_square_root_range(capsys):
    assert dispatch(["tune", "--n", "16", "--r-S", "2", "--gamma", "0.3", "--t", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["t_max_sqrt"] < 10 and out["lambda_plain"] > 0
    assert out["lambda0_sqrt"] is None and "t must lie in" in out["lambda0_error"]
    assert "assumption1" not in out and "admissible_caps" not in out


def test_simulate_without_out_writes_the_csv_to_stdout(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t.csv"
    cfg.write_text(json.dumps(SIM_CFG))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert dispatch(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_runtime_error_exits_3(monkeypatch, capsys):
    def fail(**kw):
        raise RuntimeError("did not converge")

    monkeypatch.setattr(experiments, "verify_probability_lemmas", fail)
    assert dispatch(["verify-prob", "--trials", "10"]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "did not converge",
                                                   "type": "RuntimeError"}
