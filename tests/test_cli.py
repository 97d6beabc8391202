import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tvgo import experiments, graphs
from tvgo.cli import build_parser, dispatch, parse_graph_spec, parse_set_spec


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "tvgo.cli", *args],
                          capture_output=True, text=True, **kw)


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
                     "identity", "--budget", "2000", "--steps", "100",
                     "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["K"] == pytest.approx(0.5)
    assert res["sqrt_rs_over_kappa_numeric"] == pytest.approx(2.0, rel=0.05)


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


@pytest.mark.parametrize("key,value", [("lambda", -0.05), ("lambda", float("nan")),
                                       ("lambda0", 0.0), ("solver_tol", 0.0)])
def test_simulate_rejects_bad_penalty_or_tolerance(tmp_path, capsys, key, value):
    # a NaN lambda used to exit 3 on a singular factor, a negative one ran
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SIM_CFG, **{key: value})))
    assert dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["type"] == "ValueError" and f"{key} must be finite" in payload["error"]


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
                     "--budget", "1000", "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    # the numeric search under-finds the supremum, so its bound is tighter
    assert res["value"] <= res["value_paper_bound"] + 1e-9


def test_oracle_rhs_numeric_without_a_closed_form_comparison(tmp_path):
    # S = {1} leaves a one-vertex first component, outside the closed-form
    # path bound's hypothesis; the numeric RHS is still reported
    out = tmp_path / "rhs.json"
    assert dispatch(["oracle-rhs", "--theorem", "plain_fast", "--graph", "path:12",
                     "--S", "1", "--kappa-source", "numeric", "--budget", "200",
                     "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["value_paper_bound"] is None and math.isfinite(res["value"])


# every subcommand's flags and defaults ("required" for a required flag); a
# subcommand rejects every flag it does not read
CLI_SURFACE = {
    "graph": {"--family": "required", "--out": None},
    "theory": {"--graph": "required", "--S": "", "--out": None, "--format": "json"},
    "kappa": {"--graph": "required", "--S": "", "--weights": "computed", "--budget": 10000,
              "--steps": 200, "--out": None, "--format": "json", "--seed": 0},
    "solve": {"--graph": "required", "--y": "required", "--lambda": None, "--lambda0": None,
              "--tol": 1e-08, "--max-iter": 100000, "--no-certify": False, "--out": None,
              "--format": "json"},
    "tune": {"--graph": None, "--S": "", "--n": None, "--r-S": None, "--gamma": None,
             "--sigma": 1.0, "--t": 2.0, "--a": 2.0, "--eta": 0.5, "--lambda0": None,
             "--norm-df0": 0.0, "--out": None, "--format": "json"},
    "oracle-rhs": {"--theorem": "required", "--graph": "required", "--S": "", "--sigma": 1.0,
                   "--t": 2.0, "--x": 2.0, "--a": 2.0, "--eta": 0.5, "--lambda": None,
                   "--lambda0": None, "--f0": None, "--f": None, "--kappa-source": "paper_bound",
                   "--grid-constant": None, "--budget": 10000, "--out": None, "--format": "json",
                   "--seed": 0},
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
], ids=["params-null", "signal-list", "graph-params-typo", "graph-params-null",
        "unknown-family", "no-graph", "unknown-theorem", "kappa-source-typo", "not-an-object",
        "S-number", "sigma-null", "graph-n-null"])
def test_simulate_malformed_config_exits_2_naming_it(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert named in json.loads(err)["error"]
