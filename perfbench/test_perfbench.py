"""Tests of the benchmark's own code: python3 -m pytest perfbench"""
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tvgo import experiments, graphs, projections  # noqa: E402


@pytest.mark.parametrize("name", ["mc_path", "mc_grid", "mc_events"])
def test_same_seed_same_inputs_other_seed_other_noise(name):
    a, b = workloads.base_config(name, 7), workloads.base_config(name, 7)
    assert a.graph == b.graph and a.S == b.S and a.seed == b.seed
    assert workloads.config_seed(7, 3) == workloads.config_seed(7, 3)
    c = workloads.base_config(name, 8)
    assert c.seed != a.seed
    n = a.graph.n
    assert not np.array_equal(experiments.trial_noise(1.0, n, a.seed, 0),
                              experiments.trial_noise(1.0, n, c.seed, 0))
    # the units of one run draw different noise too
    assert workloads.config_seed(7, 0) != workloads.config_seed(7, 1)


def _tree(name, seed):
    if name == "solve_tree":
        return workloads.balanced_tree(seed)
    d = workloads.experiment_dict(name, seed)
    return d["graph"]["params"]["parents"], d["S"]


@pytest.mark.parametrize("name", ["mc_events", "solve_tree"])
def test_random_trees_follow_the_seed(name):
    parents, S = _tree(name, 1)
    assert (parents, S) == _tree(name, 1)
    assert parents != _tree(name, 2)[0]
    for v, p in enumerate(parents, start=2):
        assert v - workloads.PARENT_WINDOW <= p < v


@pytest.mark.parametrize("seed", range(20))
def test_solve_tree_components_stay_balanced(seed):
    parents, S = workloads.balanced_tree(seed)
    graph = graphs.tree_graph(parents)
    active = graphs.active_set(graph, S)
    assert graph.n == 2048 and len(S) == 3 and active.r_S == 4
    quarter = graph.n // 4
    for size in active.comp_sizes:
        assert abs(size - quarter) <= 2 * workloads.TREE_JITTER
    assert graphs.is_admissible(graphs.incidence(graph), active)


def test_work_depends_on_the_seconds_only():
    for w in workloads.WORKLOADS.values():
        assert w.units(60) == w.units(60) >= w.minimum
        assert w.units(0) == w.minimum
        if w.thread_check:
            assert w.trials >= 2 * experiments.BLOCK_SIZE


def test_per_layer_metrics_are_per_experiment():
    s, sid = [], 0
    for k in range(2):   # two experiments, each with two pseudoinverses and one block
        base = 10.0 * k
        s += [spans.Span(sid + 1, "experiments.experiment_csv", base, base + 9, None, f"mc{k}/t1"),
              spans.Span(sid + 2, "projections.pseudoinverse", base, base + 1, sid + 1, f"mc{k}/t1"),
              spans.Span(sid + 3, "projections.pseudoinverse", base + 1, base + 2, sid + 1, f"mc{k}/t1"),
              spans.Span(sid + 4, "experiments.block", base + 2, base + 8, sid + 1, f"mc{k}/t1"),
              spans.Span(sid + 5, "solvers.plain_batch", base + 2, base + 5, sid + 4, f"mc{k}/t1")]
        sid += 5
    same = {"trials_per_s": 10.0, "solve_ms_p50": 0.0}
    out = run.per_layer(s, workloads.Tally(), same, same, 2, run.PER_LAYER)
    assert set(out) == set(run.PER_LAYER)
    assert out["projections.pseudoinverse_calls"] == 2.0
    assert out["projections.pseudoinverse_s"] == pytest.approx(2.0)
    assert out["solvers.plain_batch_s"] == pytest.approx(3.0)
    assert out["experiments.records_s"] == pytest.approx(3.0)
    assert out["solvers.batch_share"] == pytest.approx(0.5)
    assert out["experiments.blocks"] == 1.0
    assert out["trace.trials_overhead"] == 0.0


def test_self_time_of_nested_spans():
    s = [spans.Span(1, "a", 0.0, 10.0, None, "r"),
         spans.Span(2, "b", 2.0, 5.0, 1, "r"),
         spans.Span(3, "c", 3.0, 4.0, 2, "r"),
         spans.Span(4, "b", 6.0, 7.0, 1, "r")]
    own = spans.self_times(s)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    stats = spans.by_name(s)
    assert stats["b"].self_s == pytest.approx(3.0) and stats["b"].calls == 2
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two pool threads running blocks under one run span
    s = [spans.Span(1, "run", 0.0, 10.0, None, "r"),
         spans.Span(2, "block", 1.0, 6.0, 1, "r"),
         spans.Span(3, "block", 4.0, 8.0, 1, "r"),
         spans.Span(4, "block", 9.0, 12.0, 1, "r")]   # clipped at the parent's end
    assert spans.self_times(s)[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.covered_length([(1, 6), (4, 8), (9, 12)], 0, 10) == pytest.approx(8.0)


def test_parallelism_is_busy_over_wall_time():
    s = [spans.Span(1, "experiments.run", 0.0, 6.0, None, "mc0/t2"),
         spans.Span(2, "experiments.block", 1.0, 5.0, 1, "mc0/t2"),
         spans.Span(3, "experiments.block", 2.0, 6.0, 1, "mc0/t2"),
         spans.Span(4, "experiments.run", 0.0, 3.0, None, "mc0/t1"),
         spans.Span(5, "experiments.block", 0.0, 3.0, 4, "mc0/t1")]
    assert spans.parallelism(s, {"mc0/t2"}) == pytest.approx(8.0 / 5.0)
    assert spans.parallelism(s, set()) == 1.0


def test_wrappers_record_spans_and_restore_the_functions():
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.targets()]
    tracer = spans.Tracer()
    g = graphs.path_graph(6)
    with spans.traced(tracer):
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
        tracer.run_id = "probe"
        D = graphs.incidence(g)
        projections.theory_report(D, graphs.active_set(g, [3]))
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original
    names = [s.name for s in tracer.spans]
    assert names.count("graphs.incidence") == 1
    assert names.count("graphs.edge_endpoints") == 1
    by_id = {s.id: s for s in tracer.spans}
    pinv = next(s for s in tracer.spans if s.name == "projections.pseudoinverse")
    assert by_id[pinv.parent].name == "projections.theory_report"
    assert all(s.run_id == "probe" for s in tracer.spans)


def test_wrappers_are_removed_when_the_block_raises():
    before = {(id(o), a): o.__dict__[a] for o, a, _ in spans.targets()}
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("stop")
    assert all(o.__dict__[a] is before[(id(o), a)] for o, a, _ in spans.targets())


def test_worker_thread_spans_take_the_submitting_span_as_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def submit():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("outer", submit)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["leaf"].parent == by_name["outer"].id


def test_sparse_omega_matches_the_theory_report():
    g = graphs.grid_graph(4, 5)
    D = graphs.incidence(g)
    active = graphs.active_set(g, [2, 6, 10, 14])
    report = projections.theory_report(D, active)
    edges = list(active.inactive)
    got = workloads.sparse_omega(D, active, edges)
    assert np.allclose(got, report.omega[np.asarray(edges) - 1], rtol=1e-10, atol=0)


def test_check_experiment_accepts_a_run_and_flags_a_short_csv():
    cfg = replace(workloads.base_config("mc_path", 0), trials=8, theorems=("plain_fast",))
    text, summary = experiments.experiment_csv(cfg)
    assert workloads.check_experiment(cfg, text, summary) == []
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert workloads.check_experiment(cfg, short, summary) == ["CSV has 7 rows, expected 8"]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS) - {"solve_tree"}
