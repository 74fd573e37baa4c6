"""Tests for the benchmark's own code:

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import gc
import json
import random
import types
from pathlib import Path

import pytest

import clock
import metrics
import run
import tracing
import workloads
from chainforge.oracle import oracle_min_chain

BENCH = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, p", [(9, None), (20, 50), (39, 50), (40, 75),
                                  (100, 90), (199, 90), (200, 95), (1000, 99)])
def test_tail_percentile_leaves_ten_beyond(n, p):
    assert metrics.tail_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(40, 0, -1))
    assert metrics.percentile(values, 75) == 30
    assert metrics.percentile(values, 50) == 20
    assert metrics.percentile([7.0], 75) == 7.0
    assert metrics.latency_metrics([1.0, 2.0, 3.0, 4.0]) == {
        "wall_s": 10.0, "inst_p50_s": 2.5, "inst_p75_s": 3.0}


def span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "instance": 0, "phase": "generate", **attrs}


def test_self_time_of_nested_spans():
    spans = [span(0, "outer", 0.0, 10.0),
             span(1, "a", 1.0, 4.0, parent=0),
             span(2, "a.inner", 2.0, 3.0, parent=1),
             span(3, "b", 5.0, 9.0, parent=0)]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_clips_and_merges_children():
    spans = [span(0, "outer", 0.0, 10.0),
             span(1, "early", -1.0, 2.0, parent=0),
             span(2, "overlap", 1.0, 4.0, parent=0),
             span(3, "late", 9.0, 12.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_from_spans():
    stats = {k: 1 for k in tracing.ENGINE_COUNTERS}
    spans = [span(0, "engine.generate", 0.0, 10.0, stats=stats, vars=50, clauses=70),
             span(1, "reachgraph.build", 0.0, 6.0, parent=0, exhaust=True, k_stop=3),
             span(2, "bmc.kreach", 1.0, 5.0, parent=1, pairs=4, found=1, horizon=3),
             span(3, "sat.solve", 1.0, 2.0, parent=2, status="sat", conflicts=5),
             span(4, "sat.solve", 2.0, 4.5, parent=2, status="unsat", conflicts=7),
             span(5, "bmc.check_path", 7.0, 9.0, parent=0, feasible=True, horizon=5),
             span(6, "optimizer.atsp", 6.0, 6.5, parent=0, backend="exact")]
    m = metrics.layer_metrics(spans)
    assert m["engine.generate_s"] == 10.0
    assert m["engine.self_s"] == pytest.approx(10.0 - 6.0 - 2.0 - 0.5)
    assert m["reachgraph.build_self_s"] == pytest.approx(2.0)
    assert m["bmc.kreach_self_s"] == pytest.approx(0.5)
    assert (m["sat.sat_s"], m["sat.unsat_s"], m["sat.solves"]) == (1.0, 2.5, 2)
    assert m["sat.unsat_ratio"] == 0.5 and m["sat.conflicts_per_solve"] == 6.0
    assert m["bmc.kreach_hit_ratio"] == 0.25 and m["bmc.frames"] == 5
    assert m["reachgraph.exhaust_builds"] == 1 and m["reachgraph.k_stop_sum"] == 3
    assert m["optimizer.exact_ratio"] == 1.0 and m["engine.partitions"] == 1
    assert (m["encode.vars"], m["encode.clauses"]) == (50, 70)
    assert set(m) | {"trace.overhead_s", "len_over_opt", "cert_unsound"} == set(metrics.PER_LAYER)


def test_patched_wraps_every_binding_and_restores():
    def work(x):
        return x + 1
    home = types.SimpleNamespace(work=work)
    user = types.SimpleNamespace(work=work)
    stale = types.SimpleNamespace(work=lambda x: x)
    tracer = tracing.Tracer()
    with tracer.patched([("w", [(home, "work"), (user, "work"), (stale, "work")],
                          lambda a, k, out: {"out": out})]):
        assert user.work(1) == 2 and home.work(2) == 3 and stale.work(5) == 5
    assert home.work is work and user.work is work
    assert [(s["name"], s["out"]) for s in tracer.spans] == [("w", 2), ("w", 3)]


@pytest.mark.parametrize("seed", range(6))
def test_clusters_generator_needs_partitioning(seed):
    inst = workloads.clusters_model(seed)
    g = inst.gen
    workloads.check_clusters(inst)
    assert oracle_min_chain(g.model, g.props, g.init_expr, g.final_expr) is None
    homes = set(inst.cluster_of.values())
    assert len(homes) >= 2
    for c in homes:
        mine = [p for p in g.props if inst.cluster_of[p.name] == c]
        assert isinstance(oracle_min_chain(g.model, mine, g.init_expr, g.final_expr), int)
    # every cluster is closed: no transition leaves it
    for s in range(1, len(g.table)):
        size = workloads.CLUSTER_SIZE
        assert all((t - 1) // size == (s - 1) // size for t in g.table[s])


def test_generate_is_a_function_of_the_workload_seed():
    a = workloads.generate("multi", 1, count=3)
    assert a == workloads.generate("multi", 1, count=3)
    b = workloads.generate("multi", 2, count=3)
    assert [x.model for x in a] != [x.model for x in b]
    assert [x.k_max for x in a] == [x.k_max for x in b] == [60] * 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS) \
        == list(run.WORKLOADS)


def test_clock_scales_by_the_kernel_around_the_call(monkeypatch):
    kernels = iter([0.004, 0.006])
    monkeypatch.setattr(clock, "kernel_time", lambda: next(kernels))
    clk = clock.Clock()
    out, raw, scaled = clk.time(lambda: 42)
    assert out == 42
    assert scaled == pytest.approx(raw * clock.REFERENCE_S / 0.005)
    assert gc.get_freeze_count() == 0


def test_clock_unfreezes_when_the_call_raises(monkeypatch):
    monkeypatch.setattr(clock, "kernel_time", lambda: 0.005)
    clk = clock.Clock()
    with pytest.raises(ZeroDivisionError):
        clk.time(lambda: 1 / 0)
    assert gc.get_freeze_count() == 0


def test_window_makes_the_fixed_passes_and_stops_when_nothing_runs():
    seen = []
    assert run.run_window(5, 0.0, 2, random.Random(1),
                          lambda i, p: seen.append((p, i)) or True) == 2
    assert sorted(seen) == [(p, i) for p in range(2) for i in range(5)]
    seen.clear()
    assert run.run_window(3, 60.0, 2, random.Random(1),
                          lambda i, p: seen.append(i) is not None) == 1
    assert sorted(seen) == [0, 1, 2]


def loaded_modules():
    import importlib
    return run.Modules(*(importlib.import_module(n) for n in (
        "chainforge", "chainforge.dsl", "chainforge.engine", "chainforge.reachgraph",
        "chainforge.bmc", "chainforge.optimizer", "chainforge.oracle", "chainforge.sat",
        "chainforge.model")))


def test_verify_accepts_real_chains_and_rejects_broken_ones():
    mods = loaded_modules()
    p = run.parse_instance(mods.dsl, workloads.generate("clusters", 1, count=1)[0])
    res = mods.engine.generate_chain(p.model, p.props, p.init, p.final,
                                     mods.engine.EngineConfig(k_max=p.k_max))
    v = run.verify(mods, p, res)
    assert v.ok and v.chains == len(res.chains) >= 2 and v.length == v.optimum
    res.chains.pop()
    assert "no chain covers" in run.verify(mods, p, res).message
    first = res.chains[0]
    res.chains[0] = type(first)(first.inputs[:-1], first.trace[:-1], first.covers)
    assert "fails replay" in run.verify(mods, p, res).message
    res.status = mods.engine.FAILED
    assert not run.verify(mods, p, res).ok
