"""Metric names, units and the arithmetic that turns samples and spans
into them.  BENCHMARK.json lists the same names and units; the tests
check that the two agree."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import self_times

#: Reported with --trace 0, measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "inst_p50_s": "s",
    "inst_p75_s": "s",
    "len_ratio": "ratio",
    "chains": "count",
    "peak_rss_mb": "MB",
}

#: Reported with --trace 1, from the traced run.
PER_LAYER = {
    "dsl.parse_s": "s",
    "dsl.parse_calls": "count",
    "encode.vars": "count",
    "encode.clauses": "count",
    "bmc.frames": "count",
    "bmc.kreach_s": "s",
    "bmc.kreach_self_s": "s",
    "bmc.kreach_calls": "count",
    "bmc.kreach_pairs": "count",
    "bmc.kreach_hit_ratio": "ratio",
    "bmc.check_path_s": "s",
    "bmc.check_path_self_s": "s",
    "bmc.check_path_calls": "count",
    "bmc.check_path_feasible_ratio": "ratio",
    "sat.solve_s": "s",
    "sat.solves": "count",
    "sat.sat_s": "s",
    "sat.unsat_s": "s",
    "sat.unsat_ratio": "ratio",
    "sat.conflicts": "count",
    "sat.conflicts_per_solve": "ratio",
    "reachgraph.build_s": "s",
    "reachgraph.build_self_s": "s",
    "reachgraph.builds": "count",
    "reachgraph.exhaust_builds": "count",
    "reachgraph.k_stop_sum": "count",
    "reachgraph.closure_s": "s",
    "optimizer.atsp_s": "s",
    "optimizer.atsp_calls": "count",
    "optimizer.exact_ratio": "ratio",
    "engine.generate_s": "s",
    "engine.self_s": "s",
    "engine.solver_calls": "count",
    "engine.repair_increments": "count",
    "engine.refinement_splits": "count",
    "engine.partitions": "count",
    "oracle.min_chain_s": "s",
    "trace.overhead_s": "s",
    "len_over_opt": "count",
    "cert_unsound": "count",
}

PERCENTILES = (50, 75, 90, 95, 99)


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """The highest of PERCENTILES that leaves at least `beyond` of `n`
    samples above it, or None when even the median does not."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= beyond:
            best = p
    return best


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_metrics(per_instance: list[float]) -> dict[str, float]:
    return {"wall_s": sum(per_instance),
            "inst_p50_s": statistics.median(per_instance),
            "inst_p75_s": percentile(per_instance, 75)}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over the given spans (one traced sample per
    instance, one parse pass and the verification's oracle calls), with
    each span's time multiplied by its `scale`, if it has one."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    frames: dict[int, int] = {}
    m: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        scale = s.get("scale", 1.0)
        dur = (s["end"] - s["start"]) * scale
        total[name] += dur
        self_s[name] += own[s["id"]] * scale
        calls[name] += 1
        if "horizon" in s:
            frames[s["instance"]] = max(frames.get(s["instance"], 0), s["horizon"])
        if name == "bmc.kreach":
            m["bmc.kreach_pairs"] += s["pairs"]
            m["found"] += s["found"]
        elif name == "bmc.check_path":
            m["feasible"] += s["feasible"]
        elif name == "sat.solve":
            m[f"sat.{s['status']}_s"] += dur
            m[f"n_{s['status']}"] += 1
            m["sat.conflicts"] += s["conflicts"]
        elif name == "reachgraph.build":
            m["reachgraph.exhaust_builds"] += s["exhaust"]
            m["reachgraph.k_stop_sum"] += s["k_stop"]
        elif name == "optimizer.atsp":
            m["exact"] += s["backend"] == "exact"
        elif name == "engine.generate":
            for key, v in s["stats"].items():
                m[f"engine.{key}"] += v
            m["encode.vars"] += s["vars"]
            m["encode.clauses"] += s["clauses"]
    return {
        "dsl.parse_s": total["dsl.parse"],
        "dsl.parse_calls": calls["dsl.parse"],
        "encode.vars": int(m["encode.vars"]),
        "encode.clauses": int(m["encode.clauses"]),
        "bmc.frames": sum(frames.values()),
        "bmc.kreach_s": total["bmc.kreach"],
        "bmc.kreach_self_s": self_s["bmc.kreach"],
        "bmc.kreach_calls": calls["bmc.kreach"],
        "bmc.kreach_pairs": int(m["bmc.kreach_pairs"]),
        "bmc.kreach_hit_ratio": ratio(m["found"], m["bmc.kreach_pairs"]),
        "bmc.check_path_s": total["bmc.check_path"],
        "bmc.check_path_self_s": self_s["bmc.check_path"],
        "bmc.check_path_calls": calls["bmc.check_path"],
        "bmc.check_path_feasible_ratio": ratio(m["feasible"], calls["bmc.check_path"]),
        "sat.solve_s": total["sat.solve"],
        "sat.solves": calls["sat.solve"],
        "sat.sat_s": m["sat.sat_s"],
        "sat.unsat_s": m["sat.unsat_s"],
        "sat.unsat_ratio": ratio(m["n_unsat"], calls["sat.solve"]),
        "sat.conflicts": int(m["sat.conflicts"]),
        "sat.conflicts_per_solve": ratio(m["sat.conflicts"], calls["sat.solve"]),
        "reachgraph.build_s": total["reachgraph.build"],
        "reachgraph.build_self_s": self_s["reachgraph.build"],
        "reachgraph.builds": calls["reachgraph.build"],
        "reachgraph.exhaust_builds": int(m["reachgraph.exhaust_builds"]),
        "reachgraph.k_stop_sum": int(m["reachgraph.k_stop_sum"]),
        "reachgraph.closure_s": total["reachgraph.closure"],
        "optimizer.atsp_s": total["optimizer.atsp"],
        "optimizer.atsp_calls": calls["optimizer.atsp"],
        "optimizer.exact_ratio": ratio(m["exact"], calls["optimizer.atsp"]),
        "engine.generate_s": total["engine.generate"],
        "engine.self_s": self_s["engine.generate"],
        "engine.solver_calls": int(m["engine.solver_calls"]),
        "engine.repair_increments": int(m["engine.repair_increments"]),
        "engine.refinement_splits": int(m["engine.refinement_splits"]),
        "engine.partitions": int(m["engine.partitions"]),
        "oracle.min_chain_s": total["oracle.min_chain"],
    }
