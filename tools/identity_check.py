#!/usr/bin/env python3
"""Identity check: run the benchmark workloads through `generate_chain`
and record everything a change that must not alter the search leaves
unchanged.

    python3 tools/identity_check.py > after.json
    python3 tools/identity_check.py --root OTHER_CHECKOUT > before.json
    python3 tools/identity_check.py --compare before.json after.json

The instances are the 40 of each perfbench workload (ladder, multi,
clusters) for workload seeds 1 and 2: 240 in all, generated by the
checkout's own `perfbench/workloads.py`, which is imported and not
changed.  Then come the benchmarks of the checkout's `benches/` suite
(`bench-<dir>`), each at its `expected.json` settings as `chainforge
bench` runs it, so the records also cover enum, bool, clamp, invariant
and input-assumption encodings.  Per instance the JSON holds the result
status and reason, every chain's inputs and cover positions, the engine `Stats` without `wall_time_s`, the
result graph's `k_stop` and `named_edges()` (the abstraction the chain
was planned on), for the first solver its variable count, clause count,
conflicts, solves and a SHA-1 of its clause list (learnt clauses
included), and the explicit-state references `oracle_min_chain` and `pair_min_weights` on
the instance's full property set.

`--compare` lists the instances whose records differ and exits 1 if any
do; a change of status or of total chain length also shows both
statuses, total chain lengths and the oracle's minimal length, and a
closing line per file counts its certified instances and those longer
than the oracle's minimum.  Then one line per workload and workload
seed counts the instances whose outcome differs: status (and so the
certificate), chain lengths, repair increments, refinement splits,
result graph, abstract path and weights, and first failed path, leaving
out what a different search may change without changing the result
(solver counters, chain inputs, covers).  Two runs of one checkout
under different searches should show 0 there.  Then each file gets one
line per workload and workload seed with the total chain length, the
certified count, the first solver's variables, clauses, solves and
conflicts, the repair increments, and the chains concretised by joining
k-reach witnesses (0 for a checkout that does not count them), so a
change to the search or the encoding shows its aggregate effect next to
the per-instance list.  `Stats` fields that only one of the two files
has are skipped, so a change may add or drop a field.  This is a tool,
not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

WORKLOADS = ("ladder", "multi", "clusters")
WORKLOAD_SEEDS = (1, 2)
CERTIFIED = "minimal-certified"
# the `Stats` fields of an instance's outcome
OUTCOME_STATS = ("repair_increments", "refinement_splits", "abstract_path",
                 "abstract_weights", "first_failed_path")


def oracle_record(oracle, model, props, init, final) -> dict:
    """The oracle's minimal chain length and pairwise weights, or the
    exception either raised."""
    try:
        weights = oracle.pair_min_weights(model, props, init, final)
        return {"min_chain": oracle.oracle_min_chain(model, props, init, final),
                "pair_weights": sorted([a, b, w] for (a, b), w in weights.items())}
    except Exception as ex:
        return {"error": repr(ex)}


def bench_instances(workloads, root: Path) -> list:
    """One instance per benchmark directory under `root/benches`, with
    `chainforge bench`'s defaults: the model's init when `init` is
    missing (held as None), the init set when `final` is, k_max 50."""
    out = []
    for d in sorted(p for p in (root / "benches").iterdir() if p.is_dir()):
        exp = json.loads((d / "expected.json").read_text())
        init = exp.get("init")
        out.append(workloads.Instance(
            f"bench-{d.name}", (d / "model.rsys").read_text(),
            (d / "props.props").read_text(), init, exp.get("final", init),
            exp.get("k_max", 50)))
    return out


def run_instance(dsl, engine, oracle, sat, inst) -> dict:
    model, _ = dsl.parse_model(inst.model, inst.name)
    props, _ = dsl.parse_properties(inst.props, model, inst.name)
    init = (model.init_expr() if inst.init is None
            else dsl.parse_state_set(inst.init, model)[0])
    final = init if inst.final is None else dsl.parse_state_set(inst.final, model)[0]
    solvers = []

    def factory():
        solvers.append(sat.Solver())
        return solvers[-1]

    cfg = engine.EngineConfig(k_max=inst.k_max, solver_factory=factory)
    ref = oracle_record(oracle, model, props, init, final)
    try:
        res = engine.generate_chain(model, props, init, final, cfg)
    except Exception as ex:  # a crash is a difference like any other
        return {"error": repr(ex), "oracle": ref}
    stats = dataclasses.asdict(res.stats)
    del stats["wall_time_s"]
    s = solvers[0]
    g = res.graph
    return {
        "status": res.status,
        "reason": res.reason,
        "chains": [list(c.inputs) for c in res.chains],
        "covers": [dict(c.covers) for c in res.chains],
        "stats": stats,
        "graph": None if g is None else {
            "k_stop": g.k_stop,
            "edges": [list(e) for e in g.named_edges()],
        },
        "oracle": ref,
        "solver": {
            "nvars": s.nvars,
            "clauses": len(s.clauses),
            "conflicts": s.stats_conflicts,
            "solves": s.stats_solves,
            "clauses_sha1": hashlib.sha1(repr(s.clauses).encode()).hexdigest(),
        },
    }


def run(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from chainforge import dsl, engine, oracle, sat
    import workloads
    out = {}
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for inst in workloads.generate(name, seed):
                out[inst.name] = run_instance(dsl, engine, oracle, sat, inst)
    for inst in bench_instances(workloads, root):
        out[inst.name] = run_instance(dsl, engine, oracle, sat, inst)
    return out


def differences(a: dict, b: dict) -> list[str]:
    """Keys of one instance record that differ, as dotted names."""
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if key == "stats" and isinstance(va, dict) and isinstance(vb, dict):
            out += [f"stats.{f}" for f in sorted(set(va) & set(vb)) if va[f] != vb[f]]
        elif va != vb:
            out.append(key)
    return out


def total_length(rec: dict) -> int:
    return sum(len(c) for c in rec.get("chains", []))


def outcome_record(rec: dict) -> tuple:
    """What a run decided, as opposed to how the solver got there."""
    stats = rec.get("stats", {})
    return (rec.get("error"), rec.get("status"),
            [len(c) for c in rec.get("chains", [])], rec.get("graph"),
            *(stats.get(f) for f in OUTCOME_STATS))


def outcome(rec: dict) -> str:
    """Status, total chain length and the oracle's minimal length."""
    return (f"{rec.get('status')} {total_length(rec)} steps "
            f"(oracle {rec['oracle'].get('min_chain')})")


def certificates(path: Path, runs: dict) -> str:
    """Certified instances in one file, and how many are not at the
    oracle's minimal length (above it, unless the oracle failed)."""
    certified = [r for r in runs.values() if r.get("status") == CERTIFIED]
    long_ = sum(1 for r in certified
                if total_length(r) != r["oracle"].get("min_chain"))
    return f"{path}: {len(certified)} certified, {long_} above the oracle"


def groups(names) -> dict[str, list[str]]:
    """Instance names by workload and workload seed (the name without
    its index), in name order."""
    out: dict[str, list[str]] = {}
    for name in sorted(names):
        out.setdefault(name.rsplit("-", 1)[0], []).append(name)
    return out


def outcome_differences(a: dict, b: dict) -> list[str]:
    """One line per workload and workload seed counting the instances of
    both files whose outcome differs."""
    return [f"{key}: {sum(outcome_record(a[n]) != outcome_record(b[n]) for n in names)}"
            f" of {len(names)} instances differ in outcome"
            for key, names in groups(set(a) & set(b)).items()]


def aggregates(path: Path, runs: dict) -> list[str]:
    """One line per workload and workload seed summing the records of
    one file."""
    lines = []
    for key, names in groups(runs).items():
        recs = [runs[n] for n in names]
        solver = [r.get("solver", {}) for r in recs]
        lines.append(
            f"{path} {key}: length {sum(total_length(r) for r in recs)}, "
            f"{sum(r.get('status') == CERTIFIED for r in recs)} certified, "
            f"{sum(s.get('nvars', 0) for s in solver)} vars, "
            f"{sum(s.get('clauses', 0) for s in solver)} clauses, "
            f"{sum(s.get('solves', 0) for s in solver)} solves, "
            f"{sum(s.get('conflicts', 0) for s in solver)} conflicts, "
            f"{sum(r.get('stats', {}).get('repair_increments', 0) for r in recs)}"
            f" repair increments, "
            f"{sum(r.get('stats', {}).get('joined_chains', 0) for r in recs)}"
            f" joined chains")
    return lines


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bad = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            bad += 1
            continue
        diff = differences(a[name], b[name])
        if diff:
            line = f"{name}: {', '.join(diff)}"
            if "status" in diff or total_length(a[name]) != total_length(b[name]):
                line += f" [{outcome(a[name])} -> {outcome(b[name])}]"
            print(line)
            bad += 1
    print(f"{bad} of {len(set(a) | set(b))} instances differ")
    print("\n".join(outcome_differences(a, b)))
    for path, runs in ((path_a, a), (path_b, b)):
        print(certificates(path, runs))
    for path, runs in ((path_a, a), (path_b, b)):
        print("\n".join(aggregates(path, runs)))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="source checkout to run (default: this one)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two saved runs instead of running")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    json.dump(run(args.root.resolve()), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
