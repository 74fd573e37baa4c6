#!/usr/bin/env python3
"""Identity check: run fixed sets of instances through `generate_chain`
and record everything a change that must not alter the search leaves
unchanged.

    python3 tools/identity_check.py > after.json
    python3 tools/identity_check.py --root OTHER_CHECKOUT > before.json
    python3 tools/identity_check.py --compare before.json after.json

Every run records every group.  A group is the instance name up to its
last `-`:
- `<workload>-<seed>`: the 40 instances of each perfbench workload
  (ladder, multi, clusters) for workload seeds 1 and 2, generated by the
  checkout's own `perfbench/workloads.py`, which is imported and not
  changed;
- `bench`: the checkout's `benches/` suite, each at its `expected.json`
  settings as `chainforge bench` runs it, so the records also cover
  enum, bool, clamp, invariant and input-assumption encodings;
- `family12` and `family24`: the table family, seeds 0-299 at `k_max` 12
  and seeds 0-99 at `k_max` 24, each model from the checkout's own
  `tests/conftest.py::table_family_case`;
- `scale`: `oracle.random_model` at 60 states and 8 properties (seeds 1
  and 2) and at 120 states and 12 properties (seed 1), 3 inputs, with
  the generator's init and final, at `k_max` 80.
Every instance runs under the default engine configuration.  Its record
holds the result status and reason, every chain's inputs and cover
positions, the engine `Stats` without `wall_time_s`, the result graph's
`k_stop` and `named_edges()` (the abstraction the chain was planned
on), for the first solver its variable count, clause count, conflicts,
solves and a SHA-1 of its clause list (learnt clauses included), the
repair checks (calls of `engine.path_feasible`), the process time of
the `generate_chain` call (`time_s`), and, except in `scale`, whose
product spaces are too large, the explicit-state references
`oracle_min_chain` and `pair_min_weights` on the full property set.

`--compare` lists the instances whose records differ in anything but
`time_s`, and exits 1 if any do; a change of status or of total chain
length also shows both statuses, total chain lengths and the oracle's
minimal length.  One line per group counts the instances whose outcome
differs: status (and so the certificate), chain lengths, repair
increments, refinement splits, result graph, abstract path and weights,
and first failed path, leaving out what a different search may change
without changing the result (solver counters, chain inputs, covers).
Two runs of one checkout under different searches should show 0 there.
The same line counts the status changes and, among the rest, the
instances whose chains got shorter or longer, with their step totals.
Then each file gets a line counting its certified instances and those
longer than the oracle's minimum, where the oracle gave one, and one
line per group with the total chain length, the certified count, the
first solver's variables, clauses, solves and conflicts, the repair
increments and checks, the chains concretised by joining k-reach
witnesses, and the process time.  `Stats` fields that only one of the
two files has are skipped, so a change may add or drop a field.  This is
a tool, not part of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

WORKLOADS = ("ladder", "multi", "clusters")
WORKLOAD_SEEDS = (1, 2)
FAMILY = ((12, range(300)), (24, range(100)))   # (k_max, seeds)
SCALE = (("60s1", 1, 60, 8), ("60s2", 2, 60, 8), ("120s1", 1, 120, 12))
SCALE_K_MAX = 80
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


def parse(dsl, inst) -> tuple:
    """A DSL instance as (model, properties, init, final)."""
    model, _ = dsl.parse_model(inst.model, inst.name)
    props, _ = dsl.parse_properties(inst.props, model, inst.name)
    init = (model.init_expr() if inst.init is None
            else dsl.parse_state_set(inst.init, model)[0])
    final = init if inst.final is None else dsl.parse_state_set(inst.final, model)[0]
    return model, props, init, final


def instances(root: Path, dsl, oracle, workloads, table_family_case):
    """(name, (model, properties, init, final), k_max, with oracle) for
    every instance, group by group."""
    for name in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for inst in workloads.generate(name, seed):
                yield inst.name, parse(dsl, inst), inst.k_max, True
    for inst in bench_instances(workloads, root):
        yield inst.name, parse(dsl, inst), inst.k_max, True
    for k_max, seeds in FAMILY:
        for seed in seeds:
            yield f"family{k_max}-{seed}", table_family_case(seed), k_max, True
    for name, seed, n_states, n_props in SCALE:
        gen = oracle.random_model(seed, n_states=n_states, n_inputs=3, n_props=n_props)
        yield (f"scale-{name}", (gen.model, gen.props, gen.init_expr, gen.final_expr),
               SCALE_K_MAX, False)


def run_instance(engine, oracle, sat, case, k_max: int, with_oracle: bool,
                 checks: list) -> dict:
    """One instance's record; `checks[0]` counts `path_feasible` calls."""
    solvers = []

    def factory():
        solvers.append(sat.Solver())
        return solvers[-1]

    cfg = engine.EngineConfig(k_max=k_max, solver_factory=factory)
    rec = {"oracle": oracle_record(oracle, *case)} if with_oracle else {}
    checks0, t0 = checks[0], time.process_time()
    try:
        res = engine.generate_chain(*case, cfg)
    except Exception as ex:  # a crash is a difference like any other
        rec["error"] = repr(ex)
        res = None
    rec["time_s"] = round(time.process_time() - t0, 4)
    rec["repair_checks"] = checks[0] - checks0
    if res is None:
        return rec
    stats = dataclasses.asdict(res.stats)
    del stats["wall_time_s"]
    s = solvers[0]
    g = res.graph
    return {
        **rec,
        "status": res.status,
        "reason": res.reason,
        "chains": [list(c.inputs) for c in res.chains],
        "covers": [dict(c.covers) for c in res.chains],
        "stats": stats,
        "graph": None if g is None else {
            "k_stop": g.k_stop,
            "edges": [list(e) for e in g.named_edges()],
        },
        "solver": {
            "nvars": s.nvars,
            "clauses": len(s.clauses),
            "conflicts": s.stats_conflicts,
            "solves": s.stats_solves,
            "clauses_sha1": hashlib.sha1(repr(s.clauses).encode()).hexdigest(),
        },
    }


def run(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]
    from chainforge import dsl, engine, oracle, sat
    import workloads
    from conftest import table_family_case

    checks = [0]
    path_feasible = engine.path_feasible

    def counted(*args):
        checks[0] += 1
        return path_feasible(*args)
    engine.path_feasible = counted
    try:
        return {name: run_instance(engine, oracle, sat, case, k_max, with_oracle, checks)
                for name, case, k_max, with_oracle
                in instances(root, dsl, oracle, workloads, table_family_case)}
    finally:
        engine.path_feasible = path_feasible


def differences(a: dict, b: dict) -> list[str]:
    """Keys of one instance record that differ, as dotted names, leaving
    out the process time."""
    out = []
    for key in sorted((set(a) | set(b)) - {"time_s"}):
        va, vb = a.get(key), b.get(key)
        if key == "stats" and isinstance(va, dict) and isinstance(vb, dict):
            out += [f"stats.{f}" for f in sorted(set(va) & set(vb)) if va[f] != vb[f]]
        elif va != vb:
            out.append(key)
    return out


def total_length(rec: dict) -> int:
    return sum(len(c) for c in rec.get("chains", []))


def oracle_length(rec: dict):
    """The oracle's minimal chain length, or None where it gave none."""
    return rec.get("oracle", {}).get("min_chain")


def outcome_record(rec: dict) -> tuple:
    """What a run decided, as opposed to how the solver got there."""
    stats = rec.get("stats", {})
    return (rec.get("error"), rec.get("status"),
            [len(c) for c in rec.get("chains", [])], rec.get("graph"),
            *(stats.get(f) for f in OUTCOME_STATS))


def outcome(rec: dict) -> str:
    """Status, total chain length and the oracle's minimal length."""
    return (f"{rec.get('status')} {total_length(rec)} steps "
            f"(oracle {oracle_length(rec)})")


def certificates(path: Path, runs: dict) -> str:
    """Certified instances in one file, and how many of them the oracle
    gave a length for that they are not at."""
    certified = [r for r in runs.values() if r.get("status") == CERTIFIED]
    long_ = sum(oracle_length(r) not in (None, total_length(r)) for r in certified)
    return f"{path}: {len(certified)} certified, {long_} above the oracle"


def groups(names) -> dict[str, list[str]]:
    """Instance names by group (the name without its last `-` part), in
    name order."""
    out: dict[str, list[str]] = {}
    for name in sorted(names):
        out.setdefault(name.rsplit("-", 1)[0], []).append(name)
    return out


def outcome_differences(a: dict, b: dict) -> list[str]:
    """One line per group counting the instances of both files whose
    outcome differs, those whose status changed, and, among the rest,
    those whose chains got shorter or longer in all."""
    lines = []
    for key, names in groups(set(a) & set(b)).items():
        pairs = [(a[n], b[n]) for n in names]
        same = [total_length(rb) - total_length(ra) for ra, rb in pairs
                if ra.get("status") == rb.get("status")]
        lines.append(
            f"{key}: {sum(outcome_record(ra) != outcome_record(rb) for ra, rb in pairs)}"
            f" of {len(names)} instances differ in outcome, "
            f"{len(names) - len(same)} status changes, "
            f"{sum(d < 0 for d in same)} chains shorter by "
            f"{-sum(d for d in same if d < 0)} steps, "
            f"{sum(d > 0 for d in same)} longer by {sum(d for d in same if d > 0)}")
    return lines


def aggregates(path: Path, runs: dict) -> list[str]:
    """One line per group summing the records of one file."""
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
            f"{sum(r.get('repair_checks', 0) for r in recs)} repair checks, "
            f"{sum(r.get('stats', {}).get('joined_chains', 0) for r in recs)}"
            f" joined chains, "
            f"{sum(r.get('time_s', 0) for r in recs):.1f} s")
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
