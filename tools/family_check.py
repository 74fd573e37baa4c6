#!/usr/bin/env python3
"""Table-family check: run the 300 random table models of the ROADMAP's
table family through `generate_chain`, one record per model.

    python3 tools/family_check.py > after.json
    python3 tools/family_check.py --root OTHER_CHECKOUT > before.json
    python3 tools/family_check.py --compare before.json after.json

Model `seed` (0..299) is `table_family_case(seed)` from the checkout's
own `tests/conftest.py`, run at `k_max` 12 with the default engine
configuration.  Per seed the JSON holds the result status, the chain
lengths, the refinement splits and repair increments, the repair checks
(calls of `engine.path_feasible`), the solver's solve count and the
process time of the `generate_chain` call.

`--compare` lists the seeds whose status or chain lengths differ, counts
the status changes and the chains that got shorter or longer (by how
many steps in all), and prints one line of totals per file: chain
length, certified and failed instances, splits, increments, repair
checks, solves and process time.  It exits 1 when some status changed.
This is a tool, not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SEEDS = range(300)
K_MAX = 12


def run(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from chainforge import engine
    from conftest import table_family_case

    checks = 0
    path_feasible = engine.path_feasible

    def counted(*args):
        nonlocal checks
        checks += 1
        return path_feasible(*args)
    engine.path_feasible = counted
    out = {}
    try:
        for seed in SEEDS:
            model, props, init, final = table_family_case(seed)
            checks = 0
            t0 = time.process_time()
            res = engine.generate_chain(model, props, init, final,
                                        engine.EngineConfig(k_max=K_MAX))
            st = res.stats
            out[str(seed)] = {
                "status": res.status,
                "lengths": [c.length for c in res.chains],
                "refinement_splits": st.refinement_splits,
                "repair_increments": st.repair_increments,
                "repair_checks": checks,
                "solves": st.solver_calls,
                "time_s": round(time.process_time() - t0, 4),
            }
    finally:
        engine.path_feasible = path_feasible
    return out


def totals(path: Path, runs: dict) -> str:
    recs = runs.values()

    def total(key):
        return sum(r[key] for r in recs)
    return (f"{path}: length {sum(sum(r['lengths']) for r in recs)}, "
            f"{sum(r['status'] == 'minimal-certified' for r in recs)} certified, "
            f"{sum(r['status'] == 'failed' for r in recs)} failed, "
            f"{total('refinement_splits')} splits, "
            f"{total('repair_increments')} repair increments, "
            f"{total('repair_checks')} repair checks, {total('solves')} solves, "
            f"{total('time_s'):.1f} s")


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    changed = shorter = longer = cut = added = 0
    for seed in sorted(set(a) & set(b), key=int):
        ra, rb = a[seed], b[seed]
        if (ra["status"], ra["lengths"]) == (rb["status"], rb["lengths"]):
            continue
        print(f"{seed}: {ra['status']} {ra['lengths']} -> {rb['status']} {rb['lengths']}")
        if ra["status"] != rb["status"]:
            changed += 1
            continue
        delta = sum(rb["lengths"]) - sum(ra["lengths"])
        shorter += delta < 0
        longer += delta > 0
        cut -= min(delta, 0)
        added += max(delta, 0)
    print(f"{changed} status changes; {shorter} chains shorter by {cut} steps, "
          f"{longer} longer by {added}")
    for path, runs in ((path_a, a), (path_b, b)):
        print(totals(path, runs))
    return 1 if changed else 0


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
