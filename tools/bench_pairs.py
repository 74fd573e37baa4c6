#!/usr/bin/env python3
"""Alternating benchmark pairs: compare two checkouts on one perfbench
workload, end-to-end metrics only.

    python3 tools/bench_pairs.py --a PARENT_CHECKOUT --b CHANGED_CHECKOUT \\
        --workload ladder --pairs 5
    python3 tools/bench_pairs.py --a A --b B --workload multi --pairs 5 \\
        --workload-seed 2

Pair s (s = 1..N) runs `perfbench/run.py --workload W --seed s --seconds S
--trace 0`, S being A's `BENCHMARK.json` `run_seconds`, in checkout A and
then in B when s is odd, B first when s is even, one run at a time, so
slow drift of the host's speed falls on both sides alike.  Each run is started from the root of its own checkout and so
measures that checkout's `src/` with that checkout's harness.

Per end-to-end metric (those a `--trace 0` run reports) it prints A's and B's
median and interquartile range, in how many pairs B's value was lower
than A's (and higher; the rest tie), and a verdict from the metric's
`better` and `bound` in A's `BENCHMARK.json` (see `verdict`).  A run
that exits with a code other than 0, or whose result says
`"correct": false`, is reported on its own line and its metrics are
still counted.  The exit code is 0 when every run verified, 1 otherwise.
This is a tool, not part of the test suite, and it changes nothing in
either checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, args, seconds: float, seed: int) -> tuple[dict, bool]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if args.workload_seed is not None:
        cmd += ["--workload-seed", str(args.workload_seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: no result from {root} (exit {proc.returncode})")
    ok = proc.returncode == 0 and result.get("correct", False)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, ok


def iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def verdict(xa: list[float], xb: list[float], better: str, bound: float) -> str:
    """`gain` when B is better than A in at least nine tenths of the
    pairs (ties count for neither side) and the medians differ, in B's
    favour, by more than A's interquartile range; `worse` when B's median
    is worse than A's by more than `bound` times A's median; else `-`."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(xa, xb))
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    gap = sign * (statistics.median(xa) - statistics.median(xb))
    if 10 * wins >= 9 * len(pairs) and gap > iqr(xa):
        return "gain"
    if -gap > bound * abs(statistics.median(xa)):
        return "worse"
    return "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="the reference checkout")
    ap.add_argument("--b", type=Path, required=True, help="the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload-seed", type=int, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"a": args.a.resolve(), "b": args.b.resolve()}
    bench = json.loads((roots["a"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    rules = {m["name"]: m for m in bench["end_to_end"]}
    samples: dict[str, list[dict]] = {"a": [], "b": []}
    all_ok = True
    for seed in range(1, args.pairs + 1):
        order = ("a", "b") if seed % 2 else ("b", "a")
        for side in order:
            metrics, ok = run(roots[side], args, seconds, seed)
            samples[side].append(metrics)
            if not ok:
                all_ok = False
                print(f"# pair {seed}: run {side.upper()} did not verify")
        a, b = samples["a"][-1], samples["b"][-1]
        print(f"# pair {seed} ({order[0].upper()} first): wall_s "
              f"A {a.get('wall_s')} B {b.get('wall_s')}", flush=True)
    seed_note = "" if args.workload_seed is None else f", workload seed {args.workload_seed}"
    print(f"{args.workload}: {args.pairs} pairs, run seeds 1..{args.pairs}{seed_note}")
    print(f"{'metric':<12} {'median A':>12} {'median B':>12} {'IQR A':>10} {'IQR B':>10} "
          f"{'B lower':>8} {'B higher':>8} {'verdict':>7}")
    for name in samples["a"][0]:
        xa = [m[name] for m in samples["a"] if name in m]
        xb = [m[name] for m in samples["b"] if name in m]
        if not xa or not xb:
            print(f"{name:<12} missing on {'A' if not xa else 'B'}")
            continue
        pairs = list(zip(xa, xb))
        lower = sum(y < x for x, y in pairs)
        higher = sum(y > x for x, y in pairs)
        rule = rules.get(name)
        mark = verdict(xa, xb, rule["better"], rule["bound"]) if rule else "-"
        print(f"{name:<12} {statistics.median(xa):>12.6g} {statistics.median(xb):>12.6g} "
              f"{iqr(xa):>10.4g} {iqr(xb):>10.4g} {lower:>4}/{len(pairs):<3} "
              f"{higher:>4}/{len(pairs):<3} {mark:>7}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
