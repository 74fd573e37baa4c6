#!/usr/bin/env python3
"""Print every end-to-end and every per-layer metric of every workload.

    python3 perfbench/report.py [--workload-seed 2]

Each workload runs twice in a fresh interpreter, one run after another:
with tracing off for the end-to-end metrics, then traced for the
per-layer ones.  Exits 1 if any run fails or any output fails
verification.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SEED = 1
SECONDS = 25


def run_one(workload: str, trace: int, args) -> tuple[bool, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(RUN_SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    if args.workload_seed is not None:
        cmd += ["--workload-seed", str(args.workload_seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("#"):
            print(line)
    if proc.returncode not in (0, 1) or not lines:
        print(proc.stderr, file=sys.stderr)
        return False, {}
    result = json.loads(lines[-1])
    return proc.returncode == 0 and result["correct"], result["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload-seed", type=int,
                    help="draw the instances from this seed, e.g. the held-out seed 2")
    args = ap.parse_args()
    all_ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok, found = run_one(workload, trace, args)
            all_ok &= ok
            print(f"== {workload} ({'per-layer, traced' if trace else 'end-to-end'})"
                  f"{'' if ok else ' FAILED'}")
            for name, m in found.items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
