#!/usr/bin/env python3
"""Check that the benchmark's counts repeat exactly under different hash
seeds.

    python3 perfbench/determinism.py

Makes one short traced run of every workload under each of HASH_SEEDS as
``PYTHONHASHSEED`` and requires every metric measured in ``count`` or
``ratio`` -- chains, ``len_over_opt``, ``cert_unsound``, solver calls and
conflicts, the engine's and the bmc layer's counters -- to be identical.
Exits 1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
HASH_SEEDS = (1, 2)
RUN_SEED = 1


def counts(workload: str, hash_seed: int) -> dict:
    """The count and ratio metrics of one traced run, read from the
    ``name value unit`` lines run.py prints for every metric."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(RUN_SEED), "--seconds", "1", "--trace", "1"],
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} with PYTHONHASHSEED={hash_seed} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    found = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] in ("count", "ratio") and not line.startswith("#"):
            found[parts[0]] = parts[1]
    return found


def main() -> int:
    same = True
    for workload in WORKLOADS:
        a, b = (counts(workload, h) for h in HASH_SEEDS)
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        same &= not diff
        print(f"{workload}: {len(a)} counts, "
              + ("identical" if not diff else
                 "DIFFER: " + ", ".join(f"{k} {a.get(k)} != {b.get(k)}" for k in diff)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
