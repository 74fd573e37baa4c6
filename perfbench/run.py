#!/usr/bin/env python3
"""chainforge benchmark: time chainforge turning seeded instances into
verified test chains, and break the time down by layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; chainforge is imported from its
``src`` directory.  One run does the following, in one process with no
threads or child processes:

1. Generate the workload's 40 instances (``workloads.py``) from
   ``--workload-seed`` as DSL text.  The run seed ``--seed`` only orders
   the visits below: every run seed measures the same instances, so the
   spread between runs is measurement noise, not instance difficulty.
2. Set-up, repeated SETUP_REPEATS times: import chainforge afresh and
   parse every instance's text.  ``setup_s`` is the median.
3. Visit the instances round-robin, in an order drawn from ``--seed``
   and reshuffled every pass, calling ``engine.generate_chain`` once per
   visit, until ``--seconds`` have passed and at least the workload's
   VISITS passes are done.  An instance's time is the best of its first
   VISITS visits (timing noise only adds time); a fixed count, so the
   figure does not depend on how many visits a faster or slower program
   fits into the window.  Later visits only serve the check that every
   visit gives the same result.  With ``--trace 1`` each visit makes one
   untraced and one traced call, in alternating order, and the per-layer
   figures come from each instance's fastest of its first VISITS traced
   calls.
4. Outside the timed region, verify every distinct result: the chains
   replay with ``model.replay`` from the start state, cover each
   property they claim and end in the final set; together they cover
   every property; each is no shorter than ``oracle.oracle_min_chain``
   over its properties.  An instance fails if it raised, hit its
   deadline, returned ``failed``, returned a chain that fails these
   checks, or returned different chains on different visits.

Every timed region (set-up, call, parse pass, verification) goes through
``clock.Clock``, which collects garbage first, times the region with a
collection of the garbage it leaves, and scales the time to a reference
host speed measured around it; the unscaled total is printed too.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  The
exit code is 0 when every instance verified, 1 when some did not, and 2
when the run could not be made at all (no ``src/chainforge``, bad
arguments, an inconsistency in the benchmark itself).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import metrics
import tracing
from clock import Clock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("ladder", "multi", "clusters")

SETUP_REPEATS = 7
#: Visits an instance's time is taken from: about as many passes as take
#: 25 s on the 2.1 GHz x86 host the benchmark was written on.
VISITS = {"ladder": 2, "multi": 4, "clusters": 3}
PARSE_PASSES = 3
INSTANCE_LIMIT_S = 30.0


class BenchError(Exception):
    """The benchmark itself cannot run or found an inconsistency that is
    not the program's output being wrong."""


@dataclass
class Modules:
    package: object
    dsl: object
    engine: object
    reachgraph: object
    bmc: object
    optimizer: object
    oracle: object
    sat: object
    model: object


@dataclass
class Parsed:
    model: object
    props: list
    init: object
    final: object
    k_max: int


@dataclass
class Record:
    """Everything measured for one instance."""
    times: list[float] = field(default_factory=list)  # scaled, untraced calls
    raw: list[float] = field(default_factory=list)    # wall clock, untraced calls
    traced_calls: int = 0
    traced_best: float = math.inf                     # scaled, fastest of the first
    spans: list[dict] = field(default_factory=list)   # VISITS traced calls, its spans
    results: dict = field(default_factory=dict)       # signature -> first result
    error: Optional[str] = None


def import_chainforge() -> None:
    if not (SRC / "chainforge" / "__init__.py").is_file():
        raise BenchError(f"no chainforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainforge
    if Path(chainforge.__file__).resolve().parent != (SRC / "chainforge").resolve():
        raise BenchError(f"imported chainforge from {chainforge.__file__}, not {SRC}")


def fresh_modules() -> Modules:
    for name in [n for n in sys.modules if n == "chainforge" or n.startswith("chainforge.")]:
        del sys.modules[name]
    package = importlib.import_module("chainforge")
    return Modules(package, *(importlib.import_module(f"chainforge.{m}") for m in
                              ("dsl", "engine", "reachgraph", "bmc", "optimizer",
                               "oracle", "sat", "model")))


def parse_instance(dsl, inst) -> Parsed:
    model, diags = dsl.parse_model(inst.model, inst.name)
    errors = [d for d in diags if d.severity == "error"]
    props = None
    if model is not None:
        props, more = dsl.parse_properties(inst.props, model, inst.name)
        init, d1 = dsl.parse_state_set(inst.init, model)
        final, d2 = dsl.parse_state_set(inst.final, model)
        errors += [d for d in more + d1 + d2 if d.severity == "error"]
    if model is None or errors:
        raise BenchError(f"{inst.name} does not parse: {'; '.join(map(str, errors))}")
    return Parsed(model, props, init, final, inst.k_max)


def setup(instances) -> tuple[Modules, list[Parsed]]:
    mods = fresh_modules()
    return mods, [parse_instance(mods.dsl, inst) for inst in instances]


def signature(res) -> tuple:
    return res.status, tuple(tuple(tuple(sorted(iv.items())) for iv in c.inputs)
                             for c in res.chains)


def run_instance(clk: Clock, mods: Modules, p: Parsed, rec: Record,
                 tracer: Optional[tracing.Tracer] = None
                 ) -> Optional[tuple[float, float, list[dict]]]:
    """One generate_chain call.  Returns its raw time, its scaled time and
    the spans it recorded, or None if it raised."""
    deadline = time.monotonic() + INSTANCE_LIMIT_S
    solvers = []

    def factory():
        s = mods.sat.Solver(deadline=deadline)
        if tracer is not None:
            tracing.traced_solver(tracer, s)
        solvers.append(s)
        return s

    cfg = mods.engine.EngineConfig(k_max=p.k_max, deadline=deadline, solver_factory=factory)
    first = len(tracer.spans) if tracer is not None else 0
    try:
        res, raw, scaled = clk.time(
            lambda: mods.engine.generate_chain(p.model, p.props, p.init, p.final, cfg))
    except Exception:
        rec.error = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.take(first)
        return None
    rec.results.setdefault(signature(res), res)
    if tracer is None:
        return raw, scaled, []
    tracer.spans[first].update(vars=solvers[0].nvars, clauses=len(solvers[0].clauses))
    tracer.scale(first, scaled / raw)
    return raw, scaled, tracer.take(first)


def run_window(n: int, seconds: float, min_passes: int, rng: random.Random, visit) -> int:
    """Visit instances round-robin until `seconds` have passed and
    `min_passes` whole passes are done, or a whole pass made no call;
    returns the number of whole passes."""
    t_end = time.perf_counter() + seconds
    passes = 0
    while True:
        order = list(range(n))
        rng.shuffle(order)
        called = False
        for i in order:
            if passes >= min_passes and time.perf_counter() >= t_end:
                return passes
            called |= visit(i, passes)
        passes += 1
        if not called:
            return passes


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    chains: int = 0
    length: int = 0
    optimum: int = 0
    certified_long: int = 0


def verify(mods: Modules, p: Parsed, res) -> Verdict:
    if res.status == mods.engine.FAILED:
        return Verdict(False, f"status failed: {res.reason}")
    v = Verdict(True, chains=len(res.chains))
    covered: set[str] = set()
    for k, chain in enumerate(res.chains):
        mine = [q for q in p.props if q.name in chain.covers]
        rep = mods.model.replay(p.model, mine, p.final, chain.inputs)
        if not rep.ok or [dict(s) for s in rep.trace] != [dict(s) for s in chain.trace]:
            return Verdict(False, f"chain {k} fails replay: uncovered {rep.uncovered}, "
                                  f"violations {rep.violations}, final {rep.final_ok}")
        opt = mods.oracle.oracle_min_chain(p.model, mine, p.init, p.final)
        if opt is None or chain.length < opt:
            raise BenchError(f"chain {k} replays but the oracle optimum is {opt} "
                             f"against its length {chain.length}")
        v.length += chain.length
        v.optimum += opt
        if res.status == mods.engine.MINIMAL and chain.length > opt:
            v.certified_long += 1
        covered.update(q.name for q in mine)
    missing = sorted({q.name for q in p.props} - covered)
    if missing:
        return Verdict(False, f"no chain covers {missing}")
    return v


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="orders the visits")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workload-seed", type=int, default=None,
                    help="draws the instance set (default: the workload seed, "
                         "the held-out seed is 2)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        import_chainforge()
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    import workloads  # imports chainforge, so only once its path is set

    wseed = workloads.WORKLOAD_SEED if args.workload_seed is None else args.workload_seed
    try:
        return measure(args, workloads.generate(args.workload, wseed), wseed)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


def measure(args, instances, wseed: int) -> int:
    n = len(instances)
    if metrics.tail_percentile(n) != 75:
        raise BenchError(f"{n} instances do not leave 10 samples beyond p75")

    visits = VISITS[args.workload]
    clk = Clock()
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        (mods, parsed), raw, scaled = clk.time(lambda: setup(instances))
        setup_times.append(scaled)
        setup_raw.append(raw)

    records = [Record() for _ in range(n)]
    tracer = tracing.Tracer() if args.trace else None
    targets = tracing.layer_targets(mods) if tracer else None

    def call(i: int, traced: bool) -> None:
        rec = records[i]
        if not traced:
            t = run_instance(clk, mods, parsed[i], rec)
            if t is not None:
                rec.raw.append(t[0])
                rec.times.append(t[1])
            return
        tracer.instance, tracer.phase = i, "generate"
        with tracer.patched(targets):
            t = run_instance(clk, mods, parsed[i], rec, tracer)
        if t is not None and rec.traced_calls < visits and t[1] < rec.traced_best:
            rec.traced_best, rec.spans = t[1], t[2]
        rec.traced_calls += 1

    def visit(i: int, pass_no: int) -> bool:
        if records[i].error is not None:
            return False
        modes = (False,) if tracer is None else (True, False) if pass_no % 2 else (False, True)
        for traced in modes:
            call(i, traced)
        return True

    passes = run_window(n, args.seconds, visits, random.Random(f"order-{args.seed}"), visit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    kept: list[dict] = []  # the spans the per-layer figures come from
    if tracer is not None:
        best_parse = math.inf
        for _ in range(PARSE_PASSES):
            tracer.instance, tracer.phase = None, "parse"
            with tracer.patched(targets):
                _, raw, scaled = clk.time(
                    lambda: [parse_instance(mods.dsl, inst) for inst in instances])
            tracer.scale(0, scaled / raw)
            spans = tracer.take(0)
            if scaled < best_parse:
                best_parse, parse_spans = scaled, spans
        kept += parse_spans

    failures: dict[int, str] = {}
    totals = Verdict(True)
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures[i] = rec.error.strip().splitlines()[-1]
            continue
        if len(rec.results) > 1:
            failures[i] = f"{len(rec.results)} different results on different visits"
            continue
        res = next(iter(rec.results.values()))
        if tracer is None:
            v = verify(mods, parsed[i], res)
        else:
            tracer.instance, tracer.phase = i, "verify"
            with tracer.patched(targets):
                v, raw, scaled = clk.time(lambda: verify(mods, parsed[i], res))
            tracer.scale(0, scaled / raw)
            kept += tracer.take(0)
        if not v.ok:
            failures[i] = v.message
            continue
        kept += rec.spans
        totals.chains += v.chains
        totals.length += v.length
        totals.optimum += v.optimum
        totals.certified_long += v.certified_long

    ok = [i for i in range(n) if i not in failures]
    best = [min(records[i].times[:visits]) for i in ok]
    found = {
        "setup_s": statistics.median(setup_times),
        **(metrics.latency_metrics(best) if best else {}),
        "len_ratio": metrics.ratio(totals.length, totals.optimum),
        "chains": totals.chains,
        "peak_rss_mb": peak_rss_mb,
        "len_over_opt": totals.length - totals.optimum,
        "cert_unsound": totals.certified_long,
    }
    if tracer is not None and ok:
        found.update(metrics.layer_metrics(kept))
        found["trace.overhead_s"] = sum(records[i].traced_best for i in ok) - sum(best)
        tracer.spans = kept
        tracer.write_jsonl(OUT / f"spans-{args.workload}-w{wseed}-s{args.seed}.jsonl")

    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    units = {**metrics.END_TO_END, **metrics.PER_LAYER}
    print(f"# {args.workload}: {n} instances from workload seed {wseed}, run seed "
          f"{args.seed}, {passes} whole passes; each instance's time is the best "
          f"of its first {visits} visits")
    print(f"# inst_p75_s is the nearest-rank p75 of {len(best)} per-instance times "
          f"({len(best) - math.ceil(0.75 * len(best))} beyond it)")
    print(f"# failed_frac {len(failures) / n} ({len(failures)} of {n})")
    if best:
        print(f"# unscaled wall clock: setup_s {statistics.median(setup_raw)}, wall_s "
              f"{sum(min(records[i].raw[:visits]) for i in ok)}")
    for i, why in sorted(failures.items()):
        print(f"# FAILED {instances[i].name}: {why}")
    for name, value in found.items():
        print(f"{name} {value} {units[name]}")
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": {k: {"value": found[k], "unit": u}
                          for k, u in wanted.items() if k in found}}
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
