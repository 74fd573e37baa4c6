"""In-memory spans around chainforge's public entry points.

The benchmark records spans from its own files: it wraps the public
function of each layer (and every module binding that imported it by
name) for the length of a traced run, then restores the originals.  Each
span records its name, start, end, parent span, instance id and phase
(generate, parse or verify), plus a few counters read from the call's
arguments and result.  Span ids are unique for the life of a tracer, so
spans can be taken out of it (`take`) and written out together later.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.instance: Optional[int] = None
        self.phase: Optional[str] = None

    def open(self, name: str) -> dict:
        rec = {"id": next(self._ids), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "instance": self.instance, "phase": self.phase,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def take(self, first: int) -> list[dict]:
        """Remove and return the spans from index `first` on."""
        out = self.spans[first:]
        del self.spans[first:]
        return out

    def scale(self, first: int, factor: float) -> None:
        """Mark spans from index `first` on with the factor that converts
        their durations to the reference host speed (see clock.py)."""
        for rec in self.spans[first:]:
            rec["scale"] = factor

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable[[tuple, dict, object], dict]] = None) -> Callable:
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if attrs is not None:
                rec.update(attrs(args, kwargs, out))
            return out
        return traced

    @contextmanager
    def patched(self, targets: list[tuple[str, list[tuple[object, str]], Optional[Callable]]]
                ) -> Iterator[None]:
        """Replace each (span name, [(module, attribute), ...], attrs)
        binding with one traced wrapper.  The first binding is the
        defining module and must exist; later bindings (modules that
        imported the name) are patched only while they still refer to the
        same function."""
        saved: list[tuple[object, str, object]] = []
        try:
            for name, bindings, attrs in targets:
                home, attr = bindings[0]
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, attrs)
                for mod, a in bindings:
                    if getattr(mod, a, None) is original:
                        saved.append((mod, a, original))
                        setattr(mod, a, wrapper)
            yield
        finally:
            for mod, a, original in reversed(saved):
                setattr(mod, a, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (children are clipped to the parent and overlaps counted
    once)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], reach), min(c["end"], hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def layer_targets(cf) -> list[tuple[str, list[tuple[object, str]], Optional[Callable]]]:
    """The public entry point of each layer, with every binding the
    engine and reachgraph modules imported by name."""
    def horizon(args, kwargs):
        return {"horizon": args[0].horizon}

    return [
        ("dsl.parse", [(cf.dsl, "parse_model")], None),
        ("dsl.parse", [(cf.dsl, "parse_properties")], None),
        ("dsl.parse", [(cf.dsl, "parse_state_set")], None),
        ("engine.generate", [(cf.engine, "generate_chain"), (cf.package, "generate_chain")],
         lambda a, k, out: {"stats": {key: getattr(out.stats, key) for key in ENGINE_COUNTERS}}),
        ("reachgraph.build", [(cf.reachgraph, "build_reach_graph"),
                              (cf.engine, "build_reach_graph")],
         lambda a, k, out: {"exhaust": bool(k.get("exhaust", False)),
                            "k_stop": out.graph.k_stop}),
        ("reachgraph.closure", [(cf.reachgraph, "transitive_closure"),
                                (cf.engine, "transitive_closure")], None),
        ("bmc.kreach", [(cf.bmc, "get_kreach_edges"), (cf.reachgraph, "get_kreach_edges")],
         lambda a, k, out: {"pairs": len(a[1]), "found": len(out), **horizon(a, k)}),
        ("bmc.check_path", [(cf.bmc, "check_path"), (cf.engine, "check_path")],
         lambda a, k, out: {"feasible": out.feasible, **horizon(a, k)}),
        ("optimizer.atsp", [(cf.optimizer, "solve_atsp"), (cf.engine, "solve_atsp")],
         lambda a, k, out: {"backend": out[1]}),
        ("oracle.min_chain", [(cf.oracle, "oracle_min_chain"),
                              (cf.package, "oracle_min_chain")], None),
    ]


ENGINE_COUNTERS = ("solver_calls", "repair_increments", "refinement_splits", "partitions")


def traced_solver(tracer: Tracer, solver):
    """Route one solver instance's `solve` through a span that records
    the result status and the conflicts spent."""
    inner = solver.solve

    def solve(assumptions=()):
        before = solver.stats_conflicts
        rec = tracer.open("sat.solve")
        try:
            out = inner(assumptions)
        finally:
            tracer.close(rec)
        rec["status"] = out.status
        rec["conflicts"] = solver.stats_conflicts - before
        return out

    solver.solve = solve
    return solver
