"""Command-line front end: `chainforge generate` runs chain generation on
a model/properties pair, `chainforge bench` runs a benchmark suite and
compares against expected results.

Exit codes: 0 success, 2 no chain found (or a failed benchmark), 3
unreadable or unwritable file, parse/sort error or invalid option value,
4 timeout or solver resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .dsl import parse_model, parse_properties, parse_state_set
from .engine import EngineConfig, FAILED, ChainResult, generate_chain
from .model import (EvalError, Model, ModelError, SortError, TestChain, eval_expr,
                    replay)
from .oracle import OracleLimit, oracle_min_chain, random_baseline
from .sat import SolverLimit

EXIT_OK = 0
EXIT_NO_CHAIN = 2
EXIT_PARSE = 3
EXIT_TIMEOUT = 4


def _read(path: str, parse=str):
    """`parse` applied to the file's text, or None after reporting why
    the file cannot be read."""
    try:
        return parse(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        reason = ex.strerror if isinstance(ex, OSError) else ex
        print(f"error: cannot read {path}: {reason}", file=sys.stderr)
        return None


def _load_model(path: str):
    text = _read(path)
    if text is None:
        return None
    model, diags = parse_model(text, filename=path)
    for d in diags:
        print(str(d), file=sys.stderr)
    return model


def _load_props(path: str, model: Model):
    text = _read(path)
    if text is None:
        return None
    props, diags = parse_properties(text, model, filename=path)
    for d in diags:
        print(str(d), file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return None
    return props


def _parse_set(text: str, model: Model, what: str):
    expr, diags = parse_state_set(text, model, filename=f"<{what}>")
    for d in diags:
        print(str(d), file=sys.stderr)
    return expr


def _fmt_vec(vec: dict) -> str:
    return " ".join(f"{k}={_fmt_val(v)}" for k, v in vec.items())


def _fmt_val(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def _chain_json(chain: TestChain) -> dict:
    return {"length": chain.length,
            "inputs": [dict(i) for i in chain.inputs],
            "trace": [dict(s) for s in chain.trace],
            "covers": dict(sorted(chain.covers.items()))}


def _result_json(model: Model, result: ChainResult, cfg_args) -> dict:
    st = result.stats
    return {
        "model": model.name,
        "status": result.status,
        "reason": result.reason,
        "summary": {"tcs": len(result.chains),
                    "len": result.total_length,
                    "status": result.status},
        "chains": [_chain_json(c) for c in result.chains],
        "stats": {"k_reached": st.k_reached,
                  "solver_calls": st.solver_calls,
                  "solver_conflicts": st.solver_conflicts,
                  "solver_decisions": st.solver_decisions,
                  "repair_increments": st.repair_increments,
                  "refinement_splits": st.refinement_splits,
                  "partitions": st.partitions,
                  "joined_chains": st.joined_chains,
                  "backend": st.backend,
                  "abstract_path": st.abstract_path,
                  "wall_time_s": round(st.wall_time_s, 6)},
        "config": {"k_max": cfg_args.k_max,
                   "multi_chain": not cfg_args.single_chain},
    }


def _print_text(result: ChainResult, out) -> None:
    for ci, chain in enumerate(result.chains):
        print(f"chain {ci + 1}:", file=out)
        for k, iv in enumerate(chain.inputs):
            covered = [p for p, at in sorted(chain.covers.items()) if at == k]
            note = f"   covers {', '.join(covered)}" if covered else ""
            print(f"  step {k}: {_fmt_vec(iv)}  ->  {_fmt_vec(chain.trace[k + 1])}{note}",
                  file=out)
    st = result.stats
    print(f"tcs={len(result.chains)} len={result.total_length} "
          f"status={result.status} k={st.k_reached} "
          f"time={st.wall_time_s:.2f}s", file=out)
    if result.status == FAILED:
        print(f"failure: {result.reason}", file=out)


def cmd_generate(args) -> int:
    for flag, value in (("--k-max", args.k_max), ("--timeout", args.timeout)):
        if not value >= 0:
            print(f"error: {flag} must be >= 0, not {value}", file=sys.stderr)
            return EXIT_PARSE
    model = _load_model(args.model)
    if model is None:
        return EXIT_PARSE
    props = _load_props(args.props, model)
    if props is None:
        return EXIT_PARSE
    if args.init is None:
        init_expr = model.init_expr()
    else:
        init_expr = _parse_set(args.init, model, "init")
        if init_expr is None:
            return EXIT_PARSE
    if args.final is None:
        final_expr = init_expr
    else:
        final_expr = _parse_set(args.final, model, "final")
        if final_expr is None:
            return EXIT_PARSE

    if args.replay:
        return _do_replay(args, model, props, init_expr, final_expr)

    deadline = time.monotonic() + args.timeout if args.timeout else None
    cfg = EngineConfig(k_max=args.k_max, allow_partition=not args.single_chain,
                       exhaust_k=args.exhaust_k,
                       strengthen_invariant=args.strengthen_invariant,
                       deadline=deadline)
    try:
        result = generate_chain(model, props, init_expr, final_expr, cfg)
    except SolverLimit as ex:
        print(f"aborted: {ex}", file=sys.stderr)
        return EXIT_TIMEOUT
    except SortError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE

    try:
        out = open(args.output, "w") if args.output else sys.stdout
    except OSError as ex:
        print(f"error: cannot write {args.output}: {ex.strerror}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.format == "json":
            json.dump(_result_json(model, result, args), out, indent=2)
            out.write("\n")
        elif args.format == "dot":
            out.write(result.graph.to_dot() if result.graph else "digraph {}\n")
        else:
            _print_text(result, out)
    finally:
        if args.output:
            out.close()
    return EXIT_OK if result.chains else EXIT_NO_CHAIN


def _report_chains(data, model: Model) -> list:
    """The chains of a parsed report; raises ValueError naming the first
    part that a replay on `model` cannot read."""
    def vectors(vecs, decls) -> bool:
        return isinstance(vecs, list) and all(isinstance(v, dict) and all(
            n in v and d.contains(v[n]) for n, d in decls) for v in vecs)
    chains = data.get("chains") if isinstance(data, dict) else None
    if not isinstance(chains, list) or not all(isinstance(c, dict) for c in chains):
        raise ValueError("expected an object whose 'chains' is a list of objects")
    for ci, chain in enumerate(chains, 1):
        if not chain.get("trace") or not vectors(chain["trace"], model.state_vars):
            raise ValueError(f"chain {ci}: 'trace' is not a non-empty list of states")
        if not vectors(chain.get("inputs"), model.inputs):
            raise ValueError(f"chain {ci}: 'inputs' is not a list of input vectors")
    return chains


def _do_replay(args, model: Model, props, init_expr, final_expr) -> int:
    """Replay each chain of a report from its recorded start state, which
    must lie in the start-state set: the chain must reproduce its trace
    and the first-cover step of every property it records, violate no
    assertion and end in the final set.  Together the chains must cover
    every property."""
    try:
        chains = _read(args.replay, lambda text: _report_chains(json.loads(text), model))
    except ValueError as ex:
        print(f"error: malformed report {args.replay}: {ex}", file=sys.stderr)
        return EXIT_PARSE
    if chains is None:
        return EXIT_PARSE
    ok = True
    covered: set[str] = set()
    for ci, chain in enumerate(chains, 1):
        start = chain["trace"][0]
        try:
            report = replay(model, props, final_expr, chain["inputs"], start=start)
        except ModelError as ex:
            ok = False
            print(f"chain {ci}: replay MISMATCH ({ex})")
            continue
        claimed = chain.get("covers", {})
        same_covers = isinstance(claimed, dict) and all(
            report.covers.get(name) == at for name, at in claimed.items())
        same_trace = [dict(s) for s in report.trace] == chain["trace"]
        if same_covers:
            covered.update(claimed)
        good = (eval_expr(init_expr, start) and report.final_ok
                and not report.violations and same_trace and same_covers)
        ok = ok and good
        print(f"chain {ci}: replay {'ok' if good else 'MISMATCH'} "
              f"(covered {sorted(report.covers)}, final={'yes' if report.final_ok else 'no'})")
        for name, at in report.violations:
            print(f"  assertion of '{name}' violated at step {at}")
    uncovered = [p.name for p in props if p.name not in covered]
    if uncovered:
        ok = False
        print(f"replay MISMATCH: no chain covers {uncovered}")
    return EXIT_OK if ok else EXIT_NO_CHAIN


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


#: expected.json fields, each with its check and what it must be
_EXPECTED_FIELDS = (
    (("k_max", "baseline_budget"), lambda v: _is_int(v) and v >= 0,
     "a non-negative integer"),
    (("init", "final"), lambda v: isinstance(v, str), "a string"),
    (("tcs", "len", "len_max"), _is_int, "an integer"),
)


def _malformed_expected(exp) -> Optional[str]:
    """Why a parsed expected.json cannot be used, or None."""
    if not isinstance(exp, dict):
        return "expected a JSON object"
    for names, ok, what in _EXPECTED_FIELDS:
        for name in names:
            if name in exp and not ok(exp[name]):
                return f"field '{name}' must be {what}, not {json.dumps(exp[name])}"
    return None


def cmd_bench(args) -> int:
    suite = Path(args.suite)
    try:
        bench_dirs = sorted(p for p in suite.iterdir() if p.is_dir())
    except OSError as ex:
        print(f"error: cannot read {suite}: {ex.strerror}", file=sys.stderr)
        return EXIT_PARSE
    rows = []
    for bench_dir in bench_dirs:
        expected = bench_dir / "expected.json"
        model_file = bench_dir / "model.rsys"
        props_file = bench_dir / "props.props"
        if not (expected.exists() and model_file.exists() and props_file.exists()):
            continue
        failed = (bench_dir.name, "-", "-", "-", "-", "-")
        exp = _read(str(expected), json.loads)
        problem = None if exp is None else _malformed_expected(exp)
        if exp is None or problem:
            if problem:
                print(f"error: malformed {expected}: {problem}", file=sys.stderr)
            rows.append((*failed, "bad expected.json"))
            continue
        model = _load_model(str(model_file))
        props = _load_props(str(props_file), model) if model else None
        init_expr = final_expr = None
        if props is not None:
            init_expr = (_parse_set(exp["init"], model, "init")
                         if "init" in exp else model.init_expr())
            final_expr = (_parse_set(exp["final"], model, "final")
                          if "final" in exp else init_expr)
        if init_expr is None or final_expr is None:
            rows.append((*failed, "parse error"))
            continue
        cfg = EngineConfig(k_max=exp.get("k_max", 50))
        t0 = time.perf_counter()
        try:
            result = generate_chain(model, props, init_expr, final_expr, cfg)
        except SolverLimit:
            rows.append((*failed, "timeout"))
            continue
        dt = time.perf_counter() - t0
        tcs, ln = len(result.chains), result.total_length
        try:
            opt = oracle_min_chain(model, props, init_expr, final_expr)
        except OracleLimit:
            opt = None
        try:
            base = random_baseline(model, props, init_expr, final_expr,
                                   budget=exp.get("baseline_budget", 20000),
                                   seed=args.seed)
            random_col = f"{base.coverage * 100:.0f}%/{base.total_length}"
        except EvalError:   # no start state to walk from
            random_col = "-"
        verdict = "ok"
        if result.status == FAILED and exp.get("tcs") != 0:
            verdict = "no chain"
        elif "tcs" in exp and tcs != exp["tcs"]:
            verdict = f"tcs!={exp['tcs']}"
        elif "len" in exp and ln != exp["len"]:
            verdict = f"len!={exp['len']}"
        elif "len_max" in exp and ln > exp["len_max"]:
            verdict = f"len>{exp['len_max']}"
        elif opt is not None and result.chains and len(result.chains) == 1 and ln < opt:
            verdict = "below oracle optimum"  # impossible unless buggy
        rows.append((bench_dir.name, tcs, ln, f"{dt:.2f}",
                     opt if opt is not None else "-", random_col, verdict))
    header = ("benchmark", "tcs", "len", "time", "oracle", "random", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return EXIT_NO_CHAIN if any(r[-1] != "ok" for r in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chainforge",
                                 description="Covering test-chain generator "
                                             "for synchronous reactive models")
    ap.add_argument("--version", action="version", version=f"chainforge {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    gen = sub.add_parser("generate", help="generate a covering test chain")
    gen.add_argument("model", help=".rsys model file")
    gen.add_argument("props", help=".props property file")
    gen.add_argument("--init", help="start-state predicate (default: the model's init)")
    gen.add_argument("--final", help="final-state predicate (default: same as --init)")
    gen.add_argument("--k-max", type=int, default=50, help="reachability bound")
    gen.add_argument("--single-chain", action="store_true",
                     help="fail instead of splitting into multiple chains")
    gen.add_argument("--format", choices=("text", "json", "dot"), default="text")
    gen.add_argument("--timeout", type=float, default=0.0,
                     help="wall-clock limit in seconds (0 = none)")
    gen.add_argument("--output", help="write the report to a file")
    gen.add_argument("--exhaust-k", action="store_true",
                     help="resolve every pair weight up to k-max, or until "
                          "proved unreachable")
    gen.add_argument("--strengthen-invariant", action="store_true",
                     help="conjoin the exact reachable set (small models)")
    gen.add_argument("--replay", metavar="JSON",
                     help="replay chains from an emitted JSON report")
    gen.set_defaults(fn=cmd_generate)

    bench = sub.add_parser("bench", help="run a benchmark suite directory")
    bench.add_argument("suite", help="directory of benchmark subdirectories")
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
