#!/usr/bin/env python3
"""Parse check: feed the parser seeded token mutants of real inputs and
record everything a change that must not alter parsing leaves unchanged.

    python3 tools/parse_check.py > after.json
    python3 tools/parse_check.py --root OTHER_CHECKOUT > before.json
    python3 tools/parse_check.py --compare before.json after.json

The inputs are five texts: the `benches/cruise1` model, its properties
and its final-state set, and the model and properties of the first
`ladder` instance of workload seed 1 (from the checkout's own
`perfbench/workloads.py`).  Each text gets MUTANTS / 5 mutants, each
one or two token edits (delete, insert, replace, or swap with the next
token) drawn from a fixed seed, so both checkouts parse the same texts.
Properties and state sets are parsed against their unmutated model.

Per mutant the JSON holds the edits, the diagnostics as (severity,
message, line, col, end line, end col), and, when there is no error,
the pretty-printed result (`format_model`, `format_properties` or
`format_expr`); a crash is recorded as its exception.  `--compare`
lists the mutants whose records differ and exits 1 if any do, then
counts per file the mutants accepted, rejected and crashed and the
distinct diagnostic messages.
This is a tool, not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

MUTANTS = 6000
SEED = 0

#: Pieces of a text: blanks and comments are kept as they are, every
#: other piece is a token that an edit may touch.
PIECE = re.compile(r"\s+|//[^\n]*|[A-Za-z_]\w*|\d+|==|!=|<=|&&|\|\||=>|\.\.|.", re.S)
BLANK = re.compile(r"\s|//")

#: Tokens an edit may insert, besides those of the text itself; '²' (a
#: digit that is no letter) and 'é' (a letter) probe which characters
#: may start or continue an identifier.
EXTRA = ["==", "!=", "<=", "&&", "||", "=>", "..", "{", "}", "(", ")", ":", ";",
         ",", "?", "'", "=", "<", "!", "+", "-", "true", "false", "next", "bool",
         "model", "state", "input", "assume", "assert", "invariant", "init",
         "trans", "property", "0", "1", "7", "zz", "@", "²", "é"]


def sources(root: Path, workloads) -> list[tuple[str, str, str, str]]:
    """(name, kind, text, model text) for each mutated input."""
    bench = root / "benches" / "cruise1"
    cruise = (bench / "model.rsys").read_text()
    final = json.loads((bench / "expected.json").read_text())["final"]
    ladder = workloads.generate("ladder", 1)[0]
    return [("cruise1-model", "model", cruise, cruise),
            ("cruise1-props", "props", (bench / "props.props").read_text(), cruise),
            ("cruise1-final", "set", final, cruise),
            ("ladder-model", "model", ladder.model, ladder.model),
            ("ladder-props", "props", ladder.props, ladder.model)]


def mutate(rng: random.Random, text: str) -> tuple[str, list[str]]:
    """The text after one or two token edits, and the edits."""
    pieces = PIECE.findall(text)
    vocab = sorted(set(p for p in pieces if not BLANK.match(p)) | set(EXTRA))
    ops = []
    for _ in range(rng.choice((1, 2))):
        toks = [i for i, p in enumerate(pieces) if p and not BLANK.match(p)]
        k = rng.randrange(len(toks))
        i = toks[k]
        op = rng.choice(("delete", "insert", "replace", "swap"))
        if op == "delete" or (op == "swap" and k + 1 == len(toks)):
            ops.append(f"delete {i} {pieces[i]!r}")
            pieces[i] = ""
        elif op == "swap":
            j = toks[k + 1]
            ops.append(f"swap {i} {pieces[i]!r} {pieces[j]!r}")
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            tok = rng.choice(vocab)
            ops.append(f"{op} {i} {tok!r}")
            pieces[i] = tok + " " + pieces[i] if op == "insert" else tok
    return "".join(pieces), ops


def parse_record(dsl, kind: str, text: str, model) -> dict:
    """Diagnostics and, without errors, the pretty-printed result."""
    try:
        if kind == "model":
            result, diags = dsl.parse_model(text, "<mutant>")
            fmt = dsl.format_model
        elif kind == "props":
            result, diags = dsl.parse_properties(text, model, "<mutant>")
            fmt = dsl.format_properties
        else:
            result, diags = dsl.parse_state_set(text, model, "<mutant>")
            fmt = dsl.format_expr
    except Exception as ex:  # a crash is a difference like any other
        return {"crash": f"{type(ex).__name__}: {ex}"}
    ok = not any(d.severity == "error" for d in diags)
    return {"diags": [[d.severity, d.message, d.span.line, d.span.col,
                       d.span.end_line, d.span.end_col] for d in diags],
            "out": fmt(result) if ok else None}


def run(root: Path) -> dict:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from chainforge import dsl
    import workloads
    rng = random.Random(SEED)
    out = {}
    srcs = sources(root, workloads)
    for name, kind, text, model_text in srcs:
        model, _ = dsl.parse_model(model_text)
        for i in range(MUTANTS // len(srcs)):
            mutant, ops = mutate(rng, text)
            out[f"{name}-{i:04d}"] = {"edits": ops,
                                      **parse_record(dsl, kind, mutant, model)}
    return out


def tally(path: Path, runs: dict) -> str:
    """Accepted, rejected and crashed mutants and distinct messages."""
    crashed = sum("crash" in r for r in runs.values())
    accepted = sum(r.get("out") is not None for r in runs.values())
    messages = {d[1] for r in runs.values() for d in r.get("diags", [])}
    return (f"{path}: {accepted} accepted, {len(runs) - accepted - crashed} rejected, "
            f"{crashed} crashed, {len(messages)} distinct messages")


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    bad = 0
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            ra, rb = a.get(name, {}), b.get(name, {})
            print(f"{name}: {ra.get('edits') or rb.get('edits')}: "
                  f"{ra.get('crash') or ra.get('diags')} -> "
                  f"{rb.get('crash') or rb.get('diags')}")
            bad += 1
    print(f"{bad} of {len(set(a) | set(b))} mutants differ")
    for path, runs in ((path_a, a), (path_b, b)):
        print(tally(path, runs))
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
