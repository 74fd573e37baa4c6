import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(status, lengths, time_s=1.0):
    return {"status": status, "reason": "", "chains": [[{}] * n for n in lengths],
            "stats": {"repair_increments": 0}, "graph": None, "time_s": time_s,
            "repair_checks": 2, "oracle": {"min_chain": sum(lengths)}}


def test_identity_compare_counts_outcomes_and_ignores_process_time(tmp_path, capsys):
    """A status change, a change of process time only, a shorter chain and
    a record only in the first file: the compare exits 1, counts the
    status change and the shorter chain in their groups, and lists every
    record but the timing-only one."""
    tool = _load("identity_check")
    before = {"family12-0": _record("minimised", [5]),
              "family12-1": _record("minimal-certified", [3]),
              "family12-2": _record("failed", []),
              "scale-60s1": _record("minimised", [28]),
              "scale-60s2": _record("minimised", [31])}
    after = {"family12-0": _record("failed", []),
             "family12-1": _record("minimal-certified", [3], time_s=9.5),
             "family12-2": _record("failed", []),
             "scale-60s1": _record("minimised", [26])}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(before))
    b.write_text(json.dumps(after))
    assert tool.compare(a, b) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"scale-60s2: only in {a}" in out
    assert any(line.startswith("family12-0: ") and "status" in line for line in out)
    assert any(line.startswith("scale-60s1: chains") for line in out)
    assert not any(line.startswith("family12-1") for line in out)
    assert "3 of 5 instances differ" in out
    assert ("family12: 1 of 3 instances differ in outcome, 1 status changes, "
            "0 chains shorter by 0 steps, 0 longer by 0") in out
    assert ("scale: 1 of 1 instances differ in outcome, 0 status changes, "
            "1 chains shorter by 2 steps, 0 longer by 0") in out
    assert any(line.startswith(f"{b} family12: length 3,") and "6 repair checks" in line
               and line.endswith(", 11.5 s") for line in out)
    assert tool.compare(a, a) == 0


def test_bench_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    """A gain is B better in at least nine of ten pairs, ties for neither
    side, by more than A's interquartile range; worse is B's median past
    the bound; anything between is `-`.  A `higher` metric is mirrored."""
    verdict = _load("bench_pairs").verdict
    a = [1.50, 1.52, 1.48, 1.55, 1.51, 1.49, 1.53, 1.50, 1.54, 1.47]
    faster = [1.10, 1.12, 1.09, 1.15, 1.11, 1.08, 1.60, 1.10, 1.13, 1.12]
    assert verdict(a, faster, "lower", 0.25) == "gain"
    assert verdict(a, [x * 1.1 for x in a], "lower", 0.25) == "-"
    assert verdict(a, [x * 1.3 for x in a], "lower", 0.25) == "worse"
    assert verdict(faster, a, "higher", 0.25) == "gain"
    # a tie is no win: B is never worse, but wins six of ten, then nine
    flat = [1.0] * 10
    assert verdict(flat, [1.0] * 4 + [0.5] * 6, "lower", 0.02) == "-"
    assert verdict(flat, [1.0] + [0.5] * 9, "lower", 0.02) == "gain"
