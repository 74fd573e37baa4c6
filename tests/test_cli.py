import json
import subprocess
import sys
from pathlib import Path

import pytest

from chainforge.cli import main

BENCHES = Path(__file__).parent.parent / "benches"
CRUISE = BENCHES / "cruise1"
FINAL = "mode == OFF && speed == 0 && !enable"


def run_cli(*args):
    return main(list(args))


def test_generate_cruise_text(capsys):
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--init", FINAL, "--final", FINAL)
    out = capsys.readouterr().out
    assert code == 0
    assert "tcs=1 len=9" in out
    assert "covers p4" in out


def test_generate_defaults_init_from_model(capsys):
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"))
    assert code == 0
    assert "tcs=1 len=9" in capsys.readouterr().out


def test_generate_json_and_replay_round_trip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--format", "json", "--output", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["summary"] == {"tcs": 1, "len": 9, "status": "minimal-certified"}
    assert data["stats"]["joined_chains"] == 1
    assert len(data["chains"][0]["inputs"]) == 9
    assert data["chains"][0]["covers"].keys() == {"p1", "p2", "p3", "p4"}
    capsys.readouterr()
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--replay", str(out_file))
    assert code == 0
    assert "replay ok" in capsys.readouterr().out


def test_external_backend_reports_uncounted_search_as_null(tmp_path, monkeypatch):
    """The external process reports no conflicts or decisions, so the
    report says null (not counted) rather than 0; the solver calls are
    counted."""
    stub = Path(__file__).parent / "external_stub.py"
    monkeypatch.setenv("CHAINFORGE_SOLVER", f"external:{sys.executable} {stub}")
    out = tmp_path / "report.json"
    assert run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--format", "json", "--output", str(out)) == 0
    stats = json.loads(out.read_text())["stats"]
    assert stats["solver_conflicts"] is None
    assert stats["solver_decisions"] is None
    assert stats["solver_calls"] > 0
    assert '"solver_conflicts": null' in out.read_text()


def test_generate_json_deterministic(tmp_path):
    outs = []
    for i in range(2):
        f = tmp_path / f"r{i}.json"
        assert run_cli("generate", str(CRUISE / "model.rsys"),
                       str(CRUISE / "props.props"), "--final", FINAL,
                       "--format", "json", "--output", str(f)) == 0
        data = json.loads(f.read_text())
        del data["stats"]["wall_time_s"]
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_generate_unsatisfiable_final_exits_2(capsys):
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", "mode == ON && speed == 0")
    assert code == 2
    out = capsys.readouterr().out
    assert "unreachable" in out or "no chain" in out


def test_generate_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.rsys"
    bad.write_text("model m { state x : 5..2 init 5; }")
    code = run_cli("generate", str(bad), str(CRUISE / "props.props"))
    assert code == 3
    assert "empty domain" in capsys.readouterr().err


def test_generate_non_ascii_digit_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.rsys"
    bad.write_text("model m { state x: 0..3 init 0; invariant x <= \u00b2; }", encoding="utf-8")
    code = run_cli("generate", str(bad), str(CRUISE / "props.props"))
    assert code == 3
    assert "unexpected character" in capsys.readouterr().err


def test_generate_missing_model_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.rsys"
    code = run_cli("generate", str(missing), str(CRUISE / "props.props"))
    assert code == 3
    assert f"error: cannot read {missing}: " in capsys.readouterr().err


def test_generate_undecodable_model_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.rsys"
    bad.write_bytes(b"model m { state x: 0..3 init 0; }\xff")
    code = run_cli("generate", str(bad), str(CRUISE / "props.props"))
    assert code == 3
    assert f"error: cannot read {bad}: " in capsys.readouterr().err


def test_generate_deeply_nested_model_exits_3(tmp_path, capsys):
    deep = tmp_path / "deep.rsys"
    chain = " && ".join(["b"] * 1000)
    deep.write_text(f"model m {{ state b: bool init true; invariant {chain}; }}")
    props = tmp_path / "p.props"
    props.write_text("property p { assume b; assert true; }")
    code = run_cli("generate", str(deep), str(props))
    assert code == 3
    assert capsys.readouterr().err == f"{deep}:1:1: error: expression nests too deeply\n"


def test_replay_malformed_report_exits_3(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text('{"chains": [')
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--replay", str(bad))
    assert code == 3
    assert f"error: cannot read {bad}: " in capsys.readouterr().err


_STATE = {"mode": "OFF", "speed": 0, "enable": False}


@pytest.mark.parametrize("report,reason", [
    ([], "expected an object whose 'chains' is a list of objects"),
    (None, "expected an object whose 'chains' is a list of objects"),
    ({"chains": 5}, "expected an object whose 'chains' is a list of objects"),
    ({"chains": [{}]}, "chain 1: 'trace' is not a non-empty list of states"),
    ({"chains": [{"trace": [], "inputs": []}]},
     "chain 1: 'trace' is not a non-empty list of states"),
    ({"chains": [{"trace": [{**_STATE, "speed": "fast"}], "inputs": []}]},
     "chain 1: 'trace' is not a non-empty list of states"),
    ({"chains": [{"trace": [_STATE, _STATE], "inputs": [{"gas": True}]}]},
     "chain 1: 'inputs' is not a list of input vectors"),
], ids=["list", "null", "chains-not-a-list", "chain-without-trace", "empty-trace",
        "state-value-outside-domain", "input-vector-missing-names"])
def test_replay_report_of_the_wrong_shape_exits_3(tmp_path, capsys, report, reason):
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(report))
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--replay", str(bad))
    assert code == 3
    assert capsys.readouterr().err == f"error: malformed report {bad}: {reason}\n"


def test_generate_dot_output(tmp_path):
    f = tmp_path / "g.dot"
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--format", "dot", "--output", str(f))
    assert code == 0
    golden = Path(__file__).parent / "golden" / "cruise_graph.dot"
    assert f.read_text() == golden.read_text()


def test_cli_entry_point_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "chainforge.cli", "generate",
         str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
         "--final", FINAL],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert "tcs=1 len=9" in res.stdout


def test_bench_suite(capsys):
    code = run_cli("bench", str(BENCHES))
    out = capsys.readouterr().out
    assert code == 0, out
    assert "cruise1" in out
    for line in out.splitlines():
        if line.startswith("cruise"):
            assert line.rstrip().endswith("ok")


def test_generate_timeout_exits_4(capsys):
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--timeout", "0.000001")
    assert code == 4
    assert "aborted" in capsys.readouterr().err


def test_bench_empty_suite(tmp_path, capsys):
    code = run_cli("bench", str(tmp_path))
    assert code == 0


def test_bench_missing_suite_exits_3(tmp_path, capsys):
    missing = tmp_path / "no-suite"
    code = run_cli("bench", str(missing))
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: cannot read {missing}: No such file or directory\n"


@pytest.mark.parametrize("text, message", [
    ("{", "error: cannot read {}: Expecting property name"),
    ("[1, 2]", "error: malformed {}: expected a JSON object"),
    ('{"k_max": "7"}',
     "error: malformed {}: field 'k_max' must be a non-negative integer, not \"7\""),
    ('{"k_max": -1}', "field 'k_max' must be a non-negative integer, not -1"),
    ('{"baseline_budget": true}',
     "field 'baseline_budget' must be a non-negative integer, not true"),
    ('{"init": 3}', "error: malformed {}: field 'init' must be a string, not 3"),
    ('{"final": null}', "field 'final' must be a string, not null"),
    ('{"tcs": "1"}', "field 'tcs' must be an integer, not \"1\""),
    ('{"len_max": 9.5}', "field 'len_max' must be an integer, not 9.5"),
])
def test_bench_reports_a_bad_expected_json(tmp_path, capsys, text, message):
    """An unreadable or non-object expected.json, or one with a field of
    the wrong type, fails its own row; the other benchmarks still run."""
    import shutil
    suite = tmp_path / "suite"
    shutil.copytree(CRUISE, suite / "cruise1")
    d = suite / "cruise_badexp"
    d.mkdir()
    for f in ("model.rsys", "props.props"):
        shutil.copy(CRUISE / f, d / f)
    (d / "expected.json").write_text(text)
    code = run_cli("bench", str(suite))
    captured = capsys.readouterr()
    assert code == 2
    assert message.format(d / "expected.json") in captured.err
    rows = {l.split()[0]: l.rstrip() for l in captured.out.splitlines()[1:]}
    assert rows["cruise_badexp"].endswith("bad expected.json")
    assert rows["cruise1"].endswith("ok")


def test_generate_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "no-dir" / "report.json"
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, "--format", "json", "--output", str(out))
    assert code == 3
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("flag, value", [("--k-max", "-3"), ("--timeout", "-1"),
                                         ("--timeout", "nan")])
def test_generate_rejects_a_negative_bound_or_timeout(capsys, flag, value):
    code = run_cli("generate", str(CRUISE / "model.rsys"), str(CRUISE / "props.props"),
                   "--final", FINAL, flag, value)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {flag} must be >= 0")
    assert captured.out == ""


def test_bench_flags_regression(tmp_path, capsys):
    import shutil
    d = tmp_path / "suite" / "cruise_bad"
    d.mkdir(parents=True)
    for f in ("model.rsys", "props.props"):
        shutil.copy(CRUISE / f, d / f)
    exp = json.loads((CRUISE / "expected.json").read_text())
    exp["len"] = 7                      # impossible: below the true optimum
    (d / "expected.json").write_text(json.dumps(exp))
    code = run_cli("bench", str(tmp_path / "suite"))
    out = capsys.readouterr().out
    assert code == 2
    assert "len!=7" in out


def test_bench_reports_unparsable_init(tmp_path, capsys):
    import shutil
    d = tmp_path / "suite" / "cruise_badinit"
    d.mkdir(parents=True)
    for f in ("model.rsys", "props.props"):
        shutil.copy(CRUISE / f, d / f)
    exp = json.loads((CRUISE / "expected.json").read_text())
    exp["init"] = "mode == NOPE"
    (d / "expected.json").write_text(json.dumps(exp))
    code = run_cli("bench", str(tmp_path / "suite"))
    captured = capsys.readouterr()
    assert code == 2
    assert "undeclared name 'NOPE'" in captured.err
    rows = [l for l in captured.out.splitlines() if l.startswith("cruise_badinit")]
    assert len(rows) == 1 and rows[0].rstrip().endswith("parse error")


@pytest.mark.parametrize("exp, code, oracle, verdict", [
    ({"init": "false"}, 2, "-", "no chain"),
    ({"init": FINAL, "k_max": 1}, 2, "9", "no chain"),
    ({"init": "false", "tcs": 0}, 0, "-", "ok"),
])
def test_bench_fails_a_row_without_a_chain(tmp_path, capsys, exp, code, oracle,
                                           verdict):
    """A failed generation fails its row unless expected.json pins no
    chain; without a start state the random column reads '-'."""
    import shutil
    d = tmp_path / "suite" / "cruise_nochain"
    d.mkdir(parents=True)
    for f in ("model.rsys", "props.props"):
        shutil.copy(CRUISE / f, d / f)
    (d / "expected.json").write_text(json.dumps(exp))
    assert run_cli("bench", str(tmp_path / "suite")) == code
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["cruise_nochain", "0", "0"]
    assert row[4] == oracle
    assert (row[5] == "-") == (exp["init"] == "false")
    assert " ".join(row[6:]) == verdict


def test_replay_starts_from_the_recorded_start_state(tmp_path, capsys):
    """A chain generated from a non-default --init replays from its own
    first state, which must lie in the start-state set."""
    start = "mode == OFF && speed == 1 && !enable"
    report = tmp_path / "report.json"
    files = (str(CRUISE / "model.rsys"), str(CRUISE / "props.props"))
    assert run_cli("generate", *files, "--init", start, "--final", FINAL,
                   "--format", "json", "--output", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["status"] == "minimal-certified" and data["summary"]["len"] == 8
    capsys.readouterr()
    code = run_cli("generate", *files, "--init", start, "--final", FINAL,
                   "--replay", str(report))
    assert code == 0
    assert "chain 1: replay ok" in capsys.readouterr().out
    # the default start set (the model's init) does not hold the chain's start
    code = run_cli("generate", *files, "--final", FINAL, "--replay", str(report))
    assert code == 2
    assert "chain 1: replay MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("edit,error", [
    (lambda c: c["inputs"][0].update(dict.fromkeys(c["inputs"][0], False)),
     "violates the input assumption"),
    (lambda c: c["trace"][0].update(mode="ON", speed=0, enable=False),
     "violates the state invariant"),
], ids=["all-false-inputs", "start-outside-invariant"])
def test_replay_of_a_chain_illegal_for_the_model_is_a_mismatch(tmp_path, capsys,
                                                                 edit, error):
    """A well-shaped chain that the model cannot run replays as a mismatch
    naming the model's complaint, not as a crash."""
    report = tmp_path / "report.json"
    files = (str(CRUISE / "model.rsys"), str(CRUISE / "props.props"))
    assert run_cli("generate", *files, "--final", FINAL, "--format", "json",
                   "--output", str(report)) == 0
    data = json.loads(report.read_text())
    edit(data["chains"][0])
    report.write_text(json.dumps(data))
    capsys.readouterr()
    code = run_cli("generate", *files, "--final", FINAL, "--replay", str(report))
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("chain 1: replay MISMATCH (") and error in out


HUB_MODEL = """model hub {
  state s : 0..4 init 0;
  input a : 0..1;
  trans { s' = s == 0 ? (a == 0 ? 1 : 3) : s == 1 ? 2 : s == 2 ? 1 : s == 3 ? 4 : 3; }
}
"""
HUB_PROPS = "".join(f"property p{v} {{ assume s == {v}; assert true; }}\n"
                    for v in range(1, 5))


def _hub_files(tmp_path):
    model, props = tmp_path / "hub.rsys", tmp_path / "hub.props"
    model.write_text(HUB_MODEL)
    props.write_text(HUB_PROPS)
    return str(model), str(props)


def test_replay_of_a_multi_chain_report_round_trips(tmp_path, capsys):
    """The hub enters one of two closed clusters, so each chain covers
    only its own cluster's properties: each replays ok, and together
    they cover every property."""
    files = _hub_files(tmp_path)
    report = tmp_path / "report.json"
    assert run_cli("generate", *files, "--final", "true", "--format", "json",
                   "--output", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["status"] == "multi-chain"
    assert [sorted(c["covers"]) for c in data["chains"]] == [["p1", "p2"], ["p3", "p4"]]
    capsys.readouterr()
    code = run_cli("generate", *files, "--final", "true", "--replay", str(report))
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out] == ["chain 1: replay ok",
                                                      "chain 2: replay ok"]


def test_replay_of_a_report_without_chains_is_a_mismatch(tmp_path, capsys):
    """No chain covers any property, so the replay names them all and
    fails."""
    files = _hub_files(tmp_path)
    report = tmp_path / "report.json"
    report.write_text('{"chains": []}')
    code = run_cli("generate", *files, "--final", "true", "--replay", str(report))
    assert code == 2
    assert capsys.readouterr().out == \
        "replay MISMATCH: no chain covers ['p1', 'p2', 'p3', 'p4']\n"


def test_generate_starts_from_a_declared_init_predicate(tmp_path, capsys):
    """A model whose `init` is a predicate, not one value per variable:
    without `--init` the run starts from the declared initial states, as
    with `--init "s <= 1"`, and its report replays."""
    model, props = tmp_path / "pred.rsys", tmp_path / "pred.props"
    model.write_text("model pred {\n  state s : 0..3;\n  input a : bool;\n  init s <= 1;\n"
                     "  trans { s' = a ? (s == 3 ? 0 : s + 1) : s; }\n}\n")
    props.write_text("property p3 { assume s == 3; assert true; }\n")
    reports = []
    for init in ([], ["--init", "s <= 1"]):
        out = tmp_path / f"report{len(reports)}.json"
        assert run_cli("generate", str(model), str(props), *init,
                       "--format", "json", "--output", str(out)) == 0
        data = json.loads(out.read_text())
        del data["stats"]["wall_time_s"]
        reports.append(data)
    assert reports[0] == reports[1]
    assert reports[0]["chains"][0]["trace"][0] == {"s": 1}
    capsys.readouterr()
    assert run_cli("generate", str(model), str(props), "--replay",
                   str(tmp_path / "report0.json")) == 0
    assert capsys.readouterr().out.startswith("chain 1: replay ok")
