from pathlib import Path

import pytest

from chainforge import dsl, model
from chainforge.dsl import (format_expr, format_model, format_properties,
                            parse_model, parse_properties, parse_state_set)

BENCHES = Path(__file__).parent.parent / "benches"


def test_parse_cruise_shape(cruise_model):
    assert len(cruise_model.state_vars) == 3
    assert len(cruise_model.inputs) == 5
    assert {n for n, _ in cruise_model.inputs} == \
        {"gas", "brake", "button", "acc", "dec"}
    assert dict(cruise_model.init_values) == \
        {"mode": "OFF", "speed": 0, "enable": False}


def test_parse_minimal_model():
    m, diags = parse_model(
        "model m { state x: bool init false; input i: bool; trans { x' = i; } }")
    assert m is not None and not diags
    assert len(m.state_vars) == 1 and len(m.inputs) == 1
    assert m.transition[0][0] == "x"


def test_empty_int_domain_is_an_error():
    m, diags = parse_model("model m { state x : 5..2 init 5; }")
    assert m is None
    assert any("empty domain" in d.message for d in diags)


def test_duplicate_names_rejected():
    m, diags = parse_model("model m { state x: bool init false; input x: bool; }")
    assert m is None and diags


def test_undeclared_name_rejected():
    m, diags = parse_model(
        "model m { state x: bool init false; trans { x' = y; } }")
    assert m is None
    assert any("undeclared" in d.message for d in diags)


def test_enum_constant_resolution_and_clash():
    m, diags = parse_model(
        "model m { state a: {P, Q} init P; state b: {P, R} init R; }")
    assert m is None
    assert any("clashes" in d.message for d in diags)


def test_diagnostics_carry_spans():
    text = "model m {\n  state x : 5..2 init 5;\n}"
    _, diags = parse_model(text, filename="f.rsys")
    d = diags[0]
    assert d.span.file == "f.rsys"
    assert d.span.line == 2
    lines = text.splitlines()
    assert 1 <= d.span.col <= len(lines[d.span.line - 1])


def test_unsatisfiable_init_rejected():
    m, diags = parse_model(
        "model m { state x: 0..3 init 0; invariant 1 <= x; }")
    assert m is None
    assert any("init" in d.message for d in diags)


def test_parse_properties_cruise(cruise_model, cruise_props):
    assert [p.name for p in cruise_props] == ["p1", "p2", "p3", "p4"]
    p1 = cruise_props[0]
    assert format_expr(p1.assumption) == "mode == ON && speed == 1 && dec"
    assert format_expr(p1.assertion) == "next(speed) == 1"


def test_trivial_property_trigger_everything(cruise_model):
    props, diags = parse_properties(
        "property t { assume true; assert true; }", cruise_model)
    assert len(props) == 1 and not diags


def test_next_in_assume_rejected(cruise_model):
    props, diags = parse_properties(
        "property p { assume next(speed) == 1; assert true; }", cruise_model)
    assert any(d.severity == "error" for d in diags)


def test_undeclared_var_in_property_rejected(cruise_model):
    props, diags = parse_properties(
        "property p { assume nosuch; assert true; }", cruise_model)
    assert any(d.severity == "error" for d in diags)


def test_unsatisfiable_trigger_warns(cruise_model):
    props, diags = parse_properties(
        "property p { assume mode == ON && speed == 2; assert true; }",
        cruise_model)
    assert len(props) == 1
    assert any(d.severity == "warning" and "unsatisfiable" in d.message
               for d in diags)


def test_parse_state_set(cruise_model):
    e, diags = parse_state_set("mode == OFF && speed == 0 && !enable", cruise_model)
    assert e is not None and not diags
    e, diags = parse_state_set("true", cruise_model)
    assert e is not None
    e, diags = parse_state_set("gas", cruise_model)
    assert e is None
    assert any("not allowed" in d.message for d in diags)


# -- pretty-printing round trips ---------------------------------------------

def _roundtrip_model(text):
    m1, d1 = parse_model(text)
    assert m1 is not None, [str(x) for x in d1]
    printed = format_model(m1)
    m2, d2 = parse_model(printed)
    assert m2 is not None, [str(x) for x in d2] + [printed]
    assert m1 == m2
    assert format_model(m2) == printed           # printing is a fixpoint
    return printed


def test_model_roundtrip_cruise():
    _roundtrip_model((BENCHES / "cruise1" / "model.rsys").read_text())


def test_model_roundtrip_negative_bounds_and_ite():
    _roundtrip_model("""
model t {
  state x : -3..4 init -1;
  state e : {A, B, C} init B;
  input u, v : bool;
  assume u || v;
  invariant x <= 4;
  trans {
    x' = u ? x + 1 : x - -1;
    e' = (x == -3) ? A : (e == B ? C : e);
  }
}
""")


def test_properties_roundtrip(cruise_model, cruise_props):
    printed = format_properties(cruise_props)
    again, diags = parse_properties(printed, cruise_model)
    assert not any(d.severity == "error" for d in diags)
    assert list(again) == list(cruise_props)
    assert format_properties(again) == printed


def test_expr_precedence_printing(cruise_model):
    e, _ = parse_state_set("mode == OFF && (speed == 0 || !enable)", cruise_model)
    s = format_expr(e)
    e2, _ = parse_state_set(s, cruise_model)
    assert e == e2


def test_implies_round_trip(cruise_model):
    e, _ = parse_state_set("speed == 2 => enable", cruise_model)
    assert e is not None
    s = format_expr(e)
    e2, _ = parse_state_set(s, cruise_model)
    assert e == e2


def test_golden_model_format(cruise_model):
    golden = Path(__file__).parent / "golden" / "cruise_pretty.rsys"
    printed = format_model(cruise_model)
    assert printed == golden.read_text()


# -- one malformed input per error site --------------------------------------

_SMALL = "model m { state x: 0..3 init 0; state e: {A, B} init A; input i: bool; }"


def _m(body):
    return "model m { state x: 0..3 init 0; " + body + " }"


ERROR_SITES = [
    # tokens, syntax and declarations
    ("model", _m("@"), "unexpected character '@'", 1, 33),
    ("model", "model m { state x: 0..3 init 0 }", "expected ';', found '}'", 1, 32),
    ("model", "model m { state state: bool; }",
     "expected a state variable name, found 'state'", 1, 17),
    ("model", _m("invariant x <= init;"), "unexpected keyword 'init'", 1, 48),
    ("model", _m("invariant x <= ;"), "expected an expression, found ';'", 1, 48),
    ("model", "model m { state e: {A, A} init A; }", "duplicate constants in enum domain", 1, 20),
    ("model", "model m { state x: 5..2 init 5; }", "empty domain 5..2", 1, 20),
    ("model", "model m { state b: bool init 1; }", "expected true/false for init of 'b'", 1, 30),
    ("model", "model m { state x: 0..3 init 7; }", "initial value 7 outside domain 0..3", 1, 30),
    ("model", "model m { state e: {A, B} init C; }", "'C' is not a constant of {A, B}", 1, 32),
    ("model", "model m { state x: bool; input x: bool; }", "duplicate name 'x'", 1, 32),
    ("model", "model m { state a: {P, Q} init P; state b: {P, R} init R; }",
     "enum constant 'P' clashes with an existing name", 1, 41),
    ("model", "model m { foo; }", "unexpected 'foo' in model body", 1, 11),
    # names
    ("model", _m("input i: bool; assume x == 0;"), "state variable 'x' is not allowed here", 1, 55),
    ("model", _m("input i: bool; invariant i;"), "input variable 'i' is not allowed here", 1, 58),
    ("model", _m("trans { x' = y; }"), "undeclared name 'y'", 1, 46),
    ("model", _m("invariant next(x) == 0;"), "next() is not allowed here", 1, 43),
    ("props", "property p { assume next(x) == 1; assert true; }",
     "next() is not allowed here", 1, 21),
    ("props", "property p { assume true; assert next(i); }",
     "next() needs a state variable, got 'i'", 1, 34),
    ("props", "property p { assume true; assert next(zz) == 1; }",
     "next() needs a state variable, got 'zz'", 1, 34),
    # sorts: a compound node reports at its first token that is not '('
    ("model", _m("invariant !x;"), "'!' needs a boolean operand", 1, 43),
    ("model", _m("invariant x ? x : x;"), "'?' condition must be boolean", 1, 43),
    ("model", _m("state b: bool; invariant b ? x : b;"),
     "'? :' branches have different sorts (0..3 vs bool)", 1, 58),
    ("model", _m("state b: bool; invariant b && x;"), "'&&' needs boolean operands", 1, 58),
    ("model", _m("state b: bool; invariant b < x;"),
     "'<' is only defined on bounded integers", 1, 58),
    ("model", _m("state b: bool; invariant b == x;"),
     "'==' compares values of different sorts (bool vs 0..3)", 1, 58),
    ("model", _m("invariant 0 <= ((x)) + (true);"), "'+' needs integer operands", 1, 50),
    ("model", _m("invariant -1 + true == x;"), "'+' needs integer operands", 1, 43),
    ("model", "model m {\n  state x: 0..3 init 0;\n  trans {\n    x' = (x\n      + true);\n  }\n}",
     "'+' needs integer operands", 4, 11),
    # an ill-sorted operand is reported before its ill-sorted parent
    ("model", _m("invariant x ? true + 1 : x;"), "'+' needs integer operands", 1, 47),
    ("model", _m("invariant (true + 1) == (x && true);"), "'+' needs integer operands", 1, 44),
    # model items
    ("model", _m("input i: bool; assume 1;"), "'assume' needs a boolean expression", 1, 48),
    ("model", _m("invariant x;"), "'invariant' needs a boolean expression", 1, 33),
    ("model", _m("init x + 1;"), "'init' needs a boolean expression", 1, 33),
    ("model", _m("input i: bool; trans { i' = true; }"), "'i' is not a state variable", 1, 56),
    ("model", _m("trans { x' = 0; x' = 1; }"), "duplicate update for 'x'", 1, 49),
    ("model", _m("trans { x' = true; }"), "update of 'x' is not an integer expression", 1, 41),
    ("model", "model m { state b: bool; trans { b' = 1; } }",
     "update of 'b' has sort 1..1, expected bool", 1, 34),
    ("model", _m("invariant 1 <= x;"),
     "no state satisfies init together with the invariant", 1, 1),
    ("model", "model m { input i: bool; assume i && !i; }",
     "the input assumption is unsatisfiable", 1, 1),
    # properties and state sets
    ("props", "property p { assume true; assert true; }\nproperty p { assume true; assert true; }",
     "duplicate property 'p'", 2, 10),
    ("props", "property p { assume x; assert true; }",
     "assume/assert need boolean expressions", 1, 1),
    ("props", "property p { assume true; assert x + 1; }",
     "assume/assert need boolean expressions", 1, 1),
    ("set", "x", "a state set must be a boolean expression", 1, 1),
    ("set", "x == 0 )", "expected 'eof', found ')'", 1, 8),
    ("set", "i", "input variable 'i' is not allowed here", 1, 1),
    ("set", "e == C", "undeclared name 'C'", 1, 6),
    # two errors: syntax beats resolution and sorts, declarations are
    # checked as read, then items resolve in order, operands left to right
    ("model", "model m { state x: bool; invariant y; state z: bool }",
     "expected ';', found '}'", 1, 53),
    ("model", _m("invariant x + true == 1; trans { x' = 0 }"), "expected ';', found '}'", 1, 73),
    ("model", _m("invariant y; trans { x' = z; }"), "undeclared name 'y'", 1, 43),
    ("model", _m("trans { x' = z; } invariant y;"), "undeclared name 'z'", 1, 46),
    ("model", _m("invariant y; state x: bool;"), "duplicate name 'x'", 1, 52),
    ("model", _m("invariant y + true;"), "undeclared name 'y'", 1, 43),
    ("model", _m("invariant true + y;"), "undeclared name 'y'", 1, 50),
    ("props", "property p { assume nosuch; assert ; }", "expected an expression, found ';'", 1, 36),
    ("props", "property p { assume nosuch; assert true; } property q { assume ; }",
     "undeclared name 'nosuch'", 1, 21),
    ("props", "property p { assume x; assert zz; }", "undeclared name 'zz'", 1, 31),
]


@pytest.mark.parametrize("entry,text,message,line,col", ERROR_SITES)
def test_error_sites(entry, text, message, line, col):
    if entry == "model":
        result, diags = parse_model(text)
    else:
        small, _ = parse_model(_SMALL)
        parse = parse_properties if entry == "props" else parse_state_set
        result, diags = parse(text, small)
    assert not result
    assert [(d.severity, d.message, d.span.line, d.span.col) for d in diags] == \
        [("error", message, line, col)]


def test_non_ascii_digit_is_an_unexpected_character():
    m, diags = parse_model("model m { state x: 0..3 init 0; invariant x <= ²; }")
    assert m is None
    assert [(d.message, d.span.line, d.span.col) for d in diags] == \
        [("unexpected character '²'", 1, 48)]


def _tokens(text):
    return [(t.kind, t.text, t.span.line, t.span.col, t.span.end_line, t.span.end_col)
            for t in dsl.tokenize(text, "t")]


TOKENS = [
    # a tab is one column, CR is a blank, LF starts a line
    ("a\tbc\r\n d", [("ident", "a", 1, 1, 1, 1), ("ident", "bc", 1, 3, 1, 4),
                      ("ident", "d", 2, 2, 2, 2), ("eof", "", 2, 3, 2, 3)]),
    # a comment does not move the column, so eof sits at its start
    ("x1 // done", [("ident", "x1", 1, 1, 1, 2), ("eof", "", 1, 4, 1, 4)]),
    ("x //c\n//d", [("ident", "x", 1, 1, 1, 1), ("eof", "", 2, 1, 2, 1)]),
    ("", [("eof", "", 1, 1, 1, 1)]),
    # an identifier starts with a letter or '_' and goes on with any
    # letter or digit; an integer is ASCII digits only
    ("é1 x² _9 12ab", [("ident", "é1", 1, 1, 1, 2), ("ident", "x²", 1, 4, 1, 5),
                       ("ident", "_9", 1, 7, 1, 8), ("int", "12", 1, 10, 1, 11),
                       ("ident", "ab", 1, 12, 1, 13), ("eof", "", 1, 14, 1, 14)]),
    # the longest punctuation wins
    ("a==b=>c..d", [("ident", "a", 1, 1, 1, 1), ("punct", "==", 1, 2, 1, 3),
                    ("ident", "b", 1, 4, 1, 4), ("punct", "=>", 1, 5, 1, 6),
                    ("ident", "c", 1, 7, 1, 7), ("punct", "..", 1, 8, 1, 9),
                    ("ident", "d", 1, 10, 1, 10), ("eof", "", 1, 11, 1, 11)]),
    ("x'=!y<=-1", [("ident", "x", 1, 1, 1, 1), ("punct", "'", 1, 2, 1, 2),
                   ("punct", "=", 1, 3, 1, 3), ("punct", "!", 1, 4, 1, 4),
                   ("ident", "y", 1, 5, 1, 5), ("punct", "<=", 1, 6, 1, 7),
                   ("punct", "-", 1, 8, 1, 8), ("int", "1", 1, 9, 1, 9),
                   ("eof", "", 1, 10, 1, 10)]),
]


@pytest.mark.parametrize("text,tokens", TOKENS)
def test_tokenize_kinds_texts_and_spans(text, tokens):
    assert _tokens(text) == tokens


@pytest.mark.parametrize("text,char,line,col", [
    ("²", "²", 1, 1), ("a ٣", "٣", 1, 3), ("1²", "²", 1, 2),
    ("a\t\r\n  @", "@", 2, 3), ("x // ok\n\x0b", "\x0b", 2, 1)])
def test_tokenize_rejects_a_character_no_token_starts_with(text, char, line, col):
    with pytest.raises(dsl.ParseError) as info:
        dsl.tokenize(text, "t")
    d = info.value.diagnostic
    assert d.message == f"unexpected character {char!r}"
    assert d.span == dsl.SourceSpan("t", line, col, line, col)


def test_too_deep_an_expression_is_a_diagnostic():
    """A tree deeper than the recursion limit allows is an error
    diagnostic from every entry point; 400 conjuncts still parse."""
    chain = lambda n: " && ".join(["b"] * n)
    m, diags = parse_model(f"model m {{ state b: bool init true; invariant {chain(400)}; }}")
    assert m is not None and diags == []
    too_deep = [("error", "expression nests too deeply", 1, 1)]
    bad, diags = parse_model(f"model m {{ state b: bool init true; invariant {chain(1000)}; }}")
    assert bad is None
    assert [(d.severity, d.message, d.span.line, d.span.col) for d in diags] == too_deep
    props, diags = parse_properties(f"property p {{ assume {chain(1000)}; assert true; }}", m)
    assert props == []
    assert [(d.severity, d.message, d.span.line, d.span.col) for d in diags] == too_deep
    for text in (chain(1000), "(" * 1000 + "b" + ")" * 1000, "!" * 1000 + "b"):
        e, diags = parse_state_set(text, m)
        assert e is None
        assert [(d.severity, d.message, d.span.line, d.span.col) for d in diags] == too_deep


def test_parser_sorts_each_compound_node_once(monkeypatch):
    """A long chain is typed in one walk: `node_sort` runs once per
    compound node (two per conjunct, one per `&&`) and no subtree is
    re-sorted by `sort_of`."""
    calls = {"node_sort": 0, "sort_of": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dsl, "node_sort", counted("node_sort", model.node_sort))
    # dsl does not import sort_of; should it ever, the call is counted
    monkeypatch.setattr(dsl, "sort_of", counted("sort_of", model.sort_of), raising=False)
    monkeypatch.setattr(model, "sort_of", counted("sort_of", model.sort_of))
    chain = " && ".join(["(b || !b)"] * 400)
    m, diags = parse_model(f"model m {{ state b: bool init false; invariant {chain}; }}")
    assert m is not None and diags == []
    assert calls == {"node_sort": 3 * 400 - 1, "sort_of": 0}
