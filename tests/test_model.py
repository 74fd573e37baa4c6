import dataclasses

import pytest

from chainforge.model import (BOOL, TRUE, BinOp, BoolDomain, Const, EnumDomain,
                              EvalError, IntRange, Ite, Model, ModelError,
                              Not, Property, Ref, SortError, StateSpace,
                              eval_expr, replay, run_trace,
                              reachable_states, sort_of, step)
from chainforge.oracle import int_const, oracle_min_chain, state_eq, table_model

from conftest import cruise_input


def test_eval_constants():
    assert eval_expr(Const(True, BOOL), {}) is True
    assert eval_expr(Const(3, IntRange(3, 3)), {}) == 3


def test_eval_comparison_and_bool_ops():
    dom = IntRange(0, 3)
    s = {"speed": 1}
    i = {"gas": True}
    e = BinOp("&&", BinOp("<", Ref("speed", "state", dom), Const(2, IntRange(2, 2))),
              Ref("gas", "input", dom_b := BoolDomain()))
    assert eval_expr(e, s, i) is True
    assert eval_expr(Not(e), s, i) is False


def test_eval_requires_frames():
    e = Ref("x", "input", BOOL)
    with pytest.raises(EvalError):
        eval_expr(e, {})
    with pytest.raises(EvalError):
        eval_expr(Ref("x", "next", BOOL), {"x": True})


def test_arithmetic_is_exact_in_expressions():
    dom = IntRange(0, 2)
    e = BinOp("+", Ref("speed", "state", dom), Const(1, IntRange(1, 1)))
    assert eval_expr(e, {"speed": 2}) == 3       # clamping happens at assignment
    assert sort_of(e) == IntRange(1, 3)


def test_sort_errors():
    dom = IntRange(0, 2)
    enum = EnumDomain("m", ("A", "B"))
    with pytest.raises(SortError):
        sort_of(BinOp("<", Ref("m", "state", enum), Const("A", enum)))
    with pytest.raises(SortError):
        sort_of(BinOp("&&", Const(1, dom), Const(True, BOOL)))
    with pytest.raises(SortError):
        sort_of(BinOp("==", Const("A", enum), Const(1, dom)))
    with pytest.raises(SortError):
        IntRange(5, 2)


def test_sort_of_reports_an_operand_before_its_node():
    # both the condition and the then-branch are ill-sorted; the branch's
    # own node is sorted first, as the parser sorts it
    x = Ref("x", "state", IntRange(0, 3))
    bad = Ite(x, BinOp("+", TRUE, Const(1, IntRange(1, 1))), x)
    with pytest.raises(SortError, match=r"^'\+' needs integer operands$"):
        sort_of(bad)


def _counter_model(transition=()):
    return Model(name="m",
                 state_vars=(("x", IntRange(0, 2)), ("b", BOOL)),
                 inputs=(("up", BOOL),),
                 init_values=(("x", 0), ("b", False)),
                 transition=transition)


def test_step_frame_rule_identity():
    m = _counter_model()
    s = {"x": 1, "b": True}
    assert step(m, s, {"up": True}) == s


def test_step_saturates_into_declared_domain():
    m = _counter_model(transition=(
        ("x", BinOp("+", Ref("x", "state", IntRange(0, 2)), Const(1, IntRange(1, 1)))),))
    s = {"x": 2, "b": False}
    assert step(m, s, {"up": False})["x"] == 2   # saturation at the upper bound
    assert step(m, {"x": 0, "b": False}, {"up": False})["x"] == 1


def test_step_is_deterministic():
    m = _counter_model(transition=(
        ("b", Ref("up", "input", BOOL)),))
    s = {"x": 0, "b": False}
    assert step(m, s, {"up": True}) == step(m, s, {"up": True})


def test_step_rejects_bad_input_and_invariant():
    m = Model(name="m", state_vars=(("x", IntRange(0, 2)),), inputs=(("u", BOOL),),
              init_values=(("x", 0),),
              input_assumption=Ref("u", "input", BOOL),
              state_invariant=BinOp("<", Ref("x", "state", IntRange(0, 2)),
                                    Const(2, IntRange(2, 2))),
              transition=(("x", BinOp("+", Ref("x", "state", IntRange(0, 2)),
                                      Const(1, IntRange(1, 1)))),))
    with pytest.raises(ModelError):
        step(m, {"x": 0}, {"u": False})          # input assumption violated
    with pytest.raises(ModelError):
        step(m, {"x": 1}, {"u": True})           # successor leaves the invariant


# -- cruise semantics against the published machine -------------------------

def test_cruise_step_examples(cruise_model):
    s = step(cruise_model, {"mode": "OFF", "speed": 0, "enable": False},
             cruise_input("gas"))
    assert s == {"mode": "OFF", "speed": 1, "enable": False}
    s = step(cruise_model, {"mode": "ON", "speed": 1, "enable": True},
             cruise_input("dec"))
    assert s == {"mode": "ON", "speed": 1, "enable": True}


def test_cruise_mode_update_eval(cruise_model):
    mode_expr = cruise_model.transition_expr("mode")
    enable_expr = cruise_model.transition_expr("enable")
    s = {"mode": "OFF", "speed": 0, "enable": False}
    i = cruise_input("button")
    assert eval_expr(mode_expr, s, i) == "OFF"
    assert eval_expr(enable_expr, s, i) is True


def test_cruise_reachable_set_matches_published_machine(cruise_model):
    reach = {(s["mode"], s["speed"], s["enable"])
             for s in reachable_states(cruise_model, cruise_model.init_expr())}
    assert reach == {
        ("OFF", 0, False), ("OFF", 1, False), ("OFF", 0, True), ("ON", 1, True),
        ("DIS", 2, True), ("DIS", 0, True), ("OFF", 2, False), ("OFF", 2, True),
    }
    inv_states = [s for s in cruise_model.all_states()
                  if eval_expr(cruise_model.state_invariant, s)]
    assert len(inv_states) == 9                  # reachable set plus (OFF,1,T)
    assert cruise_model.state_space_size() == 18


def test_state_space_helpers_on_cruise(cruise_model):
    space = StateSpace(cruise_model)
    assert len(space.states) == 9
    init = space.where(cruise_model.init_expr())
    assert [space.states[i] for i in init] == [cruise_model.initial_state()]
    dist = space.distances(dict.fromkeys(init, 0))
    assert [space.states[i] for i in sorted(dist)] == \
        reachable_states(cruise_model, cruise_model.init_expr())
    assert space.distances(dict.fromkeys(init, 0), cap=1) == \
        {i: d for i, d in dist.items() if d <= 1}
    enabled = cruise_model.state_ref("enable")
    hits = space.triggered(BinOp("&&", enabled, cruise_model.input_ref("button")))
    assert next(hits) == space.where(enabled)[0]


def test_invariant_that_cuts_a_cycle_stops_exploration():
    """On the cycle 0 -> 1 -> 2 -> 3 -> 0 with state 2 outside the
    invariant, the step out of 1 leaves the invariant, so state 3 is
    never reached and no chain can cover a property on it."""
    m = table_model("cut", [[1], [2], [3], [0]])
    m = dataclasses.replace(m, state_invariant=BinOp("!=", m.state_ref("s"),
                                                     int_const(2)))
    space = StateSpace(m)
    assert [s["s"] for s in space.states] == [0, 1, 3]
    assert space.succ(0, 0) == 1 and space.succ(1, 0) is None
    assert reachable_states(m, m.init_expr()) == [{"s": 0}, {"s": 1}]
    behind = Property("p", state_eq(m, 3), TRUE)
    assert oracle_min_chain(m, [behind], state_eq(m, 0), state_eq(m, 0)) is None


def test_replay_canonical_cruise_chain(cruise_model, cruise_props, cruise_final):
    seq = [cruise_input(x) for x in
           ("gas", "acc", "button", "dec", "dec", "gas", "dec", "brake", "button")]
    rep = replay(cruise_model, cruise_props, cruise_final, seq)
    assert rep.ok
    assert rep.chain.length == 9
    assert set(rep.covers) == {"p1", "p2", "p3", "p4"}
    assert rep.covers == {"p4": 2, "p1": 4, "p2": 6, "p3": 7}
    # the trace reproduces by folding step over the inputs
    assert list(rep.trace) == run_trace(cruise_model, rep.trace[0], seq)


def test_replay_empty_sequence_final_is_init(cruise_model, cruise_final):
    rep = replay(cruise_model, [], cruise_final, [])
    assert rep.ok and rep.chain.length == 0


def test_replay_reports_uncovered(cruise_model, cruise_props, cruise_final):
    rep = replay(cruise_model, cruise_props, cruise_final, [cruise_input("brake")])
    assert not rep.ok
    assert set(rep.uncovered) == {"p1", "p2", "p3", "p4"}


def test_replay_reports_assertion_violation(cruise_model, cruise_final):
    from chainforge.dsl import parse_properties
    bad, diags = parse_properties(
        "property bad { assume mode == OFF && speed == 0 && gas; "
        "assert next(speed) == 0; }", cruise_model)
    assert not any(d.severity == "error" for d in diags)
    rep = replay(cruise_model, bad, cruise_final, [cruise_input("gas")])
    assert rep.violations == (("bad", 0),)
    assert not rep.ok


def test_replay_needs_deterministic_init():
    m = Model(name="m", state_vars=(("x", BOOL),), inputs=(("u", BOOL),))
    with pytest.raises(EvalError):
        replay(m, [], Const(True, BOOL), [])
