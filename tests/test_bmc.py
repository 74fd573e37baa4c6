import random
import sys
from pathlib import Path

import pytest

from chainforge.bmc import Pin, Unrolling, check_path, get_kreach_edges
from chainforge.dsl import parse_properties
from chainforge.model import eval_expr, run_trace
from chainforge.oracle import pair_min_weights, random_model
from chainforge.sat import ExternalSolver
from chainforge.reachgraph import (ReachGraph, build_reach_graph, make_vertices,
                                   target_pairs)


@pytest.fixture(scope="module")
def cruise_unrolling(cruise_model):
    return Unrolling(cruise_model)


def _trig(model, text):
    # triggers may mention inputs, so go through a property
    props, diags = parse_properties(
        f"property t {{ assume {text}; assert true; }}", model)
    assert not any(d.severity == "error" for d in diags)
    return props[0].assumption


def _reach(unr, src, dst, k):
    """Is some dst-state reachable from some src-state in exactly k steps?"""
    return check_path(unr, [Pin(src), Pin(dst)], [k], shrink_core=False)


def test_reach_zero_steps_self(cruise_model, cruise_unrolling, cruise_final):
    chk = _reach(cruise_unrolling, cruise_final, cruise_final, 0)
    assert chk.feasible and len(chk.trace) == 1 and chk.inputs == []


def test_reach_cruise_examples(cruise_model, cruise_unrolling, cruise_final):
    p4 = _trig(cruise_model, "mode == OFF && speed == 2 && !enable && button")
    p1 = _trig(cruise_model, "mode == ON && speed == 1 && dec")
    assert _reach(cruise_unrolling, cruise_final, p4, 2).feasible
    assert not _reach(cruise_unrolling, cruise_final, p1, 1).feasible   # min distance is 2
    chk = _reach(cruise_unrolling, cruise_final, p1, 2)
    assert chk.feasible and len(chk.trace) == 3 and len(chk.inputs) == 2
    # witness replays through the interpreter
    assert run_trace(cruise_model, chk.trace[0], chk.inputs) == chk.trace


def test_kreach_weight_one_edges_cruise(cruise_model, cruise_props, cruise_final):
    unr = Unrolling(cruise_model)
    vs = make_vertices(cruise_props, cruise_final, cruise_final)
    by_name = {v.name: v for v in vs}
    pairs = {}
    for a in ("p1", "p2", "p3", "p4"):
        for b in ("p1", "p2", "p3", "p4"):
            if a != b:
                pairs[(a, b)] = (by_name[a].pin(), by_name[b].pin())
    found = get_kreach_edges(unr, pairs, 1)
    assert set(found) == {("p1", "p3"), ("p2", "p1"), ("p2", "p3")}


def test_kreach_zero_step_start_overlap(cruise_model, cruise_final, broken_chain_props):
    unr = Unrolling(cruise_model)
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    pairs = {("I", "p1"): (vs[0].pin(), vs[1].pin())}
    found = get_kreach_edges(unr, pairs, 0)
    assert set(found) == {("I", "p1")}   # start states overlap the trigger


def test_kreach_weights_match_bfs_oracle_on_random_models():
    rng = random.Random(99)
    for case in range(12):
        gen = random_model(rng.randrange(1 << 30), n_states=rng.randint(4, 8),
                           n_inputs=2, n_props=rng.randint(2, 3))
        want = pair_min_weights(gen.model, gen.props, gen.init_expr,
                                gen.final_expr, k_cap=12)
        unr = Unrolling(gen.model)
        out = build_reach_graph(unr, gen.props, gen.init_expr, gen.final_expr,
                                k_max=12, exhaust=True)
        got = {(a, b): w for (a, b, w) in out.graph.named_edges()}
        assert got == want, (gen.model.name, got, want)


def test_kreach_default_build_matches_bfs_oracle_on_multi_state_models():
    # disjunctive triggers: one witness run may satisfy several pairs
    rng = random.Random(2024)
    for case in range(12):
        gen = random_model(rng.randrange(1 << 30), n_states=rng.randint(5, 9),
                           n_inputs=2, n_props=rng.randint(2, 4), multi_state=True)
        want = pair_min_weights(gen.model, gen.props, gen.init_expr,
                                gen.final_expr, k_cap=12)
        out = build_reach_graph(Unrolling(gen.model), gen.props, gen.init_expr,
                                gen.final_expr, k_max=12)
        g = out.graph
        got = {(a, b): w for (a, b, w) in g.named_edges()}
        assert all(want.get(key) == w for key, w in got.items()), (gen.model.name, got, want)
        for a, b in target_pairs(g):
            key = (g.vertices[a].name, g.vertices[b].name)
            if key not in got:
                assert want.get(key, g.k_stop + 1) > g.k_stop, (gen.model.name, key)


def _live_vars(unr):
    s = unr.solver
    return sum(1 for v in range(1, s.nvars + 1) if s.assign[v] == 0)


def _kreach_query(model, props, init, final):
    g = ReachGraph(make_vertices(props, init, final), final_idx=len(props) + 1)
    return {(a, b): (g.vertices[a].pin(), g.vertices[b].pin())
            for a, b in target_pairs(g)}


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("which", ["cruise", "random"])
def test_kreach_query_leaves_nothing_live(which, k, cruise_model, cruise_props,
                                          cruise_final):
    if which == "cruise":
        model, props, init, final = cruise_model, cruise_props, cruise_final, cruise_final
    else:
        gen = random_model(31, n_states=9, n_inputs=2, n_props=4, multi_state=True)
        model, props, init, final = gen.model, gen.props, gen.init_expr, gen.final_expr
    pairs = _kreach_query(model, props, init, final)
    ref = Unrolling(model)
    ref.ensure(max(k, 1))
    for src, dst in pairs.values():
        for e in (src.phi, src.psi):
            if e is not None:
                ref.pred_lit(e, 0)
        ref.pred_lit(dst.phi, k)
        if k == 0 and dst.psi is not None:
            ref.pred_lit(dst.psi, k)
    unr = Unrolling(model)
    get_kreach_edges(unr, pairs, k)
    assert _live_vars(unr) <= _live_vars(ref)


def test_unrolling_grows_incrementally(cruise_model):
    unr = Unrolling(cruise_model)
    unr.ensure(2)
    vars2, clauses2 = unr.solver.nvars, len(unr.solver.clauses)
    unr.ensure(5)
    assert unr.solver.nvars > vars2
    assert len(unr.solver.clauses) > clauses2
    assert unr.horizon == 5


def test_check_path_cruise_bold_chain(cruise_model, cruise_props, cruise_final):
    unr = Unrolling(cruise_model)
    vs = make_vertices(cruise_props, cruise_final, cruise_final)
    by_name = {v.name: v for v in vs}
    order = ["I", "p4", "p1", "p2", "p3", "F"]
    pins = [by_name[n].pin() for n in order]
    res = check_path(unr, pins, [2, 2, 2, 1, 2])
    assert res.feasible
    assert len(res.inputs) == 9
    assert run_trace(cruise_model, res.trace[0], res.inputs) == res.trace
    assert eval_expr(cruise_final, res.trace[-1])


def test_check_path_empty_chain(cruise_model, cruise_final):
    unr = Unrolling(cruise_model)
    vs = make_vertices([], cruise_final, cruise_final)
    res = check_path(unr, [vs[0].pin(), vs[1].pin()], [0])
    assert res.feasible and res.inputs == []


def test_check_path_broken_chain_failed_subpath(cruise_model, cruise_final,
                                                broken_chain_props):
    unr = Unrolling(cruise_model)
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    pins = [v.pin() for v in vs]
    res = check_path(unr, pins, [0, 1, 2])
    assert not res.feasible
    assert (res.failed_lo, res.failed_hi) == (0, 2)   # <I, p1, p2>
    # the failed subpath alone, at the same weights, is still infeasible
    sub = check_path(unr, pins[0:3], [0, 1])
    assert not sub.feasible
    # and the stretched variant becomes feasible
    res2 = check_path(unr, pins, [0, 2, 2])
    assert res2.feasible
    assert len(res2.inputs) == 4


def test_failed_path_is_at_least_three_vertices(cruise_model, cruise_final,
                                                broken_chain_props):
    unr = Unrolling(cruise_model)
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    pins = [v.pin() for v in vs]
    res = check_path(unr, pins, [0, 1, 2])
    assert res.failed_hi - res.failed_lo >= 2


def test_check_path_blames_the_whole_path_without_a_core(cruise_model, cruise_final,
                                                         broken_chain_props):
    """The external backend gives no unsat core, so the failed range is
    the whole path rather than the core's <I, p1, p2>."""
    stub = Path(__file__).parent / "external_stub.py"
    unr = Unrolling(cruise_model, ExternalSolver(f"{sys.executable} {stub}"))
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    res = check_path(unr, [v.pin() for v in vs], [0, 1, 2])
    assert not res.feasible
    assert (res.failed_lo, res.failed_hi) == (0, 3)
