import math
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from chainforge import bmc, encode, reachgraph
from chainforge.bmc import (BmcError, Pin, Unrolling, check_path,
                            get_kreach_edges, join_witnesses, path_feasible,
                            simple_run_exists)
from chainforge.dsl import parse_model, parse_properties, parse_state_set
from chainforge.encode import assert_assignment, encode_expr
from chainforge.engine import generate_chain
from chainforge.model import (TRUE, BinOp, Property, disj, eval_expr, replay,
                              run_trace, step)
from chainforge.oracle import (int_const, pair_min_weights, random_model,
                               state_eq, table_model)
from chainforge.sat import ExternalSolver, Solver, SolverLimit
from chainforge.reachgraph import (ReachGraph, build_reach_graph, make_vertices,
                                   target_pairs)
from conftest import BENCHES, PhaseTrueSolver, random_paths, split_table_case


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
    return check_path(unr, [Pin(src), Pin(dst)], [k])


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


def _placed(query, pins, k):
    """The arguments of one query on `pins`, and the (expression, step)
    encodings it keeps: trigger and assertion encodings only."""
    if query in (check_path, path_feasible):
        placed = [(e, i * k) for i, p in enumerate(pins) for e in (p.phi, p.psi)]
        return (pins, [k] * (len(pins) - 1)), placed
    if query is get_kreach_edges:
        pairs = {(a, b): (pins[a], pins[b])
                 for a in range(len(pins)) for b in range(len(pins)) if a != b}
        placed = [(e, 0) for p in pins for e in (p.phi, p.psi)]
        placed += [(p.phi, k) for p in pins]
        return (pairs, k), placed
    return (pins[1], k), [(pins[1].phi, 0), (pins[1].psi, 0)]


@pytest.mark.parametrize("query", [check_path, path_feasible, get_kreach_edges,
                                   simple_run_exists])
def test_a_query_whose_solve_raises_leaves_nothing_live(query, cruise_model,
                                                        cruise_props, cruise_final):
    """On a solver whose deadline has passed, the query's solve raises
    SolverLimit, and every literal the query made is still retired: no
    more stays live than the encodings of its pins alone."""
    pins = [v.pin() for v in make_vertices(cruise_props, cruise_final, cruise_final)]
    args, placed = _placed(query, pins, 2)
    unr = Unrolling(cruise_model, Solver(deadline=time.monotonic() - 1))
    with pytest.raises(SolverLimit):
        query(unr, *args)
    ref = Unrolling(cruise_model)
    ref.ensure(unr.horizon)
    for e, k in placed:
        if e is not None:
            ref.pred_lit(e, k)
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
    """<I, p1, p2, F> fails at <I, p1, p2>; stretched, it is feasible at
    the cost of one solve, and once the k-reach build has resolved its
    pairs, a path whose witnesses join costs none."""
    unr = Unrolling(cruise_model)
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    pins = [v.pin() for v in vs]
    res = check_path(unr, pins, [0, 1, 2])
    assert not res.feasible
    assert res.failed_at == 2   # <I, p1, p2>
    # the failed subpath alone, at the same weights, is still infeasible
    sub = check_path(unr, pins[0:3], [0, 1])
    assert not sub.feasible
    # and the stretched variant becomes feasible
    solves = unr.solver.stats_solves
    res2 = check_path(unr, pins, [0, 2, 2])
    assert res2.feasible and not res2.joined
    assert unr.solver.stats_solves == solves + 1
    assert len(res2.inputs) == 4
    build_reach_graph(unr, broken_chain_props, cruise_final, cruise_final,
                      k_max=4, exhaust=True)
    solves = unr.solver.stats_solves
    res3 = check_path(unr, [pins[0], pins[2], pins[3]], [2, 2])   # <I, p2, F>
    assert res3.feasible and res3.joined
    assert unr.solver.stats_solves == solves


DEAD_END_MODEL = """model deadend {
  state s : 0..3 init 0;
  invariant s <= 2;
  trans { s' = s < 3 ? s + 1 : 3; }
}"""


def test_a_path_past_every_run_names_the_horizon():
    """Every frame up to the horizon must satisfy the invariant, and
    every run leaves it within three steps: the path from 0 to 2 in two
    steps is feasible at horizon 2, and at horizon 3 the query fails
    with no vertex to blame, which the error says is the horizon."""
    model, diags = parse_model(DEAD_END_MODEL)
    assert model is not None, [str(d) for d in diags]
    pins = [Pin(parse_state_set(f"s == {v}", model)[0]) for v in (0, 2)]
    unr = Unrolling(model)
    unr.ensure(2)
    assert check_path(unr, pins, [2]).feasible
    unr.ensure(3)
    with pytest.raises(BmcError, match="no run of 3 steps satisfies the "
                                       "invariant and input assumption"):
        check_path(unr, pins, [2])


def test_failed_path_is_at_least_three_vertices(cruise_model, cruise_final,
                                                broken_chain_props):
    unr = Unrolling(cruise_model)
    vs = make_vertices(broken_chain_props, cruise_final, cruise_final)
    pins = [v.pin() for v in vs]
    res = check_path(unr, pins, [0, 1, 2])
    assert res.failed_at >= 2   # so the engine repairs three vertices, vs[hi-2..hi]


@pytest.mark.parametrize("states, failed", [
    ((None, 1, 3, None), (0, 2)),
    ((None, None, 1, 3), (1, 3)),
    ((0, 2, None, None), (0, 1)),
])
def test_check_path_widens_a_narrow_core(states, failed):
    """On a 4-cycle two pins one step apart that are two states apart
    form a two-vertex core, and the shortest infeasible prefix ends at
    its second pin; the window the engine repairs, the three vertices
    that end that prefix, widens the core to the left, and at the start
    of the path it stays two, since widening to the right would take in
    an edge past the shortest infeasible prefix."""
    model = table_model("cyc", [[1], [2], [3], [0]])
    pins = [Pin(TRUE if s is None else state_eq(model, s)) for s in states]
    res = check_path(Unrolling(model), pins, [1, 1, 1])
    assert not res.feasible
    assert (max(0, res.failed_at - 2), res.failed_at) == failed


def test_check_path_names_the_canonical_window_without_a_core(cruise_model, cruise_final,
                                                              broken_chain_props):
    """The external backend gives no unsat core, so its probes shorten
    the failed prefix one vertex at a time, and it names the same end of
    the shortest infeasible prefix as the embedded solver: <I, p1, p2>."""
    stub = Path(__file__).parent / "external_stub.py"
    pins = [v.pin() for v in make_vertices(broken_chain_props, cruise_final, cruise_final)]
    for solver in (ExternalSolver(f"{sys.executable} {stub}"), Solver()):
        res = check_path(Unrolling(cruise_model, solver), pins, [0, 1, 2])
        assert not res.feasible
        assert res.failed_at == 2


def _brute_window(unr, pins, weights):
    """The end of the shortest infeasible prefix by its definition, one
    `path_feasible` per candidate prefix."""
    return next(h for h in range(len(pins))
                if not path_feasible(unr, pins[:h + 1], weights[:h]))


def _split_table_paths():
    """Seeded random paths over the split table's vertices: the start,
    every property in some order, the final vertex, 1-4 steps apart."""
    model, props, init = split_table_case()
    vs = make_vertices(props, init, init)
    for path, ws in random_paths(len(vs), random.Random(4), 40):
        yield model, [vs[i].pin() for i in path], ws


def test_canonical_window_is_the_brute_force_window(cruise_model, cruise_final,
                                                    broken_chain_props):
    """On the cruise broken chain and on failing paths of the split
    table, `check_path` names the end of the shortest infeasible prefix
    found by brute force, under the default search and under one that
    starts every variable at phase True (whose cores differ)."""
    pins = [v.pin() for v in make_vertices(broken_chain_props, cruise_final, cruise_final)]
    cases = [(cruise_model, pins, [0, 1, 2]), *_split_table_paths()]
    failing = narrowed = 0
    for model, pins, ws in cases:
        want = _brute_window(Unrolling(model), pins, ws) \
            if not path_feasible(Unrolling(model), pins, ws) else None
        for solver in (Solver(), PhaseTrueSolver()):
            chk = check_path(Unrolling(model, solver), pins, ws)
            assert chk.feasible == (want is None)
            if want is not None:
                assert chk.failed_at == want, (pins, ws)
        failing += want is not None
        narrowed += want is not None and want < len(pins) - 1
    assert failing >= 30 and narrowed >= 30


def test_canonical_window_costs_no_solve_on_a_feasible_path(cruise_model, cruise_props,
                                                           cruise_final):
    """A feasible path that does not join costs `check_path` its one path
    solve: the prefix probes run only when that solve fails."""
    unr = Unrolling(cruise_model)
    by_name = {v.name: v for v in make_vertices(cruise_props, cruise_final, cruise_final)}
    pins = [by_name[n].pin() for n in ["I", "p4", "p1", "p2", "p3", "F"]]
    solves = unr.solver.stats_solves
    chk = check_path(unr, pins, [2, 2, 2, 1, 2])
    assert chk.feasible and not chk.joined
    assert unr.solver.stats_solves == solves + 1


def test_path_feasible_is_the_path_querys_verdict(cruise_model, cruise_final,
                                                   broken_chain_props):
    """On the brute-force cases, under both searches, `path_feasible`
    answers what `check_path` does."""
    pins = [v.pin() for v in make_vertices(broken_chain_props, cruise_final, cruise_final)]
    cases = [(cruise_model, pins, [0, 1, 2]), *_split_table_paths()]
    for model, pins, ws in cases:
        for solver in (Solver, PhaseTrueSolver):
            assert path_feasible(Unrolling(model, solver()), pins, ws) == \
                check_path(Unrolling(model, solver()), pins, ws).feasible


def test_kreach_keeps_one_guard_per_source():
    """One `get_kreach_edges` call takes one selector per pair and at most
    one guard per distinct source pin from its scope, and leaves every one
    of them false at level 0;
    depth by depth, the pairs it returns are those whose minimal weight
    is that depth."""
    for seed in (3, 17, 40):
        gen = random_model(seed, n_states=8, n_inputs=2, n_props=3, multi_state=True)
        want = pair_min_weights(gen.model, gen.props, gen.init_expr,
                                gen.final_expr, k_cap=8)
        g = ReachGraph(make_vertices(gen.props, gen.init_expr, gen.final_expr),
                       final_idx=len(gen.props) + 1)
        name = {v.idx: v.name for v in g.vertices}
        unr = Unrolling(gen.model)
        handed: list[int] = []
        scope = unr.scope

        @contextmanager
        def counted():
            with scope() as fresh:
                def take():
                    handed.append(fresh())
                    return handed[-1]
                yield take
        unr.scope = counted
        open_pairs = {(a, b): (g.vertices[a].pin(), g.vertices[b].pin())
                      for a, b in target_pairs(g)}
        for k in range(9):
            # covering takes a step, so no edge into F has weight 0
            query = {(a, b): pins for (a, b), pins in open_pairs.items()
                     if k or b != g.final_idx}
            if not query:
                break
            handed.clear()
            found = get_kreach_edges(unr, query, k)
            n_sources = len({src for src, _ in query.values()})
            assert len(query) < len(handed) <= len(query) + n_sources
            assert all(unr.solver.assign[-lit] == 2 for lit in handed)
            assert found == {(a, b) for a, b in query
                             if want.get((name[a], name[b])) == k}
            for key in found:
                del open_pairs[key]
        assert all(want.get((name[a], name[b]), 9) > 8 for a, b in open_pairs)


def test_kreach_witness_resolves_pairs_of_other_sources():
    """A witness found under one source's guard also resolves the open
    pairs of the call's other sources whose pins hold in it: two sources
    that hold in the same states are both resolved by one solve, and the
    second gets no guard."""
    m = table_model("two", [[1], [0]])
    zero, one = state_eq(m, 0), state_eq(m, 1)
    pairs = {"bare": (Pin(zero), Pin(one, TRUE)),
             "asserted": (Pin(zero, TRUE), Pin(one, TRUE))}
    unr = Unrolling(m)
    before = unr.solver.stats_solves
    assert get_kreach_edges(unr, pairs, 1) == {"bare", "asserted"}
    assert unr.solver.stats_solves - before == 1


def _witness_cases(cruise_model, cruise_props, cruise_final):
    yield cruise_model, cruise_props, cruise_final, cruise_final
    for seed, multi in ((5, False), (11, False), (3, True), (40, True)):
        gen = random_model(seed, n_states=9, n_inputs=3, n_props=4, multi_state=multi)
        yield gen.model, gen.props, gen.init_expr, gen.final_expr


def _holds(pin, s, i, nxt, with_psi=True):
    return eval_expr(pin.phi, s, i) and (
        not with_psi or pin.psi is None or eval_expr(pin.psi, s, i, nxt))


def test_kreach_witnesses_are_real_runs(cruise_model, cruise_props, cruise_final):
    """Every resolved pair records the witness that resolved it: a run of
    exactly its weight that the interpreter replays, covering the source
    pin at step 0 and reaching the target's trigger at its last step
    (under some legal input; at weight 0 the same step covers both
    pins)."""
    for model, props, init, final in _witness_cases(cruise_model, cruise_props,
                                                    cruise_final):
        unr = Unrolling(model)
        g = build_reach_graph(unr, props, init, final, k_max=8, exhaust=True).graph
        assert g.weights and set(unr.witness) == set(unr.weight)
        pins = {unr.pin_id(v.pin()): v.pin() for v in g.vertices}
        legal = model.legal_inputs()
        for (a, b), (states, inputs) in unr.witness.items():
            src, dst, k = pins[a], pins[b], unr.weight[(a, b)]
            assert len(inputs) == k and len(states) == k + 1
            assert list(replay(model, [], TRUE, inputs, start=states[0]).trace) == states
            if k == 0:
                assert any(_holds(src, states[0], i, nxt) and _holds(dst, states[0], i, nxt)
                           for i in legal
                           for nxt in [step(model, states[0], i, check=False)])
            else:
                assert _holds(src, states[0], inputs[0], states[1])
                assert any(_holds(dst, states[k], i, None, with_psi=False)
                           for i in legal)


def test_witnesses_join_only_at_their_weights_and_pins(cruise_model, cruise_final,
                                                       broken_chain_props):
    """On the broken chain's graph, I -2-> p2 -2-> F joins into a run
    the interpreter replays.  I -0-> p1 -1-> p2 -2-> F does not: its two
    witnesses meet, but the first starts outside the start set, and the
    path query agrees that the path is infeasible.  An edge stretched
    past its witness's length does not join either: p2 -> F at 3 steps,
    and p1 -> p2 at 2, a path the path query finds feasible."""
    unr = Unrolling(cruise_model)
    g = build_reach_graph(unr, broken_chain_props, cruise_final, cruise_final,
                          k_max=4, exhaust=True).graph
    pin = {v.name: v.pin() for v in g.vertices}
    assert {("I", "p2", 2), ("p1", "p2", 1), ("p2", "F", 2)} <= set(g.named_edges())
    chk = join_witnesses(unr, [pin["I"], pin["p2"], pin["F"]], [2, 2])
    assert chk.feasible and len(chk.inputs) == 4
    assert run_trace(cruise_model, chk.trace[0], chk.inputs) == chk.trace
    assert eval_expr(cruise_final, chk.trace[0]) and eval_expr(cruise_final, chk.trace[-1])
    assert join_witnesses(unr, [pin["I"], pin["p2"], pin["F"]], [2, 3]) is None
    broken = [pin[n] for n in ("I", "p1", "p2", "F")]
    assert join_witnesses(unr, broken, [0, 1, 2]) is None
    assert not check_path(unr, broken, [0, 1, 2]).feasible
    assert join_witnesses(unr, broken, [0, 2, 2]) is None
    assert check_path(unr, broken, [0, 2, 2]).feasible


KEEP_MODEL = """model keep {
  state x: 0..3 init 0;
  state y: bool init false;
  input a: bool;
  trans { x' = a ? x + 1 : x; }
}"""


def test_state_without_an_update_keeps_its_value():
    """`y` has no `trans` update, so it stays false in every frame: no
    path reaches `y` from init, and the chain that drives `x` to 3 keeps
    `y` false at every step."""
    model, diags = parse_model(KEEP_MODEL)
    assert model is not None, [str(d) for d in diags]
    y, _ = parse_state_set("y", model)
    unr = Unrolling(model)
    for k in range(4):
        assert not check_path(unr, [Pin(model.init_expr()), Pin(y)], [k]).feasible
    props, _ = parse_properties("property p { assume x == 3; assert true; }", model)
    res = generate_chain(model, props, model.init_expr(), TRUE)
    assert [c.length for c in res.chains] == [4]
    assert [s["y"] for s in res.chains[0].trace] == [False] * 5


def test_simple_run_exists_on_a_cycle():
    """From state 0 of a 4-cycle the states after it repeat at step 5:
    four distinct successors exist, five do not.  The refutation is
    remembered, and the query leaves no auxiliary variable live."""
    model = table_model("cyc", [[1], [2], [3], [0]])
    src = Pin(state_eq(model, 0))
    unr = Unrolling(model)
    assert [simple_run_exists(unr, src, m) for m in range(1, 7)] == \
        [True] * 4 + [False] * 2
    calls = unr.solver.stats_solves
    assert simple_run_exists(unr, src, 6) is False
    assert simple_run_exists(unr, src, 5) is False
    assert simple_run_exists(unr, src, 3) is True
    assert unr.solver.stats_solves == calls
    ref = Unrolling(model)
    ref.ensure(unr.horizon)
    ref.pred_lit(src.phi, 0)
    assert _live_vars(unr) <= _live_vars(ref)


def test_simple_run_exists_refutes_more_states_than_declared_with_no_solve():
    """A run of a 3-state model has at most 3 distinct states, so asking
    for 4 answers no with no solve and remembers the refutation."""
    model = table_model("tri", [[1], [2], [0]])
    src = Pin(state_eq(model, 0))
    unr = Unrolling(model)
    calls = unr.solver.stats_solves
    assert simple_run_exists(unr, src, 4) is False
    assert unr.solver.stats_solves == calls
    assert unr.simple_runs[unr.pin_id(src)] == (0, 4)
    assert simple_run_exists(unr, src, 3) is True


def _random_table_case(rng):
    """A random machine (not strongly connected in general) with 2-4
    properties, some on two states, some with a pinned input."""
    n, m = rng.randint(3, 10), rng.randint(1, 3)
    table = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    model = table_model("sweep", table)
    a_ref = model.input_ref("a")
    props = []
    for i in range(rng.randint(2, 4)):
        states = rng.sample(range(n), 2 if rng.random() < 0.4 else 1)
        phi = disj(*(state_eq(model, c) for c in states))
        psi = TRUE
        if rng.random() < 0.6:
            v = rng.randrange(m)
            phi = BinOp("&&", phi, BinOp("==", a_ref, int_const(v)))
            if len(states) == 1:
                psi = BinOp("==", model.next_ref("s"), int_const(table[states[0]][v]))
        props.append(Property(f"p{i}", phi, psi))
    final = TRUE if rng.random() < 0.5 else state_eq(model, rng.randrange(n))
    return model, props, state_eq(model, 0), final, rng.choice((6, 12, 20))


def test_builds_on_one_unrolling_share_its_memo(monkeypatch):
    """A second build on the same unrolling, even with a larger bound,
    never sends a pair the first one resolved, nor a pair at a depth the
    first one refuted it at, and ends with the weights a fresh build
    finds."""
    sent: list[list[tuple]] = []

    def counting(unr, pairs, k):
        sent[-1].extend((src, dst, k) for src, dst in pairs.values())
        return get_kreach_edges(unr, pairs, k)

    monkeypatch.setattr(reachgraph, "get_kreach_edges", counting)
    rng = random.Random(77)
    for case in range(8):
        model, props, init, final, _ = _random_table_case(rng)
        unr = Unrolling(model)
        sent.append([])
        first = build_reach_graph(unr, props, init, final, k_max=4, exhaust=True)
        sent.append([])
        second = build_reach_graph(unr, props, init, final, k_max=8, exhaust=True)
        g = first.graph
        resolved = {(g.vertices[a].pin(), g.vertices[b].pin()) for a, b in g.weights}
        refuted = {(src, dst, k) for src, dst, k in sent[-2]}
        assert not [q for q in sent[-1] if q[:2] in resolved or q in refuted], case
        fresh = build_reach_graph(Unrolling(model), props, init, final,
                                  k_max=8, exhaust=True)
        assert second.graph.named_edges() == fresh.graph.named_edges(), case
    assert sum(len(s) for s in sent[1::2]) > 0


def test_recurrence_bound_keeps_exhaustive_weights_exact(monkeypatch):
    """Differential sweep: with sources dropped by the simple-run bound,
    the exhaustive build still holds exactly the BFS weights up to
    k_max, and the bound really fires."""
    bounded = []

    def counting(unr, src, m):
        out = simple_run_exists(unr, src, m)
        if not out:
            bounded.append(src)
        return out

    monkeypatch.setattr(reachgraph, "simple_run_exists", counting)
    rng = random.Random(1306)
    edges = 0
    for case in range(300):
        model, props, init, final, k_max = _random_table_case(rng)
        want = pair_min_weights(model, props, init, final, k_cap=k_max)
        out = build_reach_graph(Unrolling(model), props, init, final,
                                k_max=k_max, exhaust=True)
        got = {(a, b): w for (a, b, w) in out.graph.named_edges()}
        assert got == want, (case, got, want)
        edges += len(got)
    assert edges > 1000
    assert len(bounded) >= 100


class PerFrameUnrolling(Unrolling):
    """Reference: the transition encoded from the model's expressions
    afresh at every frame."""

    def _assert_transition(self, k):
        look = self._lookup(k - 1)
        for name, dom in self.model.state_vars:
            expr = self.model.transition_expr(name)
            value = (self.state_frames[k - 1][name] if expr is None
                     else encode_expr(expr, self.gates, look))
            assert_assignment(self.gates, self.state_frames[k][name], value, dom)


def _identity_case(which):
    """A model and a trigger over (state, input) that shares gates with
    its transition."""
    if which in ("cruise1", "cruise2"):
        model, _ = parse_model((BENCHES / which / "model.rsys").read_text())
        return model, _trig(model, "(gas || (mode != ON && acc)) && speed < 2")
    if which == "keep":
        model, _ = parse_model(KEEP_MODEL)
        return model, _trig(model, "(a ? x + 1 : x) == 3")
    if which == "dead-arms":
        model, _ = parse_model(DEAD_ARMS_MODEL)
        return model, _trig(model, "y == 2 && a == 0")
    if which == "iff-order":
        model, _ = parse_model(IFF_ORDER_MODEL)
        return model, _trig(model, "q && t")
    if which == "ladder":
        gen = random_model(31, n_states=16, n_inputs=3, n_props=5)
    else:
        gen = random_model(31, n_states=12, n_inputs=3, n_props=4, multi_state=True)
    return gen.model, gen.props[0].assumption


# `x`'s chain has no live arm, `y`'s one besides its default
DEAD_ARMS_MODEL = """model dead {
  state x: 0..3 init 0;
  state y: 0..3 init 0;
  input a: 0..2;
  trans {
    x' = x == 5 ? 1 : x == 6 ? 2 : x == 7 ? 0 : a == 0 ? x : 3;
    y' = y == 2 ? 0 : y == 6 ? 2 : y == 7 ? 1 : y + a;
  }
}"""

# the trigger caches `q && t` at the horizon, so at the next frame that
# iff operand's gate has a smaller variable than `p && r`'s, and the
# operands' variable order is the reverse of frame 1's
IFF_ORDER_MODEL = """model ifforder {
  state p: bool init false;
  state q: bool init false;
  input r: bool;
  input t: bool;
  trans { p' = (p && r) == (q && t); }
}"""

CASES = ("cruise1", "cruise2", "keep", "random-multi", "ladder", "dead-arms",
         "iff-order")


@pytest.mark.parametrize("which", CASES)
def test_replayed_transition_matches_per_frame_encoding(which):
    """The replayed tape writes the clauses encoding every frame would:
    the same list, clause by clause and literal by literal."""
    model, _ = _identity_case(which)
    unr, ref = Unrolling(model), PerFrameUnrolling(model)
    unr.ensure(12)
    ref.ensure(12)
    assert unr.solver.nvars == ref.solver.nvars
    assert unr.solver.clauses == ref.solver.clauses


@pytest.mark.parametrize("which", CASES)
def test_replay_reuses_gates_a_query_cached(which):
    """A trigger encoded at the horizon caches gates over that frame's
    state and input; the next transition reads them, and its replay
    reuses those gates as per-frame encoding does, so that frame adds
    fewer variables than the one after it."""
    model, trigger = _identity_case(which)
    runs = []
    for unr in (Unrolling(model), PerFrameUnrolling(model)):
        unr.ensure(4)
        unr.pred_lit(trigger, 4)
        grown = [unr.solver.nvars]
        for k in (5, 6, 7):
            unr.ensure(k)
            grown.append(unr.solver.nvars)
        assert grown[1] - grown[0] < grown[2] - grown[1]
        runs.append(unr.solver.clauses)
    assert runs[0] == runs[1]


def test_case_split_frame_is_smaller_than_the_nested_chain(monkeypatch):
    """The ladder model's 15-arm state dispatch, encoded as one case
    split, takes fewer variables per frame than the nested if-then-else
    chain the encoder builds with case splits off (119 variables and 405
    clauses per frame before case splits were encoded)."""
    model, _ = _identity_case("ladder")

    def frame_size():
        unr = Unrolling(model)
        unr.ensure(1)
        before = unr.solver.nvars, len(unr.solver.clauses)
        unr.ensure(2)
        return unr.solver.nvars - before[0], len(unr.solver.clauses) - before[1]

    split = frame_size()
    monkeypatch.setattr(encode, "CASE_ARMS", math.inf)
    assert frame_size() == (119, 405)
    assert split[0] < 119 and split[1] < 405


def test_transition_is_encoded_once(monkeypatch, cruise_model):
    """Only the first frame encodes the transition's expressions; every
    later frame replays its tape."""
    exprs = [cruise_model.transition_expr(n) for n, _ in cruise_model.state_vars]
    assert None not in exprs
    calls = []

    def counting(e, gates, look):
        if any(e is t for t in exprs):
            calls.append(e)
        return encode_expr(e, gates, look)

    monkeypatch.setattr(bmc, "encode_expr", counting)
    unr = Unrolling(cruise_model)
    unr.ensure(3)
    early = len(calls)
    unr.ensure(30)
    assert early == len(calls) == len(exprs)


def test_a_tape_reading_a_foreign_literal_is_refused(cruise_model):
    unr = Unrolling(cruise_model)
    unr.ensure(1)
    stray = unr.solver.new_var()
    tape = [(unr.gates._and_n, (unr.gates.T, stray), unr.solver.new_var())]
    with pytest.raises(BmcError, match="neither a frame literal"):
        bmc._compile(tape, unr._base_lits(1))
