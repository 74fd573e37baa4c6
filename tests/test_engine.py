import math
import random
import time

import pytest

from chainforge import bmc, encode, engine
from chainforge.bmc import Unrolling
from chainforge.dsl import parse_model, parse_properties, parse_state_set
from chainforge.engine import (EngineConfig, FAILED, MAX_ROUNDS, MAX_SPLITS, MINIMAL,
                               MINIMISED, MULTI, NO_SINGLE_CHAIN, generate_chain,
                               partition_vertex_sets)
from chainforge.model import (Property, SortError, TRUE, disj, eval_expr, replay,
                              run_trace)
from chainforge.oracle import (oracle_min_chain, pair_min_weights,
                               random_model, reachability_diameter, state_eq,
                               table_model)
from chainforge.reachgraph import ReachGraph, make_vertices
from chainforge.sat import Solver
from conftest import (HORIZON_MODEL, HORIZON_PROPS, PhaseTrueSolver, eden_table_case,
                      multi_var_case, random_paths, split_table_case,
                      table_family_case)


def _check_chain(model, props, final_expr, chain):
    """Every emitted chain must replay: right trace, full coverage with
    assertions holding, ending in the final set."""
    assert list(chain.trace) == run_trace(model, chain.trace[0], chain.inputs)
    assert eval_expr(final_expr, chain.trace[-1])
    for p in props:
        k = chain.covers.get(p.name)
        if k is None:
            continue
        assert eval_expr(p.assumption, chain.trace[k], chain.inputs[k])
        assert eval_expr(p.assertion, chain.trace[k], chain.inputs[k],
                         chain.trace[k + 1])


def test_cruise_single_chain(cruise_model, cruise_props, cruise_final):
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final)
    assert res.status == MINIMAL
    assert len(res.chains) == 1
    assert res.total_length == 9
    _check_chain(cruise_model, cruise_props, cruise_final, res.chains[0])
    assert set(res.chains[0].covers) == {"p1", "p2", "p3", "p4"}
    rep = replay(cruise_model, cruise_props, cruise_final, res.chains[0].inputs)
    assert rep.ok


def test_cruise_zero_properties(cruise_model, cruise_final):
    res = generate_chain(cruise_model, [], cruise_final, cruise_final)
    assert len(res.chains) == 1 and res.total_length == 0


def test_cruise_bound_exceeded(cruise_model, cruise_props, cruise_final):
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final,
                         EngineConfig(k_max=1))
    assert res.status == FAILED
    assert res.reason == ("no chain found for given bound 1 ('p1' is "
                          "unreachable from the start states within the bound)")


def test_repair_example(cruise_model, broken_chain_props, cruise_final):
    from chainforge.sat import Solver
    solver = Solver()
    res = generate_chain(cruise_model, broken_chain_props, cruise_final,
                         cruise_final, EngineConfig(solver_factory=lambda: solver))
    assert res.status == MINIMISED     # multi-state triggers: no certificate
    assert res.total_length == 4
    st = res.stats
    assert st.initial_abstract_weights == [0, 1, 2]
    assert st.first_failed_path == ["I", "p1", "p2"]
    assert st.repair_increments == 1
    assert st.refinement_splits == 0
    # stretched weights still account for the whole chain
    assert st.abstract_weights == [0, 2, 2]
    assert sum(st.abstract_weights) == res.total_length
    _check_chain(cruise_model, broken_chain_props, cruise_final, res.chains[0])
    assert oracle_min_chain(cruise_model, broken_chain_props, cruise_final,
                            cruise_final) == 4
    # the failed path check and repair count every solve they cost
    assert st.solver_calls == solver.stats_solves
    assert st.solver_conflicts == solver.stats_conflicts
    assert st.solver_decisions == solver.stats_decisions > 0


def test_already_feasible_path_needs_no_repair(cruise_model, cruise_props,
                                               cruise_final):
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final)
    assert res.stats.repair_increments == 0
    assert res.stats.first_failed_path is None


def test_repair_retries_another_arrival_state():
    """p1's trigger {1, 2, 10} is one step from init at 1 and 2, and one
    step from p2's trigger 5 only at 10.  Repair checks the prefix from
    init through p1 and p2 as a whole, so p1 -> p2 stretches to the 3
    steps from 2, not from 1, a self-loop that never reaches 5, and the
    chain goes through 2 (5 steps, the optimum) without rebuilding the
    complete graph."""
    table = [[1, 2, 6], [1, 1, 1], [3, 3, 3], [4, 4, 4], [5, 5, 5], [0, 0, 0],
             [7, 7, 7], [8, 8, 8], [9, 9, 9], [10, 10, 10], [5, 5, 5]]
    m = table_model("retry", table)
    p1 = Property("p1", disj(state_eq(m, 1), state_eq(m, 2), state_eq(m, 10)), TRUE)
    p2 = Property("p2", state_eq(m, 5), TRUE)
    i_expr = state_eq(m, 0)
    res = generate_chain(m, [p1, p2], i_expr, i_expr, EngineConfig(k_max=12))
    assert res.chains, res.reason
    _check_chain(m, [p1, p2], i_expr, res.chains[0])
    assert res.total_length == 5 == oracle_min_chain(m, [p1, p2], i_expr, i_expr)
    assert res.stats.repair_increments == 2
    assert res.stats.refinement_splits == 0
    # a failed retry would rebuild the complete graph, which reaches k = 4
    assert res.stats.k_reached == 1


def test_repair_stretch_depends_only_on_prefix_feasibility():
    """Workload instance multi-2-38: repair stretches the failed
    window's last edge to the fewest steps at which the window
    concretises, and refinement splits the window's middle vertex, so
    the chain is 14 steps against the oracle's 11, whichever run the
    solver returns."""
    from chainforge.oracle import random_model
    gen = random_model(1914563131, n_states=14, n_props=6, multi_state=True)
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=60))
    assert res.chains, res.reason
    assert len(res.chains) == 1
    _check_chain(gen.model, gen.props, gen.final_expr, res.chains[0])
    assert res.total_length == 14
    assert sum(res.stats.abstract_weights) == res.total_length


def _multi_1_31():
    """Workload instance multi-1-31 as a generated model."""
    return random_model(1001090105, n_states=16, n_props=5, multi_state=True)


def test_split_on_the_failed_prefix_reaches_the_optimum():
    """Workload instance multi-1-31: splitting the second to last vertex
    of the shortest infeasible prefix, the last vertex of the longest
    feasible one, gives the optimal 13-step chain."""
    gen = _multi_1_31()
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=60))
    assert len(res.chains) == 1, res.reason
    _check_chain(gen.model, gen.props, gen.final_expr, res.chains[0])
    assert res.total_length == 13 == oracle_min_chain(
        gen.model, gen.props, gen.init_expr, gen.final_expr)


def test_repair_names_a_split_when_the_range_goes_through_unstretched(monkeypatch):
    """p0's trigger {7, 10} holds 7, which no state leads to.  From 7 the
    failed window p0, p1, p2 concretises at its weights (7 -> 3 -> 5),
    but the path reaches p0 only at 10, from where p2 is 3 steps further
    (10 -> 4 -> 8 -> 9 -> 5).  Repair stretches nothing, so the window's
    middle vertex p1 is split instead of the same failed path being
    checked again; one `path_feasible` check of the whole window at its
    weights tells repair so."""
    from chainforge.engine import Stats, _repair, _single_chain
    m, props, i_expr = eden_table_case()
    vertices = make_vertices(props, i_expr, i_expr)
    g = ReachGraph(list(vertices), final_idx=5)
    vs, ws, stats = [0, 1, 2, 3, 4, 5], [1, 1, 1, 1, 1], Stats()
    assert bmc.check_path(Unrolling(m), [v.pin() for v in vertices], ws).failed_at == 4
    checks = []
    monkeypatch.setattr(engine, "path_feasible",
                        lambda *a: checks.append(a[2]) or bmc.path_feasible(*a))
    assert _repair(Unrolling(m), g, vs, ws, 4, EngineConfig(k_max=12), stats) is False
    assert checks == [[1, 1]]
    assert ws == [1, 1, 1, 1, 1]
    assert stats.repair_increments == 0
    # planned on the path's own edges, the engine splits p1 between p0 and p2
    splits = []
    refine = engine.refine
    monkeypatch.setattr(engine, "refine",
                        lambda *a: splits.append(a[1:]) or refine(*a))
    g.weights = dict(zip(zip(vs, vs[1:]), ws))
    _single_chain(Unrolling(m), props, g, EngineConfig(k_max=12), Stats())
    assert splits == [(2, 3, 4)]


def _edge_by_edge_repair(unr, g, vs, ws, hi, cfg, stats):
    """Repair as it was before it stretched only the window's last edge,
    on the window `vs[max(0, hi-2)..hi]`: edge j takes the fewest steps
    at which the window's prefix through `vs[j + 1]` concretises with
    the earlier edges at their stretched weights; whether some edge
    stretched, and False at a dead-end edge."""
    pins = [g.vertices[v].pin() for v in vs]
    lo = max(0, hi - 2)
    old = ws[lo:hi]
    for j in range(lo, hi):
        w = next((w for w in range(ws[j], cfg.k_max + 1)
                  if bmc.path_feasible(unr, pins[lo:j + 2], ws[lo:j] + [w])), None)
        if w is None:
            return False
        stats.repair_increments += w - ws[j]
        ws[j] = w
        if g.weights.get((vs[j], vs[j + 1]), -1) < w:
            g.weights[(vs[j], vs[j + 1])] = w
    return ws[lo:hi] != old


def _failing_table_paths():
    """Failed planned paths with the end of their shortest infeasible
    prefix: the path through the eden table whose window goes through
    unstretched, and seeded random paths over the split table and
    table-family models."""
    eden, split = eden_table_case(), split_table_case()
    cases = [((*eden, eden[2]), lambda n: [(list(range(n)), [1] * (n - 1))]),
             ((*split, split[2]), lambda n: random_paths(n, random.Random(4), 40))]
    cases += [(table_family_case(seed),
               lambda n, seed=seed: random_paths(n, random.Random(seed), 6))
              for seed in range(30)]
    for (model, props, init, final), paths in cases:
        vertices = make_vertices(props, init, final)
        for vs, ws in paths(len(vertices)):
            unr = Unrolling(model)
            chk = bmc.check_path(unr, [vertices[v].pin() for v in vs], ws)
            if not chk.feasible:
                yield unr, vertices, vs, ws, chk.failed_at


def test_last_edge_repair_matches_the_edge_by_edge_repair():
    """After `check_path` names the end of the shortest infeasible
    prefix, stretching only the last edge of the window that ends it
    gives what stretching every edge of the window in turn gives: the
    same verdict, weights, graph weights and increments.  The prefix
    before the window's end concretises, so no earlier edge ever
    stretched or dead-ended.  Every verdict occurs."""
    cfg = EngineConfig(k_max=12)
    verdicts = []
    for unr, vertices, vs, ws, hi in _failing_table_paths():
        assert 0 <= hi < len(vs)
        lo = max(0, hi - 2)
        runs = []
        for repair in (engine._repair, _edge_by_edge_repair):
            g = ReachGraph(list(vertices), final_idx=len(vertices) - 1)
            g.weights = dict(zip(zip(vs, vs[1:]), ws))   # the planned edges
            w, stats = list(ws), engine.Stats()
            runs.append((repair(unr, g, vs, w, hi, cfg, stats), w, g.weights,
                         stats.repair_increments))
        assert runs[0] == runs[1], (vs, ws, hi)
        pins = [vertices[v].pin() for v in vs[lo:hi + 1]]
        verdicts.append("stretched" if runs[0][0]
                        else "split" if bmc.path_feasible(unr, pins, ws[lo:hi])
                        else "dead end")
    counts = {v: verdicts.count(v) for v in ("stretched", "split", "dead end")}
    assert counts["split"] >= 1 and counts["stretched"] >= 5 and counts["dead end"] >= 5, counts


def test_unstretched_repair_splits_and_reaches_the_optimum():
    """A random table model on which the failed window goes through
    unstretched; splitting its middle vertex gives the optimal chain."""
    table = [[1, 4], [9, 12], [7, 10], [14, 5], [16, 9], [3, 4], [17, 13],
             [3, 10], [16, 7], [16, 8], [5, 5], [14, 7], [12, 11], [4, 14],
             [14, 0], [12, 5], [12, 16], [1, 15]]
    m = table_model("split", table)
    members = [[8, 13], [15, 11, 10], [2, 7, 6], [12, 0], [14, 16]]
    props = [Property(f"p{j}", disj(*(state_eq(m, s) for s in ss)), TRUE)
             for j, ss in enumerate(members)]
    i_expr = state_eq(m, 0)
    res = generate_chain(m, props, i_expr, i_expr, EngineConfig(k_max=12))
    assert res.chains, res.reason
    _check_chain(m, props, i_expr, res.chains[0])
    assert res.stats.refinement_splits == 1
    assert res.total_length == 9 == oracle_min_chain(m, props, i_expr, i_expr)


def _search_independence_cases():
    m, props, i_expr = split_table_case()
    yield "split", m, props, i_expr, i_expr, 12
    # at 23, 29 and 34 the solver's own core named another first failed
    # path under the two searches
    for seed in (23, 29, 34, 1, 6):
        gen = random_model(seed, n_states=12, n_inputs=2, n_props=4, multi_state=True)
        yield seed, gen.model, gen.props, gen.init_expr, gen.final_expr, 20
    gen = _multi_1_31()
    yield "multi-1-31", gen.model, gen.props, gen.init_expr, gen.final_expr, 60


@pytest.mark.parametrize("case", list(_search_independence_cases()),
                         ids=lambda case: str(case[0]))
def test_outcome_does_not_depend_on_the_solvers_search(case):
    """Two searches, the default solver and one whose variables start
    with phase True, reach different models and cores; the chain's
    outcome, which hangs only on SAT/UNSAT verdicts, is the same."""
    _, model, props, init, final, k_max = case

    def outcome(factory):
        res = generate_chain(model, props, init, final,
                             EngineConfig(k_max=k_max, solver_factory=factory))
        st = res.stats
        return (res.status, res.total_length, st.repair_increments,
                st.refinement_splits, st.abstract_path, st.abstract_weights,
                st.first_failed_path)

    default = outcome(Solver)
    assert default[2] + default[3] > 0      # the planned path failed
    assert outcome(PhaseTrueSolver) == default


# -- refinement: repair cannot fix a trigger member that is a dead end -------

def _refinement_scenario():
    """Trigger of p1 = {0, 4}; 0 is an initial-state trap, 4 sits right
    before p2's trigger.  The cheapest abstract path pins p1 at the trap
    and cannot be repaired; splitting p1's vertex re-routes through p2."""
    table = [
        [0, 0],   # 0: trap, in I and in trig(p1)
        [2, 1],   # 1: second initial state, heads for p2's trigger
        [3, 2],   # 2: transit
        [4, 4],   # 3: trig(p2); covering lands on 4
        [3, 1],   # 4: trig(p1); can cover onward to 3 or return home
    ]
    import dataclasses
    m = table_model("refine", table)
    i_expr = disj(state_eq(m, 0), state_eq(m, 1))
    p1 = Property("p1", disj(state_eq(m, 0), state_eq(m, 4)), TRUE)
    p2 = Property("p2", state_eq(m, 3), TRUE)
    m = dataclasses.replace(m, init_values=(), init_pred=i_expr)
    return m, [p1, p2], i_expr


def test_refinement_splits_and_finds_chain():
    model, props, i_expr = _refinement_scenario()
    res = generate_chain(model, props, i_expr, i_expr, EngineConfig(k_max=10))
    assert res.chains, res.reason
    assert res.stats.refinement_splits == 1
    assert res.total_length == 4
    assert oracle_min_chain(model, props, i_expr, i_expr) == 4
    _check_chain(model, props, i_expr, res.chains[0])
    # after the split, the optimiser re-routes through p2 first
    assert res.stats.abstract_path == ["I", "p2", "p1", "F"]
    assert sum(res.stats.abstract_weights) == res.total_length
    # the split vertex joined the original's refinement group
    groups = res.graph.group_members()
    assert any(len(members) == 2 for members in groups.values())


def test_refinement_scenario_weights_are_as_designed():
    model, props, i_expr = _refinement_scenario()
    w = pair_min_weights(model, props, i_expr, i_expr)
    assert w[("I", "p1")] == 0
    assert w[("p1", "p2")] == 1
    assert w[("I", "p2")] == 2
    assert w[("p2", "p1")] == 1
    assert w[("p1", "F")] == 1
    assert w[("p2", "F")] == 2


# -- partitioning -------------------------------------------------------------

def _two_cluster_scenario():
    table = [
        [1, 2],   # 0: init; input chooses the cluster
        [1, 1],   # 1: cluster A
        [2, 2],   # 2: cluster B
    ]
    m = table_model("clusters", table)
    pa = Property("pa", state_eq(m, 1), TRUE)
    pb = Property("pb", state_eq(m, 2), TRUE)
    return m, [pa, pb], state_eq(m, 0)


def test_partition_two_unreachable_clusters():
    model, props, i_expr = _two_cluster_scenario()
    final = TRUE
    res = generate_chain(model, props, i_expr, final, EngineConfig(k_max=8))
    assert res.status == MULTI
    assert len(res.chains) == 2
    covered = set()
    for c in res.chains:
        _check_chain(model, props, final, c)
        covered |= set(c.covers)
    assert covered == {"pa", "pb"}


def test_multi_chain_result_names_no_abstract_path():
    """Each class's chain is concretised from its own abstract path, so a
    multi-chain result names none; a single chain names its own."""
    model, props, i_expr = _two_cluster_scenario()
    res = generate_chain(model, props, i_expr, TRUE, EngineConfig(k_max=8))
    assert res.status == MULTI and len(res.chains) == 2
    assert res.stats.abstract_path is None
    assert res.stats.abstract_weights is None
    one = generate_chain(model, props[:1], i_expr, TRUE, EngineConfig(k_max=8))
    assert one.status == MINIMAL
    assert one.stats.abstract_path == ["I", "pa", "F"]
    assert one.stats.abstract_weights == [1, 1]


def test_partition_disabled_fails():
    model, props, i_expr = _two_cluster_scenario()
    res = generate_chain(model, props, i_expr, TRUE,
                         EngineConfig(k_max=8, allow_partition=False))
    assert res.status == FAILED
    assert not res.chains


def test_duplicate_property_names_are_rejected():
    """Partition classes map back to properties by name, so two
    properties named alike would land in every class and split again
    forever; they are rejected up front instead."""
    m = table_model("clusters", [[1, 3], [2, 1], [1, 2], [4, 3], [3, 4]])
    props = [Property("p", state_eq(m, 2), TRUE),
             Property("p", state_eq(m, 4), TRUE)]
    with pytest.raises(SortError, match="duplicate property name 'p'"):
        generate_chain(m, props, state_eq(m, 0), TRUE, EngineConfig(k_max=10))


def test_partition_unreachable_final_reports_vertex():
    model, props, i_expr = _two_cluster_scenario()
    # final = init: neither cluster can return, so no chain set exists
    res = generate_chain(model, props, i_expr, i_expr, EngineConfig(k_max=8))
    assert res.status == FAILED
    assert "unreachable" in res.reason


def test_bound_exceeded_reasons_name_the_partition_failure():
    """A build that finds no covering path fails with the bound, plus the
    partitioning step's reason unless that is only "no single chain"."""
    model, props, i_expr = _two_cluster_scenario()
    res = generate_chain(model, props, i_expr, TRUE,
                         EngineConfig(k_max=8, allow_partition=False))
    assert res.reason == "no chain found for given bound 8"
    res = generate_chain(model, props, i_expr, i_expr, EngineConfig(k_max=8))
    assert res.reason == ("no chain found for given bound 8 (the final states "
                          "are unreachable from 'pa' within the bound)")


def test_partition_yields_fewest_chains_each_property_once():
    """Conflicting pairs (neither reaches the other): p1 with every other
    property, p0-p4 and p2-p3.  Three classes suffice, chains of 2, 3 and
    3 steps, and no property is chained twice."""
    table = [[1, 2, 3], [4, 5, 4], [4, 5, 4], [3, 3, 3], [4, 4, 4], [5, 5, 5]]
    m = table_model("fewest", table)
    props = [Property(f"p{i}", state_eq(m, s), TRUE)
             for i, s in enumerate((1, 3, 4, 5, 2))]
    res = generate_chain(m, props, state_eq(m, 0), TRUE, EngineConfig(k_max=8))
    assert res.status == MULTI
    assert len(res.chains) == 3
    assert res.total_length == 8
    for c in res.chains:
        _check_chain(m, props, TRUE, c)
    names = sorted(n for c in res.chains for n in c.covers)
    assert names == sorted(p.name for p in props)


def test_partition_stops_on_a_conflict_free_unchainable_set():
    """Every pair reaches each other in some direction, yet no single
    chain covers both properties: there is nothing to split, so the run
    fails at once instead of retrying the same set."""
    gen = random_model(287402630, n_states=13, n_inputs=2, n_props=2,
                       multi_state=True)
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=6))
    assert res.status == FAILED
    assert res.reason == "no single chain covers the property set"


M62B_MODEL = """
model m62b {
  state x : 0..3 init 0;
  state f : bool init false;
  input a : 0..2;
  trans {
    x' = (a == 2) ? (3) : ((a == 1) ? (3) : ((!f) ? (0 < x ? x - 1 : x) : (0)));
    f' = (x == 3) ? !f : f;
  }
}
"""

M62B_PROPS = """
property p0 { assume x < 1; assert true; }
property p1 { assume a == 1; assert true; }
property p2 { assume a == 1 && f; assert true; }
property p3 { assume x < 1; assert true; }
"""


def test_a_search_stopped_at_a_limit_claims_no_more():
    """On this two-variable model a 3-step chain exists, but the search
    may stop at a split or round limit first: then the reason names the
    limit and never says that no single chain exists."""
    model, diags = parse_model(M62B_MODEL)
    assert model is not None, [str(d) for d in diags]
    props, _ = parse_properties(M62B_PROPS, model)
    assert oracle_min_chain(model, props, model.init_expr(), TRUE) == 3
    res = generate_chain(model, props, model.init_expr(), TRUE, EngineConfig(k_max=16))
    assert NO_SINGLE_CHAIN not in res.reason
    if res.status == FAILED:
        assert (f"{MAX_SPLITS} refinement splits" in res.reason
                or f"{MAX_ROUNDS} check/repair rounds" in res.reason), res.reason
    else:
        for c in res.chains:
            _check_chain(model, props, TRUE, c)


#: The reasons that name a limit the search stopped at, rather than a
#: proof that no chain exists.
LIMIT_REASONS = (f"within {MAX_SPLITS} refinement splits",
                 f"within {MAX_ROUNDS} check/repair rounds",
                 "no chain found for given bound",
                 "satisfies the invariant and input assumption")


def test_multi_variable_sweep_agrees_with_the_oracle():
    """Differential sweep over seeded models with several state variables,
    partitioning off: every chain replays and is no shorter than the
    oracle's, a certified one is exactly as long, and a run fails only
    where no chain exists or with a reason that names a limit."""
    cfg = EngineConfig(k_max=16, allow_partition=False)
    for seed in range(100):
        model, props, init, final = multi_var_case(seed)
        want = oracle_min_chain(model, props, init, final)
        res = generate_chain(model, props, init, final, cfg)
        for c in res.chains:
            _check_chain(model, props, final, c)
        if res.chains:
            assert want is not None and res.total_length >= want, seed
        if res.status == MINIMAL:
            assert res.total_length == want, seed
        if res.status == FAILED and want is not None:
            assert any(r in res.reason for r in LIMIT_REASONS), (seed, res.reason)


def test_a_path_query_past_every_run_fails_the_run():
    """No run of two steps keeps to the invariant, so once the unrolling
    is that deep, repair's path queries are unsatisfiable with no vertex
    pinned: the run ends `failed` with that reason, partitioning on or
    off, and no chain exists."""
    model, diags = parse_model(HORIZON_MODEL)
    assert model is not None, [str(d) for d in diags]
    props = _props_of(model, HORIZON_PROPS)
    assert oracle_min_chain(model, props, model.init_expr(), TRUE) is None
    for partition in (True, False):
        res = generate_chain(model, props, model.init_expr(), TRUE,
                             EngineConfig(k_max=16, allow_partition=partition))
        assert res.status == FAILED and not res.chains
        assert res.reason.startswith("path query unsatisfiable without any "
                                     "pinned vertex: no run of"), res.reason


def test_other_bmc_errors_still_propagate(monkeypatch, cruise_model, cruise_props,
                                          cruise_final):
    """Only the horizon's error ends a run `failed`; any other `BmcError`
    is a fault and reaches the caller."""
    def broken(*args):
        raise bmc.BmcError("broken query")
    monkeypatch.setattr(engine, "check_path", broken)
    with pytest.raises(bmc.BmcError, match="broken query"):
        generate_chain(cruise_model, cruise_props, cruise_final, cruise_final)


def test_a_class_without_a_chain_fails_the_run():
    """The partition makes two classes and the class ['p1'] has no chain
    within the bound on its own: the run fails naming that class and its
    own chain attempt's reason, and no class is split again."""
    gen = random_model(77, n_states=7, n_inputs=2, n_props=3, multi_state=True)
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=2))
    assert res.status == FAILED and not res.chains
    assert res.reason == "partition class ['p1'] failed: no chain found for given bound 2"
    assert res.stats.partitions == 2


def test_generation_deadline_is_checked_by_the_engine(cruise_model, cruise_props,
                                                      cruise_final):
    """A solver without a deadline still stops at the engine's own check."""
    from chainforge.sat import Solver, SolverLimit
    cfg = EngineConfig(deadline=time.monotonic() - 1.0, solver_factory=Solver)
    with pytest.raises(SolverLimit, match="generation deadline exceeded"):
        generate_chain(cruise_model, cruise_props, cruise_final, cruise_final, cfg)


def _props_of(model, text):
    props, diags = parse_properties(text, model)
    assert not any(d.severity == "error" for d in diags)
    return props


def test_partition_conflicts_do_not_compose_through_two_state_triggers():
    """States {1, 2} and {3, 4} are closed clusters, so no run covers
    both p2 and p3.  p2 -> p1 and p1 -> p3 both have weight 0, through
    different states of p1; a conflict taken from the closure would miss
    p2 - p3 and leave nothing to split."""
    m = table_model("twostate", [[3, 2, 3], [2, 2, 1], [1, 1, 1], [4, 3, 3],
                                 [3, 3, 3]])
    props = _props_of(m, """
        property p0 { assume s == 2 || s == 3; assert true; }
        property p1 { assume s == 4 || s == 1; assert true; }
        property p2 { assume s == 4 && a == 2; assert next(s) == 3; }
        property p3 { assume s == 1 && a == 1; assert next(s) == 2; }
    """)
    res = generate_chain(m, props, state_eq(m, 0), TRUE, EngineConfig(k_max=4))
    assert res.status == MULTI
    assert [c.length for c in res.chains] == [3, 3]
    for c in res.chains:
        _check_chain(m, props, TRUE, c)
    names = sorted(n for c in res.chains for n in c.covers)
    assert names == sorted(p.name for p in props)


def _hub_case():
    """A hub entering three closed 4-state clusters, with properties in
    all three: (model, properties), start state 0, final set TRUE."""
    table = [[1, 5, 9],
             [2, 3, 1], [3, 1, 4], [4, 4, 2], [1, 2, 3],
             [6, 8, 5], [7, 5, 6], [8, 6, 8], [5, 7, 7],
             [10, 12, 11], [11, 9, 9], [12, 10, 12], [9, 11, 10]]
    m = table_model("hub", table)
    props = _props_of(m, """
        property p0 { assume s == 2 && a == 1; assert next(s) == 1; }
        property p1 { assume s == 4 && a == 2; assert next(s) == 3; }
        property p2 { assume s == 6 && a == 0; assert next(s) == 7; }
        property p3 { assume s == 8 && a == 1; assert next(s) == 7; }
        property p4 { assume s == 11 && a == 2; assert next(s) == 12; }
    """)
    return m, props


def test_partition_cost_does_not_depend_on_the_bound():
    """A hub entering three closed 4-state clusters: the cross-cluster
    pairs are proved unreachable at every depth once no simple run can
    reach anything new, so k_max 8 and 50 do the same work."""
    m, props = _hub_case()
    runs = [generate_chain(m, props, state_eq(m, 0), TRUE, EngineConfig(k_max=k))
            for k in (8, 50)]
    for res in runs:
        assert res.status == MULTI
        assert res.stats.k_reached < 8
        for c in res.chains:
            _check_chain(m, props, TRUE, c)
    short, long_ = runs
    assert [c.length for c in short.chains] == [c.length for c in long_.chains]
    assert [c.covers for c in short.chains] == [c.covers for c in long_.chains]
    assert short.stats.solver_calls == long_.stats.solver_calls


def test_later_builds_skip_pairs_refuted_to_the_bound():
    """The partition's exhaustive build starts without the cross-cluster
    pairs the first build proved unreachable, so it stops where the
    clusters' own pairs resolve, at either bound, and `k_reached` counts
    it."""
    m, props = _hub_case()
    runs = [generate_chain(m, props, state_eq(m, 0), TRUE, EngineConfig(k_max=k))
            for k in (8, 50)]
    assert runs[0].graph.k_stop == runs[1].graph.k_stop < 8
    for res in runs:
        assert res.status == MULTI
        assert res.stats.k_reached >= res.graph.k_stop


def _join_cases():
    """(id, model, properties, start, final, k_max, does every planned
    path join)."""
    for seed in (2, 7, 13):
        gen = random_model(seed, n_states=10, n_inputs=3, n_props=4)
        yield seed, gen.model, gen.props, gen.init_expr, gen.final_expr, 30, True
    m, props = _hub_case()
    yield "hub", m, props, state_eq(m, 0), TRUE, 8, True
    m, props, i_expr = split_table_case()
    yield "split", m, props, i_expr, i_expr, 12, False
    gen = random_model(23, n_states=12, n_inputs=2, n_props=4, multi_state=True)
    yield "multi-23", gen.model, gen.props, gen.init_expr, gen.final_expr, 20, False


@pytest.mark.parametrize("case", list(_join_cases()), ids=lambda case: str(case[0]))
def test_joined_witnesses_give_the_path_querys_outcome(case, monkeypatch):
    """Concretising by joining the edges' k-reach witnesses gives what
    the monolithic path query gives, with no solved planned path where
    every planned path joins; where one does not (a repaired range, a
    junction of two-state triggers), the path query runs and the outcome
    is the same."""
    _, model, props, init, final, k_max, joins = case
    checks = []
    check_path = engine.check_path
    monkeypatch.setattr(engine, "check_path",
                        lambda *a: checks.append(check_path(*a)) or checks[-1])

    def outcome():
        checks.clear()
        res = generate_chain(model, props, init, final, EngineConfig(k_max=k_max))
        for c in res.chains:
            _check_chain(model, props, final, c)
        st = res.stats
        assert st.joined_chains == sum(chk.joined for chk in checks)
        return (res.status, [c.length for c in res.chains], st.repair_increments,
                st.refinement_splits, st.abstract_path, st.abstract_weights,
                st.first_failed_path), st.joined_chains, \
            sum(not chk.joined for chk in checks)

    joined, n_joined, n_solved = outcome()
    monkeypatch.setattr(bmc, "join_witnesses", lambda *a: None)
    solved, n_joined_unjoinable, n_solved_unjoinable = outcome()
    assert joined == solved
    assert n_joined_unjoinable == 0 and n_solved_unjoinable > 0
    if joins:
        assert n_solved == 0 and n_joined == len(joined[1]) > 0
    else:
        assert n_solved > 0 and joined[2] + joined[3] > 0


def _case_split_cases():
    for seed in (2, 7, 21):
        gen = random_model(seed, n_states=16, n_inputs=3, n_props=5)
        yield seed, gen.model, gen.props, gen.init_expr, gen.final_expr, 60
    for seed in (23, 29, 34):
        gen = random_model(seed, n_states=12, n_inputs=2, n_props=4, multi_state=True)
        yield f"multi-{seed}", gen.model, gen.props, gen.init_expr, gen.final_expr, 20
    m, props, i_expr = split_table_case()
    yield "split", m, props, i_expr, i_expr, 12


@pytest.mark.parametrize("case", list(_case_split_cases()), ids=lambda case: str(case[0]))
def test_case_splits_leave_the_outcome_unchanged(case, monkeypatch):
    """The state dispatch encoded as one case split and as the nested
    if-then-else chain gives equisatisfiable formulas, so the outcome
    is the same: status, chain lengths, abstraction, planned path and
    what repair and refinement did to it."""
    _, model, props, init, final, k_max = case

    def outcome():
        res = generate_chain(model, props, init, final, EngineConfig(k_max=k_max))
        for c in res.chains:
            _check_chain(model, props, final, c)
        st = res.stats
        return (res.status, [c.length for c in res.chains], res.graph.named_edges(),
                st.abstract_path, st.abstract_weights, st.repair_increments,
                st.refinement_splits, st.first_failed_path)

    split = outcome()
    monkeypatch.setattr(encode, "CASE_ARMS", math.inf)
    assert outcome() == split


def test_property_named_like_the_final_vertex():
    """Weights are cached by pins, not names: a property called F must
    not answer for the p -> final pair, which would leave the chain
    routed through a detour."""
    m = table_model("t", [[1, 1], [2, 2], [1, 3], [4, 4], [4, 4]])
    init, final = state_eq(m, 0), state_eq(m, 4)
    for name in ("F", "G"):
        props = _props_of(m, f"""
            property {name} {{ assume s == 1; assert true; }}
            property p {{ assume s == 2; assert true; }}
        """)
        res = generate_chain(m, props, init, final, EngineConfig(k_max=8))
        assert res.total_length == oracle_min_chain(m, props, init, final) == 4
        _check_chain(m, props, final, res.chains[0])


def test_no_certificate_above_the_lower_bound():
    """Seed 21 stops at the first depth with a covering path and
    concretises 15 steps where 12 suffice; the pair weights known by
    then do not prove 15 minimal."""
    gen = random_model(21, n_states=16, n_inputs=3, n_props=5)
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=60))
    assert res.total_length == 15
    assert oracle_min_chain(gen.model, gen.props, gen.init_expr,
                            gen.final_expr) == 12
    assert res.status != MINIMAL


def test_large_instance_takes_the_heuristic():
    """15 properties make 17 vertices, above the exact limit: the path
    comes from the heuristic, the chain is not certified, and it replays
    covering every property."""
    gen = random_model(2, n_states=24, n_inputs=3, n_props=15)
    res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                         EngineConfig(k_max=60))
    assert res.stats.backend == "heuristic"
    assert res.status == MINIMISED
    assert len(res.chains) == 1
    chain = res.chains[0]
    assert chain.covers.keys() == {p.name for p in gen.props}
    assert replay(gen.model, gen.props, gen.final_expr, chain.inputs,
                  start=chain.trace[0]).ok


def test_certified_chains_are_minimal_on_random_models():
    """Default configuration: every certified chain has the oracle's
    minimal length, for single- and two-state triggers alike."""
    rng = random.Random(12)
    certified = {False: 0, True: 0}
    for multi, cases in ((False, 90), (True, 50)):
        for _ in range(cases):
            gen = random_model(rng.randrange(1 << 30), n_states=rng.randint(6, 12),
                               n_inputs=rng.randint(2, 3),
                               n_props=rng.randint(3, 5), multi_state=multi)
            res = generate_chain(gen.model, gen.props, gen.init_expr,
                                 gen.final_expr, EngineConfig(k_max=30))
            if res.status != MINIMAL:
                continue
            certified[multi] += 1
            assert res.total_length == oracle_min_chain(
                gen.model, gen.props, gen.init_expr, gen.final_expr)
    assert certified[False] >= 50 and certified[True] >= 1


def test_partition_vertex_sets_no_conflicts():
    assert partition_vertex_sets([1, 2, 3], []) == [{1, 2, 3}]


def test_partition_vertex_sets_pairwise_conflicts():
    out = partition_vertex_sets([1, 2], [(1, 2)])
    assert sorted(sorted(s) for s in out) == [[1], [2]]
    out = partition_vertex_sets([1, 2, 3], [(1, 2)])
    assert len(out) == 2
    for s in out:
        assert not ({1, 2} <= s)
    assert set().union(*out) == {1, 2, 3}


def test_partition_vertex_sets_random_validity():
    from util import chromatic_number
    rng = random.Random(31)
    for case in range(200):
        n = rng.randint(2, 7)
        vertices = list(range(n))
        conflicts = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    conflicts.append((i, j))
        out = partition_vertex_sets(vertices, conflicts)
        assert set().union(*out) == set(vertices)
        bad = {frozenset(c) for c in conflicts}
        for s in out:
            for c in bad:
                assert not (c <= s), (vertices, conflicts, out)
        assert sum(map(len, out)) == n, (vertices, conflicts, out)  # disjoint
        assert len(out) == chromatic_number(vertices, conflicts), \
            (vertices, conflicts, out)


def test_strengthened_invariant_keeps_result(cruise_model, cruise_props,
                                             cruise_final):
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final,
                         EngineConfig(strengthen_invariant=True))
    assert res.total_length == 9
    assert {e for e in res.graph.named_edges()} == {
        ("I", "p1", 2), ("I", "p3", 2), ("I", "p4", 2),
        ("p1", "p2", 2), ("p1", "p3", 1),
        ("p2", "p1", 1), ("p2", "p3", 1),
        ("p3", "p1", 2), ("p3", "F", 2),
        ("p4", "p1", 2), ("p4", "p3", 2),
    }


def test_strengthened_invariant_explores_from_the_start_set(cruise_model,
                                                           cruise_props,
                                                           cruise_final):
    """A start set other than the declared init: the states reachable
    from it are kept, so strengthening keeps the chain found without it."""
    start, _ = parse_state_set("mode == OFF && speed == 1 && enable", cruise_model)
    for strengthen in (False, True):
        res = generate_chain(cruise_model, cruise_props, start, cruise_final,
                             EngineConfig(strengthen_invariant=strengthen))
        assert res.status == MINIMAL, res.reason
        assert res.total_length == 9
        assert eval_expr(start, res.chains[0].trace[0])
        _check_chain(cruise_model, cruise_props, cruise_final, res.chains[0])


def test_oracle_lower_bound_on_random_models():
    rng = random.Random(41)
    for case in range(8):
        gen = random_model(rng.randrange(1 << 30), n_states=rng.randint(5, 9),
                           n_inputs=2, n_props=2)
        res = generate_chain(gen.model, gen.props, gen.init_expr, gen.final_expr,
                             EngineConfig(k_max=16))
        opt = oracle_min_chain(gen.model, gen.props, gen.init_expr, gen.final_expr)
        if res.chains and len(res.chains) == 1:
            assert opt is not None
            assert res.total_length >= opt
            for c in res.chains:
                _check_chain(gen.model, gen.props, gen.final_expr, c)


def test_refine_degenerate_split_isolates_clone():
    """Splitting a vertex whose only edges are the failing in/out pair
    leaves the clone with no onward edge and the original unreachable, so
    the existence check fails and partitioning takes over."""
    from chainforge.engine import refine
    from chainforge.model import TRUE as T
    from chainforge.reachgraph import ReachGraph, Vertex, exists_covering_path
    vs = [Vertex(0, "I", "init", T), Vertex(1, "p", "prop", T, T),
          Vertex(2, "F", "final", T)]
    g = ReachGraph(vs, final_idx=2)
    g.weights = {(0, 1): 1, (1, 2): 1}
    assert exists_covering_path(g)
    clone = refine(g, pred=0, mid=1, succ=2)
    assert (0, 1) not in g.weights           # original lost the incoming edge
    assert (0, clone) in g.weights           # clone took it
    assert all(b != 2 for (a, b) in g.weights if a == clone)  # no onward edge
    assert not exists_covering_path(g)


def test_generation_with_external_solver_backend(cruise_model,
                                                 broken_chain_props,
                                                 cruise_final, monkeypatch):
    import sys
    from pathlib import Path
    stub = Path(__file__).parent / "external_stub.py"
    monkeypatch.setenv("CHAINFORGE_SOLVER", f"external:{sys.executable} {stub}")
    res = generate_chain(cruise_model, broken_chain_props, cruise_final,
                         cruise_final, EngineConfig(k_max=8))
    assert res.total_length == 4
    _check_chain(cruise_model, broken_chain_props, cruise_final, res.chains[0])


def test_generation_with_model_verification(cruise_model, cruise_props,
                                            cruise_final):
    from chainforge.sat import Solver
    cfg = EngineConfig(solver_factory=lambda: Solver(verify_models=True))
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final,
                         cfg)
    assert res.total_length == 9


def test_exhaust_mode_reaches_diameter(cruise_model, cruise_props, cruise_final):
    d = reachability_diameter(cruise_model)
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final,
                         EngineConfig(k_max=d, exhaust_k=True))
    assert res.total_length == 9
    # with every pair resolved, the graph holds all finite weights <= d
    w = pair_min_weights(cruise_model, cruise_props, cruise_final, cruise_final)
    got = {(a, b): x for (a, b, x) in res.graph.named_edges()}
    assert got == {k: v for k, v in w.items() if v <= d}
