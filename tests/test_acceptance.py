"""Acceptance gate: one test per criterion, each printing a PASS line on
success (failures surface through the assert).  Run with `pytest -v
tests/test_acceptance.py` or `-s` to see the lines."""

import math
import random
import time

from chainforge.engine import EngineConfig, MULTI, generate_chain
from chainforge.model import Property, TRUE, eval_expr, replay, run_trace
from chainforge.optimizer import AtspInstance, solve_atsp_exact
from chainforge.oracle import (oracle_min_chain, random_model,
                               reachability_diameter, state_eq, table_model)
from chainforge.reachgraph import (ReachGraph, Vertex, exists_covering_path)
from chainforge.sat import Solver

from util import (brute_atsp_path, brute_covering_path_exists, lit_value,
                  random_cnf, random_digraph, tt_check_model, tt_satisfiable)


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_cruise_end_to_end(cruise_model, cruise_props, cruise_final):
    t0 = time.perf_counter()
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final)
    dt = time.perf_counter() - t0
    assert len(res.chains) == 1
    assert res.total_length == 9
    rep = replay(cruise_model, cruise_props, cruise_final, res.chains[0].inputs)
    assert rep.ok and not rep.violations
    assert set(rep.covers) == {"p1", "p2", "p3", "p4"}
    assert dt < 10.0
    _report(1, f"one chain of length 9, all assertions hold ({dt:.2f}s)")


def test_criterion_2_kreach_graph_fidelity(cruise_model, cruise_props,
                                           cruise_final):
    res = generate_chain(cruise_model, cruise_props, cruise_final, cruise_final)
    got = set(res.graph.named_edges())
    assert res.graph.k_stop == 2
    # NOTE: this pinned set disagrees with the explicit-state BFS derivation
    # on two edges — the true depth-2 graph (pinned in test_reachgraph and
    # cross-checked by oracle.pair_min_weights) has I->p3 at weight 2 and
    # p2->p4 only at weight 3.  The assertion is kept as stated on purpose.
    expected = {
        ("I", "p1", 2), ("I", "p4", 2),
        ("p1", "p2", 2), ("p2", "p1", 1), ("p1", "p3", 1), ("p3", "p1", 2),
        ("p2", "p3", 1), ("p2", "p4", 2), ("p4", "p1", 2), ("p4", "p3", 2),
        ("p3", "F", 2),
    }
    assert got == expected, (
        f"depth-2 graph differs from the pinned set: "
        f"extra={sorted(got - expected)}, missing={sorted(expected - got)}")
    _report(2, "depth-2 abstraction matches the pinned 11-edge set")


def test_criterion_3_broken_chain_repair(cruise_model, broken_chain_props,
                                         cruise_final):
    res = generate_chain(cruise_model, broken_chain_props, cruise_final,
                         cruise_final)
    st = res.stats
    assert st.initial_abstract_path == ["I", "p1", "p2", "F"]
    assert st.initial_abstract_weights == [0, 1, 2]
    assert st.first_failed_path == ["I", "p1", "p2"]
    assert st.repair_increments == 1
    assert len(res.chains) == 1
    assert res.total_length == 4
    rep = replay(cruise_model, broken_chain_props, cruise_final,
                 res.chains[0].inputs)
    assert rep.ok and set(rep.covers) == {"p1", "p2"}
    _report(3, "failed path <I,p1,p2> at weights (0,1,2), one increment, "
               "repaired chain of length 4")


def test_criterion_4_minimality_matches_oracle():
    rng = random.Random(440)
    total, compared = 0, 0
    for case in range(220):
        seed = rng.randrange(1 << 30)
        gen = random_model(seed, n_states=rng.randint(5, 11), n_inputs=2,
                           n_props=rng.randint(2, 4))
        d = reachability_diameter(gen.model)
        # a property-anchored weight spends one step on the covering
        # transition before travelling, so the useful bound is d + 1
        cfg = EngineConfig(k_max=d + 1, exhaust_k=True)
        res = generate_chain(gen.model, gen.props, gen.init_expr,
                             gen.final_expr, cfg)
        opt = oracle_min_chain(gen.model, gen.props, gen.init_expr,
                               gen.final_expr)
        total += 1
        if not res.chains or len(res.chains) != 1:
            assert opt is None, (seed, res.reason, opt)
            continue
        assert opt is not None and res.total_length >= opt, (seed, opt)
        if res.stats.path_vertex_distinct:
            compared += 1
            assert res.total_length == opt, \
                (seed, res.total_length, opt, res.stats.abstract_path)
    assert total >= 200
    assert compared >= total // 2        # the comparison must not be vacuous
    _report(4, f"engine length equals product-BFS optimum on {compared} of "
               f"{total} singleton-trigger models")


def test_criterion_5_completeness_multi_state():
    rng = random.Random(550)
    total = 0
    for case in range(220):
        seed = rng.randrange(1 << 30)
        gen = random_model(seed, n_states=rng.randint(6, 12), n_inputs=2,
                           n_props=rng.randint(2, 4), multi_state=True)
        d = reachability_diameter(gen.model)
        opt = oracle_min_chain(gen.model, gen.props, gen.init_expr,
                               gen.final_expr)
        assert opt is not None           # strongly connected: a chain exists
        cfg = EngineConfig(k_max=d + 2, allow_partition=False)
        res = generate_chain(gen.model, gen.props, gen.init_expr,
                             gen.final_expr, cfg)
        total += 1
        assert res.chains and len(res.chains) == 1, (seed, res.reason)
        assert res.total_length >= opt
        chain = res.chains[0]
        assert list(chain.trace) == run_trace(gen.model, chain.trace[0],
                                              chain.inputs)
        assert eval_expr(gen.final_expr, chain.trace[-1])
        assert set(chain.covers) == {p.name for p in gen.props}
    assert total >= 200
    _report(5, f"single chain found on all {total} strongly connected "
               f"multi-state models")


def test_criterion_6_atsp_exact_vs_brute_force():
    rng = random.Random(660)
    cases = 0
    for case in range(520):
        n = rng.randint(2, 8)
        cost = [[math.inf] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() > 0.2:
                    cost[i][j] = rng.randint(1, 9)
        inst = AtspInstance(list(range(n)), cost, 0, n - 1)
        want = brute_atsp_path(cost, 0, n - 1)
        tour = solve_atsp_exact(inst)
        if want == math.inf:
            assert tour is None
        else:
            assert tour is not None and tour.cost == want
        cases += 1
    assert cases >= 500
    _report(6, f"Held-Karp equals permutation enumeration on {cases} instances")


def test_criterion_7_existence_check_vs_exhaustive_search():
    rng = random.Random(770)
    cases = 0
    for case in range(520):
        n = rng.randint(3, 8)
        edges = random_digraph(rng, n, rng.choice((0.15, 0.3, 0.5)))
        vs = []
        for i in range(n):
            kind = "init" if i == 0 else ("final" if i == n - 1 else "prop")
            vs.append(Vertex(i, f"v{i}", kind, TRUE,
                             TRUE if kind == "prop" else None))
        g = ReachGraph(vs, final_idx=n - 1)
        for e in edges:
            g.weights[e] = 1
        got = exists_covering_path(g)
        want = brute_covering_path_exists(n, edges, 0, n - 1,
                                          list(range(1, n - 1)))
        assert got == want, (n, sorted(edges))
        cases += 1
    assert cases >= 500
    _report(7, f"existence conditions equal exhaustive search on {cases} digraphs")


def test_criterion_8_sat_layer_soundness():
    rng = random.Random(880)
    cases = 0
    while cases < 1000:
        nvars = rng.randint(2, 16) if rng.random() < 0.15 else rng.randint(2, 9)
        clauses = random_cnf(rng, nvars, rng.randint(1, 4 * nvars))
        s = Solver()
        for _ in range(nvars):
            s.new_var()
        for c in clauses:
            s.add_clause(c)
        assumptions = []
        if rng.random() < 0.5:
            assumptions = [v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, nvars + 1),
                                               rng.randint(1, nvars))]
        res = s.solve(assumptions)
        want = tt_satisfiable(nvars, clauses + [[a] for a in assumptions])
        assert (res.status == "sat") == want, (nvars, clauses, assumptions)
        if res.status == "sat":
            assert tt_check_model(clauses, res.model)
            assert all(lit_value(res.model, a) for a in assumptions)
        else:
            assert set(res.core) <= set(assumptions)
            assert not tt_satisfiable(nvars, clauses + [[a] for a in res.core])
        cases += 1
    _report(8, f"truth-table agreement, model and core soundness on {cases} formulas")


def test_criterion_9_partitioning_two_clusters():
    table = [
        [1, 3],   # 0: init; the first input commits to a cluster
        [2, 1],   # 1,2: cluster A
        [1, 2],
        [4, 3],   # 3,4: cluster B
        [3, 4],
    ]
    m = table_model("clusters", table)
    props = [Property("pa", state_eq(m, 2), TRUE),
             Property("pb", state_eq(m, 4), TRUE)]
    init = state_eq(m, 0)
    final = TRUE
    res = generate_chain(m, props, init, final, EngineConfig(k_max=10))
    assert res.status == MULTI
    assert len(res.chains) == 2
    covered = set()
    for chain in res.chains:
        assert list(chain.trace) == run_trace(m, chain.trace[0], chain.inputs)
        assert eval_expr(final, chain.trace[-1])
        covered |= set(chain.covers)
    assert covered == {"pa", "pb"}
    _report(9, "two mutually unreachable clusters give exactly 2 covering chains")
