import math
import random

import pytest

from chainforge.bmc import Unrolling
from chainforge.optimizer import (AtspInstance, AtspSizeError,
                                  instance_from_closure, solve_atsp,
                                  solve_atsp_exact, solve_atsp_heuristic,
                                  tour_to_vertex_path)
from chainforge.reachgraph import (build_reach_graph, get_covering_path,
                                   transitive_closure)

from util import brute_atsp_path

INF = math.inf


def _inst(cost, start=0, end=None):
    n = len(cost)
    end = n - 1 if end is None else end
    return AtspInstance(list(range(n)), [list(r) for r in cost], start, end)


def _rand_instance(rng, n, p_missing=0.15, symmetric=False):
    cost = [[INF] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < p_missing:
                continue
            cost[i][j] = rng.randint(1, 9)
    return _inst(cost)


def test_three_cycle_unit_costs():
    inst = _inst([[INF, 1, INF], [INF, INF, 1], [1, INF, INF]], start=0, end=2)
    tour = solve_atsp_exact(inst)
    assert tour.order == [0, 1, 2]
    assert tour.cost == 2


def test_exact_equals_brute_force_on_random_instances():
    rng = random.Random(21)
    nontrivial = 0
    for case in range(500):
        n = rng.randint(2, 8)
        inst = _rand_instance(rng, n, p_missing=rng.choice((0.0, 0.1, 0.3)))
        want = brute_atsp_path(inst.cost, inst.start, inst.end)
        tour = solve_atsp_exact(inst)
        if want == INF:
            assert tour is None
        else:
            nontrivial += 1
            assert tour is not None
            assert tour.cost == want
            assert tour.order[0] == inst.start and tour.order[-1] == inst.end
            assert sorted(tour.order) == list(range(n))
    assert nontrivial > 300


def test_exact_refuses_oversize():
    inst = _inst([[1] * 20 for _ in range(20)])
    with pytest.raises(AtspSizeError):
        solve_atsp_exact(inst)


def test_heuristic_sanity_vs_exact():
    rng = random.Random(22)
    for case in range(120):
        n = rng.randint(2, 8)
        inst = _rand_instance(rng, n, p_missing=rng.choice((0.0, 0.1)))
        exact = solve_atsp_exact(inst)
        heur = solve_atsp_heuristic(inst)
        if exact is None:
            continue
        if heur is not None:
            assert heur.cost >= exact.cost
            assert heur.cost < INF
            assert sorted(heur.order) == list(range(n))


def test_heuristic_two_calls_agree():
    rng = random.Random(23)
    inst = _rand_instance(rng, 9, p_missing=0.1)
    t1 = solve_atsp_heuristic(inst)
    t2 = solve_atsp_heuristic(inst)
    assert (t1 is None) == (t2 is None)
    if t1 is not None:
        assert t1.order == t2.order and t1.cost == t2.cost


def test_heuristic_none_when_no_circuit():
    inst = _inst([[INF, 1, INF], [INF, INF, INF], [INF, INF, INF]])
    assert solve_atsp_heuristic(inst) is None


def test_forced_order_asymmetric():
    # only one feasible order: 0 -> 2 -> 1 -> 3
    cost = [[INF, INF, 1, INF],
            [INF, INF, INF, 1],
            [INF, 1, INF, INF],
            [INF, INF, INF, INF]]
    inst = _inst(cost)
    tour = solve_atsp_exact(inst)
    assert tour.order == [0, 2, 1, 3]
    heur = solve_atsp_heuristic(inst)
    assert heur is not None and heur.order == tour.order


def test_heuristic_seeded_by_insertion_when_every_restart_dead_ends():
    # closed order s < v4 < v1 < v2 < v3 < e; nearest neighbour leaves s
    # for one of v1..v3 and can never reach v4 again, so only the
    # insertion seed yields a tour
    s, v1, v2, v3, v4, e = range(6)
    rank = {s: 0, v4: 1, v1: 2, v2: 3, v3: 4, e: 5}
    cost = [[INF] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            if rank[a] < rank[b]:
                cost[a][b] = rank[b] - rank[a]
    cost[s][v1], cost[s][v2], cost[s][v3], cost[s][v4] = 1, 2, 3, 10
    inst = _inst(cost, start=s, end=e)
    tour = solve_atsp_heuristic(inst)
    assert tour is not None and tour.order == [s, v4, v1, v2, v3, e]


def test_cruise_instance_cut_gives_length_nine(cruise_model, cruise_props,
                                               cruise_final):
    unr = Unrolling(cruise_model)
    out = build_reach_graph(unr, cruise_props, cruise_final, cruise_final, k_max=50)
    closed = transitive_closure(out.graph)
    inst = instance_from_closure(closed, keep=[v.idx for v in out.graph.vertices])
    tour, backend = solve_atsp(inst)
    assert backend == "exact"
    assert tour.cost == 9
    names = [out.graph.vertices[v].name for v in tour_to_vertex_path(inst, tour)]
    assert names == ["I", "p4", "p1", "p2", "p3", "F"]
    heur = solve_atsp_heuristic(inst)
    assert heur is not None and heur.cost == 9


def test_collapse_drops_member_but_keeps_bypass_distance():
    """Restricting the closure to the path's group members keeps every
    route that ran through a dropped clone as a composite distance."""
    from chainforge.model import TRUE as T
    from chainforge.reachgraph import ReachGraph, Vertex, transitive_closure
    vs = [Vertex(0, "I", "init", T), Vertex(1, "a", "prop", T, T),
          Vertex(2, "b", "prop", T, T), Vertex(3, "F", "final", T)]
    g = ReachGraph(vs, final_idx=3)
    # b is only reachable through a; dropping a must keep I->b as 1+2
    g.weights = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 2): 5}
    closed = transitive_closure(g)
    inst = instance_from_closure(closed, keep=[0, 2, 3])
    pos = {v: i for i, v in enumerate(inst.ids)}
    assert inst.cost[pos[0]][pos[2]] == 3     # bypass through the dropped vertex


def test_singleton_groups_leave_instance_complete(cruise_model, cruise_props,
                                                  cruise_final):
    """On an unrefined graph the covering path keeps every vertex, so the
    instance the engine solves holds them all."""
    unr = Unrolling(cruise_model)
    out = build_reach_graph(unr, cruise_props, cruise_final, cruise_final, k_max=50)
    closed = transitive_closure(out.graph)
    cover = get_covering_path(closed)
    assert sorted(cover) == [v.idx for v in out.graph.vertices]
    kept = instance_from_closure(closed, keep=cover)
    assert kept.ids == [v.idx for v in out.graph.vertices]
