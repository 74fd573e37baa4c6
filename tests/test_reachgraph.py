import random

from chainforge.bmc import Unrolling
from chainforge.engine import refine
from chainforge.model import TRUE
from chainforge.reachgraph import (ReachGraph, Vertex,
                                   build_reach_graph, exists_covering_path,
                                   get_covering_path, transitive_closure)

from util import brute_covering_path_exists, random_digraph


def graph_from_edges(n, edges, weights=None):
    """Vertices 0..n-1 with 0 = start, n-1 = final, rest properties."""
    vs = []
    for i in range(n):
        kind = "init" if i == 0 else ("final" if i == n - 1 else "prop")
        name = "I" if i == 0 else ("F" if i == n - 1 else f"p{i}")
        vs.append(Vertex(i, name, kind, TRUE, None if kind != "prop" else TRUE))
    g = ReachGraph(vs, final_idx=n - 1)
    for (a, b) in edges:
        g.weights[(a, b)] = 1 if weights is None else weights[(a, b)]
    return g


def test_exists_simple_and_isolated():
    g = graph_from_edges(4, {(0, 1), (1, 2), (2, 3)})
    assert exists_covering_path(g)
    g2 = graph_from_edges(4, {(0, 3)})           # two isolated property vertices
    assert not exists_covering_path(g2)


def test_exists_covering_path_equals_brute_force():
    rng = random.Random(5)
    agree_true = agree_false = 0
    for case in range(500):
        n = rng.randint(3, 8)
        edges = random_digraph(rng, n, rng.choice((0.15, 0.3, 0.5)))
        g = graph_from_edges(n, edges)
        got = exists_covering_path(g)
        want = brute_covering_path_exists(n, edges, 0, n - 1,
                                          required=list(range(1, n - 1)))
        assert got == want, (n, sorted(edges))
        agree_true += got
        agree_false += not got
    assert agree_true > 50 and agree_false > 50   # both outcomes exercised


def test_constructive_path_found_iff_exists_and_is_valid():
    rng = random.Random(6)
    split_paths = 0
    for case in range(500):
        n = rng.randint(3, 8)
        edges = random_digraph(rng, n, rng.choice((0.2, 0.35, 0.5)))
        g = graph_from_edges(n, edges)
        closed = transitive_closure(g)
        path = get_covering_path(closed)
        assert (path is not None) == exists_covering_path(g)
        if path is not None:
            assert path[0] == 0 and path[-1] == n - 1
            assert set(path) >= set(range(1, n - 1))
            assert all(closed.has(a, b) for a, b in zip(path, path[1:]))
        # refinement splits: one member per group, every link in the closure
        for _ in range(rng.randint(1, 3)):
            mid = rng.choice([v.idx for v in g.vertices if v.kind == "prop"])
            others = [v for v in range(g.n) if v != mid]
            refine(g, rng.choice(others), mid, rng.choice(others))
            closed = transitive_closure(g)
            path = get_covering_path(closed)
            assert (path is not None) == exists_covering_path(g)
            if path is None:
                continue
            split_paths += 1
            assert path[0] == g.init_idx and path[-1] == g.final_idx
            inner = [g.group_of[v] for v in path[1:-1]]
            assert sorted(inner) == sorted(g.group_of[m[0]]
                                           for m in g.property_groups())
            assert all(closed.has(a, b) for a, b in zip(path, path[1:]))
    assert split_paths > 100


def test_closure_triangle_and_idempotence():
    g = graph_from_edges(5, {(0, 1), (1, 2), (2, 3), (3, 4)},
                         weights={(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1})
    closed = transitive_closure(g)
    assert closed.dist[(0, 2)] == 2
    assert closed.dist[(0, 4)] == 4
    # idempotence: closing the closed distances changes nothing
    g2 = graph_from_edges(5, set(), weights={})
    g2.weights = {k: v for k, v in closed.dist.items() if k[0] != k[1]}
    closed2 = transitive_closure(g2)
    assert {k: v for k, v in closed2.dist.items()} == \
        {k: v for k, v in closed.dist.items()}


def test_closure_edges_expand_to_original_edges():
    rng = random.Random(7)
    for case in range(100):
        n = rng.randint(3, 7)
        edges = random_digraph(rng, n, 0.4)
        weights = {e: rng.randint(1, 4) for e in edges}
        g = graph_from_edges(n, edges, weights)
        closed = transitive_closure(g)
        for (a, b), d in closed.dist.items():
            if a == b:
                continue
            chain = closed.expand_edge(a, b)
            assert chain[0][0] == a and chain[-1][1] == b
            assert sum(w for (_, _, w) in chain) == d
            for (x, y, w) in chain:
                assert g.weights[(x, y)] == w


def test_cruise_graph_build(cruise_model, cruise_props, cruise_final):
    unr = Unrolling(cruise_model)
    out = build_reach_graph(unr, cruise_props, cruise_final, cruise_final, k_max=50)
    assert out.status == "path"
    g = out.graph
    assert g.k_stop == 2
    # the true depth-2 abstraction, pinned against the explicit-state BFS
    assert set(g.named_edges()) == {
        ("I", "p1", 2), ("I", "p3", 2), ("I", "p4", 2),
        ("p1", "p2", 2), ("p1", "p3", 1),
        ("p2", "p1", 1), ("p2", "p3", 1),
        ("p3", "p1", 2), ("p3", "F", 2),
        ("p4", "p1", 2), ("p4", "p3", 2),
    }
    closed = transitive_closure(g)
    assert closed.dist[(0, 2)] == 4              # I to p2 runs through p1


def test_zero_properties_single_edge(cruise_model, cruise_final):
    unr = Unrolling(cruise_model)
    out = build_reach_graph(unr, [], cruise_final, cruise_final, k_max=5)
    assert out.status == "path"
    assert out.graph.named_edges() == [("I", "F", 0)]


def test_monotone_weights_on_random_models():
    """Edges keep the depth they were first found at; growing the bound
    never changes an existing weight."""
    from chainforge.oracle import random_model
    rng = random.Random(12)
    for case in range(6):
        gen = random_model(rng.randrange(1 << 30), n_states=6, n_inputs=2,
                           n_props=2)
        unr = Unrolling(gen.model)
        out1 = build_reach_graph(unr, gen.props, gen.init_expr, gen.final_expr,
                                 k_max=4, exhaust=True)
        out2 = build_reach_graph(Unrolling(gen.model), gen.props, gen.init_expr,
                                 gen.final_expr, k_max=8, exhaust=True)
        for (a, b, w) in out1.graph.named_edges():
            assert (a, b, w) in out2.graph.named_edges()


def test_dot_export(cruise_model, cruise_props, cruise_final):
    unr = Unrolling(cruise_model)
    out = build_reach_graph(unr, cruise_props, cruise_final, cruise_final, k_max=50)
    dot = out.graph.to_dot()
    assert dot.startswith("digraph")
    assert '  0 [label="I", shape=doublecircle];' in dot
    assert '  4 [label="p4", shape=circle];' in dot
    assert '  0 -> 4 [label="2"];' in dot


def test_dot_keeps_a_property_named_like_the_start_vertex_apart(
        cruise_model, cruise_props, cruise_final):
    """A property named I is its own node, not merged into the start
    vertex with a self-edge."""
    import dataclasses
    props = [dataclasses.replace(p, name="I") if p.name == "p4" else p
             for p in cruise_props]
    out = build_reach_graph(Unrolling(cruise_model), props, cruise_final,
                            cruise_final, k_max=50)
    lines = out.graph.to_dot().splitlines()
    assert '  0 [label="I", shape=doublecircle];' in lines
    assert '  4 [label="I", shape=circle];' in lines
    assert '  0 -> 4 [label="2"];' in lines
    edges = [l.split()[:3] for l in lines if "->" in l]
    assert edges and all(a != b for a, _, b in edges)


def test_a_split_clone_is_named_after_its_group():
    """Splitting a clone names the new vertex after the group's original
    vertex with its member number (p1#3, not p1#2#3), in the graph and
    in its DOT export."""
    g = graph_from_edges(4, {(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)})
    first = refine(g, 0, 1, 2)
    second = refine(g, 0, first, 3)
    assert [g.vertices[v].name for v in (first, second)] == ["p1#2", "p1#3"]
    assert g.group_of[first] == g.group_of[second] == 1
    assert g.group_members()[1] == [1, first, second]
    assert f'  {second} [label="p1#3", shape=circle];' in g.to_dot()
