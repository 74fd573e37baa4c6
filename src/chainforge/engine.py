"""End-to-end chain generation: build the weighted abstraction, optimise
a covering path over it, concretise the path, and escalate through chain
repair, vertex-splitting refinement, and one property-set partition,
whose classes are chained once each, when concretisation fails
(cheapest remedy first).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import sat
from .bmc import HorizonError, PathCheck, Unrolling, check_path, path_feasible
from .model import (BOOL, TRUE, BinOp, Const, Expr, Model, Property,
                    SPACE_NEXT, SPACE_STATE, SPACE_INPUT, SortError, TestChain,
                    check_spaces, conj, disj, reachable_states, replay, sort_of)
from .optimizer import (EXACT_LIMIT, AtspInstance, instance_from_closure,
                        solve_atsp, solve_atsp_exact, tour_to_vertex_path)
from .reachgraph import (PROP, BuildOutcome, ReachGraph, build_reach_graph,
                         expand_path, get_covering_path, transitive_closure)

MINIMAL = "minimal-certified"
MINIMISED = "minimised"
MULTI = "multi-chain"
FAILED = "failed"

#: Why a property set or a partition class has no single chain, and
#: partitioning has nothing to split (it is disabled, there is one
#: property, or no pair conflicts).  A search that stopped at one of the
#: limits below proved no such thing, and its reason names the limit.
NO_SINGLE_CHAIN = "no single chain covers the property set"

#: Fixed limits of the concretisation loop: vertex splits per chain and
#: check/repair rounds per chain.
MAX_SPLITS = 64
MAX_ROUNDS = 200


@dataclass
class EngineConfig:
    k_max: int = 50
    allow_partition: bool = True
    exhaust_k: bool = False            # resolve every pair up to k_max
    strengthen_invariant: bool = False
    deadline: Optional[float] = None
    solver_factory: Optional[Callable] = None


@dataclass
class Stats:
    k_reached: int = 0
    solver_calls: int = 0
    solver_conflicts: Optional[int] = 0     # None: the backend does not count them
    solver_decisions: Optional[int] = 0
    repair_increments: int = 0
    refinement_splits: int = 0
    partitions: int = 0
    joined_chains: int = 0      # chains concretised by joining k-reach witnesses
    wall_time_s: float = 0.0
    backend: str = ""
    abstract_path: Optional[list[str]] = None
    abstract_weights: Optional[list[int]] = None
    initial_abstract_path: Optional[list[str]] = None
    initial_abstract_weights: Optional[list[int]] = None
    first_failed_path: Optional[list[str]] = None
    path_vertex_distinct: bool = False


@dataclass
class ChainResult:
    chains: list[TestChain]
    status: str
    reason: str = ""
    stats: Stats = field(default_factory=Stats)
    graph: Optional[ReachGraph] = None

    @property
    def total_length(self) -> int:
        return sum(c.length for c in self.chains)


def validate_inputs(model: Model, props, init_expr: Expr, final_expr: Expr) -> None:
    state_only = frozenset({SPACE_STATE})
    for e, what in ((init_expr, "the start-state set"), (final_expr, "the final-state set")):
        if sort_of(e) != BOOL:
            raise SortError(f"{what} must be boolean")
        check_spaces(e, state_only, what)
    names: set[str] = set()
    for p in props:
        # reports, covers and partition classes all key properties by name
        if p.name in names:
            raise SortError(f"duplicate property name '{p.name}'")
        names.add(p.name)
        if sort_of(p.assumption) != BOOL or sort_of(p.assertion) != BOOL:
            raise SortError(f"property '{p.name}' needs boolean assume/assert")
        check_spaces(p.assumption, frozenset({SPACE_STATE, SPACE_INPUT}),
                     f"assumption of '{p.name}'")
        check_spaces(p.assertion, frozenset({SPACE_STATE, SPACE_INPUT, SPACE_NEXT}),
                     f"assertion of '{p.name}'")


def state_equality_expr(model: Model, state) -> Expr:
    parts = [BinOp("==", model.state_ref(n), Const(state[n], model.state_domain(n)))
             for n, _ in model.state_vars]
    return conj(*parts)


def strengthened_invariant(model: Model, init_expr: Expr, limit: int = 4096) -> Expr:
    """Declared invariant conjoined with the exact set of states reachable
    from `init_expr`, computed by explicit exploration; above `limit`
    states, the declared invariant alone."""
    if model.state_space_size() > limit:
        return model.state_invariant
    reach = reachable_states(model, init_expr)
    return conj(model.state_invariant,
                disj(*(state_equality_expr(model, s) for s in reach)))


def _check_deadline(cfg: EngineConfig) -> None:
    if cfg.deadline is not None and time.monotonic() > cfg.deadline:
        raise sat.SolverLimit("generation deadline exceeded")


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

def _repair(unr: Unrolling, g: ReachGraph, vs: list[int], ws: list[int],
            hi: int, cfg: EngineConfig, stats: Stats) -> bool:
    """Stretch the last edge j = hi - 1 of the failed window
    `vs[hi-2..hi]` (`vs[0..1]` when hi is 1), the vertices that end the
    shortest infeasible prefix `check_path` named: the edge takes the
    fewest steps, from its weight up to `k_max`, at which the window
    concretises, the edge before it at its weight.  Everything before
    `vs[hi]` is feasible at the path's offsets, so only this edge can
    need more steps.

    Returns whether the edge stretched, so the path is worth checking
    again.  It did not when no weight works, or when the window goes
    through at its weights from some state of its first vertex, only
    not from those the path reaches it at.  A window of two vertices is
    the failed prefix itself, so it never goes through at its weights,
    and a prefix of one vertex (no start state satisfies its pin) has
    no edge."""
    _check_deadline(cfg)
    if hi == 0:
        return False
    lo, j = max(0, hi - 2), hi - 1
    pins = [g.vertices[v].pin() for v in vs[lo:hi + 1]]
    w = next((w for w in range(ws[j], cfg.k_max + 1)
              if path_feasible(unr, pins, ws[lo:j] + [w])), ws[j])
    if w == ws[j]:
        return False
    stats.repair_increments += w - ws[j]
    ws[j] = w
    key = (vs[j], vs[hi])
    if g.weights.get(key, -1) < w:
        g.weights[key] = w
    return True


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

def refine(g: ReachGraph, pred: int, mid: int, succ: int) -> int:
    """Split `mid` so the in-from-pred / out-to-succ pairing that failed
    concretisation is ruled out: the clone takes the incoming edge from
    pred and every outgoing edge except the one to succ; the original
    keeps everything else.  Returns the clone's vertex id."""
    clone = g.add_clone(mid)
    w_in = g.weights.get((pred, mid))
    if w_in is not None:
        g.weights[(pred, clone.idx)] = w_in
    g.weights.pop((pred, mid), None)
    for (a, b), w in list(g.weights.items()):
        if a == mid and b != succ and b != clone.idx:
            g.weights[(clone.idx, b)] = w
    return clone.idx


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition_vertex_sets(vertices: list[int],
                          conflicts: list[tuple[int, int]]) -> list[set[int]]:
    """The fewest classes with no conflicting pair inside one class: an
    exact minimum colouring of the conflict graph.  Tries k = 1, 2, ...
    classes by backtracking in vertex order; a vertex tries the classes
    already opened and then only the first empty one, since empty classes
    are interchangeable.  Largest class first."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in conflicts:
        adj[a].add(b)
        adj[b].add(a)
    classes: list[set[int]] = []

    def place(i: int, k: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        for c in classes:
            if not adj[v] & c:
                c.add(v)
                if place(i + 1, k):
                    return True
                c.remove(v)
        if len(classes) < k:
            classes.append({v})
            if place(i + 1, k):
                return True
            classes.pop()
        return False

    k = 1
    while not place(0, k):
        k += 1
    return sorted(classes, key=lambda s: (-len(s), sorted(s)))


# ---------------------------------------------------------------------------
# The generation pipeline
# ---------------------------------------------------------------------------

def generate_chain(model: Model, props, init_expr: Expr, final_expr: Expr,
                   cfg: Optional[EngineConfig] = None) -> ChainResult:
    """Compute a covering test chain (or several when the properties do
    not admit a single one and partitioning is enabled).  Raises
    SortError for ill-sorted inputs and sat.SolverLimit when the deadline
    or a conflict budget runs out.  A path query that no run as long as
    the unrolling's horizon satisfies (`bmc.HorizonError`) ends the run
    `failed`, with that error as the reason."""
    cfg = cfg or EngineConfig()
    t0 = time.perf_counter()
    stats = Stats()
    validate_inputs(model, props, init_expr, final_expr)
    invariant = model.state_invariant
    if cfg.strengthen_invariant:
        invariant = strengthened_invariant(model, init_expr)
    if cfg.solver_factory is not None:
        solver = cfg.solver_factory()
    else:
        solver = sat.make_solver(deadline=cfg.deadline)
    unr = Unrolling(model, solver, invariant)
    try:
        result = _generate(unr, list(props), init_expr, final_expr, cfg, stats)
    except HorizonError as ex:
        result = ChainResult([], FAILED, str(ex))
    finally:
        stats.solver_calls = solver.stats_solves
        stats.solver_conflicts = solver.stats_conflicts
        stats.solver_decisions = solver.stats_decisions
        stats.wall_time_s = time.perf_counter() - t0
    result.stats = stats
    return result


def _generate(unr: Unrolling, props: list[Property], init_expr: Expr,
              final_expr: Expr, cfg: EngineConfig, stats: Stats) -> ChainResult:
    """Chain the whole property set; when no single chain covers it,
    partition the set once and chain each class once, never splitting a
    class again."""

    def build(ps: list[Property], exhaust: bool) -> BuildOutcome:
        out = build_reach_graph(unr, ps, init_expr, final_expr, cfg.k_max,
                                exhaust=exhaust)
        stats.k_reached = max(stats.k_reached, out.graph.k_stop)
        return out

    def chain(ps: list[Property]) -> tuple[ChainResult | str, BuildOutcome]:
        out = build(ps, cfg.exhaust_k)
        # refinement needs the full pairwise picture, not just the edges
        # found before the first covering path appeared
        rebuild = None if cfg.exhaust_k else lambda: build(ps, True).graph
        return _single_chain(unr, ps, out.graph, cfg, stats, rebuild), out

    def bounded(reason: str, out: BuildOutcome) -> str:
        if out.status != "bound-exceeded":
            return reason
        detail = "" if reason == NO_SINGLE_CHAIN else f" ({reason})"
        return f"no chain found for given bound {cfg.k_max}{detail}"

    single, out = chain(props)
    if isinstance(single, ChainResult):
        return single
    g, reason, classes = out.graph, single, []
    if cfg.allow_partition and len(props) > 1:
        # the partition needs the complete pairwise picture up to the bound
        g = build(props, True).graph
        found, classes = _partition(g)
        stats.partitions = len(classes)
        if found != NO_SINGLE_CHAIN:
            reason = found
    chains: list[TestChain] = []
    for names in classes:
        res, sub_out = chain([p for p in props if p.name in names])
        if not isinstance(res, ChainResult):
            reason = (f"partition class {sorted(names)} failed: "
                      f"{bounded(res, sub_out)}")
            break
        chains.extend(res.chains)
    if not reason:
        # one chain per class, so no one abstract path describes the result
        stats.abstract_path = stats.abstract_weights = None
        return ChainResult(chains, MULTI, graph=g)
    return ChainResult([], FAILED, bounded(reason, out), graph=g)


def _partition(g: ReachGraph) -> tuple[str, list[set[str]]]:
    """("", the fewest classes of property names with no conflicting
    pair inside one class) on the complete graph `g`; two properties
    conflict when neither has a direct weight to the other.  A class
    keeps these weights, so it never needs splitting again.  Without a
    conflict, or with a property off every chain, (the reason, [])."""
    closed = transitive_closure(g)
    I, F = g.init_idx, g.final_idx
    prop_idxs = [v.idx for v in g.vertices if v.kind == PROP]
    for v in prop_idxs:
        if not closed.has(I, v):
            return (f"'{g.vertices[v].name}' is unreachable from the start "
                    f"states within the bound", [])
        if not closed.has(v, F):
            return (f"the final states are unreachable from "
                    f"'{g.vertices[v].name}' within the bound", [])
    # conflicts come from direct weights: composing two closure edges
    # through a multi-state trigger may join different states of it
    conflicts = [(a, b) for i, a in enumerate(prop_idxs) for b in prop_idxs[i + 1:]
                 if (a, b) not in g.weights and (b, a) not in g.weights]
    if not conflicts:
        return NO_SINGLE_CHAIN, []
    return "", [{g.vertices[i].name for i in cls}
                for cls in partition_vertex_sets(prop_idxs, conflicts)]


def _single_chain(unr: Unrolling, props: list[Property], g: ReachGraph,
                  cfg: EngineConfig, stats: Stats, rebuild=None) -> ChainResult | str:
    """Plan, check, and escalate on failure: check the repaired path
    again; else rebuild the complete graph once, if a rebuild is pending;
    else split `vs[hi-1]`, the second to last vertex of the shortest
    infeasible prefix `vs[0..hi]`, between its neighbours and plan
    again.  Each planned path gets one `check_path`: joined from its
    edges' k-reach witnesses with no solve where they join, else solved
    once, and a failed path probed for the end of its shortest
    infeasible prefix, which, like the verdicts of repair's
    `path_feasible` checks, follows from feasibility answers alone and
    not from the solver's search.  When no chain is found, the reason:
    NO_SINGLE_CHAIN when no covering path exists or none is left to
    split, else the limit the search stopped at."""
    vs: Optional[list[int]] = None
    splits = 0
    for _round in range(MAX_ROUNDS):
        _check_deadline(cfg)
        if vs is None:
            planned = _plan(g, stats)
            if planned is None:
                return NO_SINGLE_CHAIN
            vs, ws = planned
            if stats.initial_abstract_path is None:
                stats.initial_abstract_path = [g.vertices[v].name for v in vs]
                stats.initial_abstract_weights = list(ws)
        pins = [g.vertices[v].pin() for v in vs]
        chk = check_path(unr, pins, ws)
        stats.joined_chains += chk.joined
        if chk.feasible:
            return _finish(unr, props, g, vs, ws, chk, stats)
        hi = chk.failed_at
        if stats.first_failed_path is None:
            stats.first_failed_path = [g.vertices[v].name
                                       for v in vs[max(0, hi - 2):hi + 1]]
        if _repair(unr, g, vs, ws, hi, cfg, stats):
            continue
        if rebuild is not None:
            g, rebuild = rebuild(), None
        elif hi < 2 or g.vertices[vs[hi - 1]].kind != PROP:
            return NO_SINGLE_CHAIN
        elif splits >= MAX_SPLITS:
            return f"no single chain found within {MAX_SPLITS} refinement splits"
        else:
            refine(g, vs[hi - 2], vs[hi - 1], vs[hi])
            splits += 1
            stats.refinement_splits += 1
        vs = None
    return f"no single chain found within {MAX_ROUNDS} check/repair rounds"


def _plan(g: ReachGraph, stats: Stats):
    """Shortest covering path, expanded to original edges: solve the
    path problem on the closure restricted to the vertices of a
    constructive covering path (every vertex on an unrefined graph; on a
    refined one, the member of each group that path uses first).  The
    covering path is a Hamiltonian path over those vertices, so a tour
    always exists: Held-Karp finds one, and so does the heuristic's
    insertion seed, since on a closed relation with such a path every
    two vertices are ordered by reachability.  Returns (vertices,
    weights), or None when no covering path exists."""
    closed = transitive_closure(g)
    cover = get_covering_path(closed)
    if cover is None:
        return None
    inst = instance_from_closure(closed, keep=cover)
    tour, stats.backend = solve_atsp(inst)
    return expand_path(closed, tour_to_vertex_path(inst, tour))


def _finish(unr: Unrolling, props, g: ReachGraph, vs, ws, chk: PathCheck,
            stats: Stats) -> ChainResult:
    """Replay the concretised chain and certify it iff its length meets
    `_lower_bound`: no covering chain is shorter than that bound."""
    # ground-truth the decoded run and recover cover positions from it;
    # the final pin was part of the solved path
    rep = replay(unr.model, props, TRUE, chk.inputs, start=chk.trace[0])
    if list(rep.trace) != chk.trace:
        raise RuntimeError("decoded trace does not replay; encoder and "
                           "interpreter disagree")
    if rep.uncovered:
        raise RuntimeError(f"concretised chain does not cover {list(rep.uncovered)}")
    chain = TestChain(tuple(chk.inputs), rep.trace, rep.covers)
    stats.abstract_path = [g.vertices[v].name for v in vs]
    stats.abstract_weights = list(ws)
    stats.path_vertex_distinct = len(set(vs)) == len(vs)
    certified = chain.length == _lower_bound(g, unr)
    return ChainResult([chain], MINIMAL if certified else MINIMISED, graph=g)


def _lower_bound(g: ReachGraph, unr: Unrolling) -> Optional[int]:
    """Held-Karp over the complete instance on the start, property and
    final vertices (no clones), each pair at its `Unrolling.bound`.
    A covering chain visits the properties in the order it first covers
    them, and each segment is no shorter than its pair's bound, so no
    covering chain is shorter than this.  It reads the unrolling's memo,
    since repair stretches `g.weights`.  None above EXACT_LIMIT
    vertices."""
    base = [v for v in g.vertices if g.group_of[v.idx] == v.idx]
    if len(base) > EXACT_LIMIT:
        return None
    pid = [unr.pin_id(v.pin()) for v in base]
    cost = [[unr.bound((a, b)) if a != b else 0 for b in pid] for a in pid]
    ids = [v.idx for v in base]
    inst = AtspInstance(ids, cost, ids.index(g.init_idx), ids.index(g.final_idx))
    return solve_atsp_exact(inst).cost
