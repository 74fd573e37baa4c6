"""Shortest covering path as an asymmetric TSP: close the graph, add the
designated return edge from final to start, find a minimal circuit, cut
it back open between final and start.

Two backends: exact Held-Karp dynamic programming (default up to 16
vertices) and nearest-neighbour construction with Or-opt segment moves
for larger instances.  Both are pure functions of (instance, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .reachgraph import ClosedGraph, insertion_path

INF = math.inf

#: Cost of the designated return edge; it appears in every circuit, so any
#: constant works.  Reported path lengths subtract it.
RETURN_EDGE_COST = 1

EXACT_LIMIT_DEFAULT = 16


@dataclass
class AtspInstance:
    """Circuit problem over vertex ids: cost[i][j] with inf for absent
    edges, a fixed start (the init vertex) and end (the final vertex),
    and the implicit end->start return edge of cost RETURN_EDGE_COST."""
    ids: list[int]                      # instance position -> graph vertex id
    cost: list[list[float]]
    start: int                          # position of the init vertex
    end: int                            # position of the final vertex

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass
class Tour:
    """A circuit, stored cut open: order runs start..end and the return
    edge closes it.  cost includes the return edge."""
    order: list[int]                    # instance positions, start first, end last
    cost: float

    @property
    def path_cost(self) -> float:
        return self.cost - RETURN_EDGE_COST


class AtspSizeError(Exception):
    """Instance too large for the exact backend."""


def instance_from_closure(closed: ClosedGraph,
                          keep: Optional[list[int]] = None) -> AtspInstance:
    """Restrict the closed graph to `keep` (default: all vertices).  With
    refinement groups collapsed, `keep` is the covering path's choice of
    one member per group; paths through dropped members survive in the
    closure distances, which is exactly the composite-edge bypass."""
    g = closed.base
    ids = sorted(set(keep)) if keep is not None else [v.idx for v in g.vertices]
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    cost = [[INF] * n for _ in range(n)]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i != j and closed.has(a, b):
                cost[i][j] = closed.dist[(a, b)]
    return AtspInstance(ids, cost, pos[g.init_idx], pos[g.final_idx])


def solve_atsp_exact(inst: AtspInstance, limit: int = EXACT_LIMIT_DEFAULT) -> Optional[Tour]:
    """Provably minimal circuit by Held-Karp over vertex subsets.  Returns
    None when no Hamiltonian circuit through finite edges exists."""
    n = inst.n
    if n > limit:
        raise AtspSizeError(f"{n} vertices exceeds the exact backend limit {limit}")
    s, e = inst.start, inst.end
    if n == 1:
        return Tour([s], RETURN_EDGE_COST)
    cost = inst.cost
    mids = [v for v in range(n) if v not in (s, e)]
    m = len(mids)
    if m == 0:
        if cost[s][e] == INF:
            return None
        return Tour([s, e], cost[s][e] + RETURN_EDGE_COST)
    # dp[mask][i]: cheapest path s -> mids[i] visiting exactly mask
    dp = [[INF] * m for _ in range(1 << m)]
    parent = [[-1] * m for _ in range(1 << m)]
    for i, v in enumerate(mids):
        dp[1 << i][i] = cost[s][v]
    for mask in range(1 << m):
        row = dp[mask]
        for i in range(m):
            d = row[i]
            if d == INF or not (mask >> i) & 1:
                continue
            ci = cost[mids[i]]
            for j in range(m):
                if (mask >> j) & 1:
                    continue
                nd = d + ci[mids[j]]
                nm = mask | (1 << j)
                if nd < dp[nm][j]:
                    dp[nm][j] = nd
                    parent[nm][j] = i
    full = (1 << m) - 1
    best, best_i = INF, -1
    for i in range(m):
        d = dp[full][i] + cost[mids[i]][e]
        if d < best:
            best, best_i = d, i
    if best == INF:
        return None
    order = [e]
    mask, i = full, best_i
    while i != -1:
        order.append(mids[i])
        mask, i = mask ^ (1 << i), parent[mask][i]
    order.append(s)
    order.reverse()
    return Tour(order, best + RETURN_EDGE_COST)


def _tour_cost(inst: AtspInstance, order: list[int]) -> float:
    return sum(inst.cost[a][b] for a, b in zip(order, order[1:]))


def solve_atsp_heuristic(inst: AtspInstance, seed: int = 0,
                         restarts: int = 8) -> Optional[Tour]:
    """Nearest-neighbour construction (randomised across restarts) plus
    Or-opt local search (segment relocation of 1..3 vertices, orientation
    preserved — suitable for asymmetric costs), seeded with a
    feasibility-first tour from `reachgraph.insertion_path`, the same
    insertion that builds the engine's covering path, here over every
    vertex in position order.  Deterministic for a given seed; never uses
    an absent edge."""
    n = inst.n
    s, e = inst.start, inst.end
    mids = [v for v in range(n) if v not in (s, e)]
    if not mids:
        if inst.cost[s][e] == INF:
            return None
        return Tour([s, e], inst.cost[s][e] + RETURN_EDGE_COST)
    rng = random.Random(seed)
    best_order, best_cost = None, INF

    def consider(order):
        nonlocal best_order, best_cost
        order = _or_opt(inst, order)
        c = _tour_cost(inst, order)
        if c < best_cost:
            best_order, best_cost = order, c

    base = insertion_path(s, e, [[v] for v in mids],
                          lambda a, b: inst.cost[a][b] < INF)
    if base is not None:
        consider(base)
    for attempt in range(restarts):
        order = [s]
        rest = list(mids)
        dead = False
        while rest:
            cur = order[-1]
            reachable = sorted((v for v in rest if inst.cost[cur][v] < INF),
                               key=lambda v: (inst.cost[cur][v], v))
            if not reachable:
                dead = True
                break
            if attempt == 0:
                nxt = reachable[0]
            else:
                nxt = reachable[rng.randrange(min(3, len(reachable)))]
            order.append(nxt)
            rest.remove(nxt)
        if dead or inst.cost[order[-1]][e] == INF:
            continue
        order.append(e)
        consider(order)
    if best_cost == INF:
        return None
    return Tour(best_order, best_cost + RETURN_EDGE_COST)


def _or_opt(inst: AtspInstance, order: list[int]) -> list[int]:
    cost = inst.cost
    improved = True
    rounds = 0
    while improved and rounds < 64:
        improved = False
        rounds += 1
        for seg_len in (1, 2, 3):
            for i in range(1, len(order) - seg_len):
                seg = order[i:i + seg_len]
                pre, post = order[i - 1], order[i + seg_len]
                removed = (cost[pre][seg[0]] + cost[seg[-1]][post]) - cost[pre][post]
                rest = order[:i] + order[i + seg_len:]
                for j in range(1, len(rest)):
                    a, b = rest[j - 1], rest[j]
                    added = cost[a][seg[0]] + cost[seg[-1]][b] - cost[a][b]
                    if added < removed - 1e-9:
                        order = rest[:j] + seg + rest[j:]
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return order


def solve_atsp(inst: AtspInstance, backend: str = "auto",
               seed: int = 0) -> tuple[Optional[Tour], str]:
    """Dispatch: exact when it fits within EXACT_LIMIT_DEFAULT vertices
    (or when demanded, at any size), heuristic otherwise.  Returns (tour,
    backend actually used)."""
    if backend == "exact" or (backend == "auto" and inst.n <= EXACT_LIMIT_DEFAULT):
        return solve_atsp_exact(inst, limit=max(EXACT_LIMIT_DEFAULT, inst.n)), "exact"
    return solve_atsp_heuristic(inst, seed=seed), "heuristic"


def tour_to_vertex_path(inst: AtspInstance, tour: Tour) -> list[int]:
    return [inst.ids[p] for p in tour.order]
