"""Shortest covering path as an asymmetric TSP: close the graph and find
a minimal Hamiltonian path from the start vertex to the final vertex.

The instance size chooses the backend: exact Held-Karp dynamic
programming up to EXACT_LIMIT vertices, nearest-neighbour construction
with Or-opt segment moves above it.  Both are pure functions of the
instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .reachgraph import ClosedGraph, insertion_path

INF = math.inf

#: Largest instance solved by Held-Karp; larger ones take the heuristic.
EXACT_LIMIT = 16


@dataclass
class AtspInstance:
    """Path problem over vertex ids: cost[i][j] with inf for absent
    edges, a fixed start (the init vertex) and end (the final vertex)."""
    ids: list[int]                      # instance position -> graph vertex id
    cost: list[list[float]]
    start: int                          # position of the init vertex
    end: int                            # position of the final vertex

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass
class Tour:
    """A Hamiltonian path: order runs start..end, cost is its length."""
    order: list[int]                    # instance positions, start first, end last
    cost: float


class AtspSizeError(Exception):
    """Instance too large for the exact backend."""


def instance_from_closure(closed: ClosedGraph, keep: list[int]) -> AtspInstance:
    """Restrict the closed graph to `keep`.  With refinement groups
    collapsed, `keep` is the covering path's choice of one member per
    group; paths through dropped members survive in the closure
    distances, which is exactly the composite-edge bypass."""
    g = closed.base
    ids = sorted(set(keep))
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    cost = [[INF] * n for _ in range(n)]
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if i != j and closed.has(a, b):
                cost[i][j] = closed.dist[(a, b)]
    return AtspInstance(ids, cost, pos[g.init_idx], pos[g.final_idx])


def solve_atsp_exact(inst: AtspInstance) -> Optional[Tour]:
    """Provably minimal path by Held-Karp over vertex subsets.  Returns
    None when no Hamiltonian start->end path through finite edges
    exists."""
    n = inst.n
    if n > EXACT_LIMIT:
        raise AtspSizeError(f"{n} vertices exceeds the exact backend limit {EXACT_LIMIT}")
    s, e = inst.start, inst.end
    if n == 1:
        return Tour([s], 0)
    cost = inst.cost
    mids = [v for v in range(n) if v not in (s, e)]
    m = len(mids)
    if m == 0:
        if cost[s][e] == INF:
            return None
        return Tour([s, e], cost[s][e])
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
    return Tour(order, best)


def _tour_cost(inst: AtspInstance, order: list[int]) -> float:
    return sum(inst.cost[a][b] for a, b in zip(order, order[1:]))


def solve_atsp_heuristic(inst: AtspInstance) -> Optional[Tour]:
    """Nearest-neighbour construction (8 restarts: the first greedy, the
    rest picking among the 3 nearest from a fixed seed) plus
    Or-opt local search (segment relocation of 1..3 vertices, orientation
    preserved — suitable for asymmetric costs), seeded with a
    feasibility-first tour from `reachgraph.insertion_path`, the same
    insertion that builds the engine's covering path, here over every
    vertex in position order.  Deterministic; never uses an absent edge."""
    n = inst.n
    s, e = inst.start, inst.end
    mids = [v for v in range(n) if v not in (s, e)]
    if not mids:
        if inst.cost[s][e] == INF:
            return None
        return Tour([s, e], inst.cost[s][e])
    rng = random.Random(0)
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
    for attempt in range(8):
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
    return Tour(best_order, best_cost)


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


def solve_atsp(inst: AtspInstance) -> tuple[Optional[Tour], str]:
    """Held-Karp up to EXACT_LIMIT vertices, the heuristic above it.
    Returns (tour, backend used)."""
    if inst.n <= EXACT_LIMIT:
        return solve_atsp_exact(inst), "exact"
    return solve_atsp_heuristic(inst), "heuristic"


def tour_to_vertex_path(inst: AtspInstance, tour: Tour) -> list[int]:
    return [inst.ids[p] for p in tour.order]
