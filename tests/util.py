"""Independent brute-force oracles used across the test suite.  These stay
deliberately separate from the implementation paths they check."""

from __future__ import annotations

import itertools
import math
import random


def tt_satisfiable(nvars: int, clauses) -> bool:
    """Truth-table satisfiability by big-integer bitmasks: bit position a
    of the mask is assignment a in [0, 2^nvars)."""
    n_assign = 1 << nvars
    all_mask = (1 << n_assign) - 1
    var_mask = {}
    for v in range(1, nvars + 1):
        block = (1 << (1 << (v - 1))) - 1          # 2^(v-1) ones
        period = 1 << v
        m = 0
        pos = 1 << (v - 1)
        while pos < n_assign:
            m |= block << pos
            pos += period
        var_mask[v] = m
    acc = all_mask
    for clause in clauses:
        cm = 0
        for lit in clause:
            vm = var_mask[abs(lit)]
            cm |= vm if lit > 0 else (all_mask & ~vm)
        acc &= cm
        if acc == 0:
            return False
    return acc != 0


def lit_value(model, lit: int) -> bool:
    """Truth of a literal under model (model[v] as in tt_check_model)."""
    return model[abs(lit)] == (lit > 0)


def tt_check_model(clauses, model) -> bool:
    """model[v] is the boolean assigned to var v (1-indexed list)."""
    for clause in clauses:
        if not any(model[abs(l)] == (l > 0) for l in clause):
            return False
    return True


def random_cnf(rng: random.Random, nvars: int, nclauses: int, width: int = 3):
    clauses = []
    for _ in range(nclauses):
        k = rng.randint(1, width)
        vs = rng.sample(range(1, nvars + 1), min(k, nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def brute_covering_path_exists(n: int, edges: set[tuple[int, int]],
                               start: int, end: int,
                               required: list[int]) -> bool:
    """Does some walk start->end visit every required vertex?  Product
    search over (vertex, covered-mask): exact and independent of the
    closure-based check."""
    need = {v: i for i, v in enumerate(required)}
    full = (1 << len(required)) - 1
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)

    def mask_at(v, m):
        return m | (1 << need[v]) if v in need else m

    start_mask = mask_at(start, 0)
    seen = {(start, start_mask)}
    stack = [(start, start_mask)]
    while stack:
        v, m = stack.pop()
        if v == end and m == full:
            return True
        for w in adj.get(v, ()):
            nm = mask_at(w, m)
            if (w, nm) not in seen:
                seen.add((w, nm))
                stack.append((w, nm))
    return False


def brute_atsp_path(cost, start: int, end: int) -> float:
    """Cheapest Hamiltonian path start -> end by permutation enumeration."""
    n = len(cost)
    mids = [v for v in range(n) if v not in (start, end)]
    best = math.inf
    for perm in itertools.permutations(mids):
        order = [start] + list(perm) + [end]
        c = sum(cost[a][b] for a, b in zip(order, order[1:]))
        best = min(best, c)
    return best


def random_digraph(rng: random.Random, n: int, p: float):
    edges = set()
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < p:
                edges.add((a, b))
    return edges


def chromatic_number(vertices, conflict_pairs) -> int:
    """Smallest number of classes with no conflicting pair sharing a class
    (backtracking colouring; fine for tiny graphs)."""
    vs = list(vertices)
    adj = {v: set() for v in vs}
    for a, b in conflict_pairs:
        adj[a].add(b)
        adj[b].add(a)

    def colourable(k):
        colour = {}

        def go(i):
            if i == len(vs):
                return True
            v = vs[i]
            for c in range(k):
                if all(colour.get(u) != c for u in adj[v]):
                    colour[v] = c
                    if go(i + 1):
                        return True
                    del colour[v]
            return False

        return go(0)

    k = 1
    while not colourable(k):
        k += 1
    return k
