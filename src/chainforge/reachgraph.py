"""The weighted abstraction: a digraph over {start, property triggers,
final} whose edge weights are minimal step counts between trigger sets,
built by querying the unrolled model at increasing depth until a covering
path exists.  Pair weights and the depths pairs were checked to live on
the `Unrolling`, keyed by pin ids, so every build on one unrolling
(partition classes and rebuilds included) queries each pair and depth
once.

Also home to the transitive closure (min-plus, with parent pointers so
closure edges expand back to original edges) and the one insertion
routine that builds a covering path over it.  Existence is decided by
that constructive insertion, and the engine plans from the path it
finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .bmc import Pin, Unrolling, get_kreach_edges, simple_run_exists
from .model import Expr

INIT = "init"
PROP = "prop"
FINAL = "final"


@dataclass(frozen=True)
class Vertex:
    idx: int
    name: str
    kind: str
    phi: Expr
    psi: Optional[Expr] = None

    def pin(self) -> Pin:
        return Pin(self.phi, self.psi)


@dataclass
class ReachGraph:
    """Weighted digraph over init/property/final vertices.  `groups` maps
    every vertex to its refinement group; vertices start in singleton
    groups and clones produced by refinement join their original's
    group."""
    vertices: list[Vertex]
    weights: dict[tuple[int, int], int] = field(default_factory=dict)
    group_of: dict[int, int] = field(default_factory=dict)
    init_idx: int = 0
    final_idx: int = 0
    k_stop: int = 0

    def __post_init__(self):
        for v in self.vertices:
            self.group_of.setdefault(v.idx, v.idx)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((a, b, w) for (a, b), w in self.weights.items())

    def group_members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for idx in sorted(self.group_of):
            out.setdefault(self.group_of[idx], []).append(idx)
        return out

    def property_groups(self) -> list[list[int]]:
        return [m for g, m in sorted(self.group_members().items())
                if self.vertices[m[0]].kind == PROP]

    def add_clone(self, of: int) -> Vertex:
        """A copy of vertex `of` in its group: the group's original
        vertex, whose pins every member shares, named with the copy's
        member number (`p3#2`, `p3#3`, ...)."""
        group = self.group_of[of]
        orig = self.vertices[group]
        copies = sum(1 for v in self.vertices if self.group_of[v.idx] == group)
        clone = Vertex(len(self.vertices), f"{orig.name}#{copies + 1}", PROP,
                       orig.phi, orig.psi)
        self.vertices.append(clone)
        self.group_of[clone.idx] = group
        return clone

    def named_edges(self) -> list[tuple[str, str, int]]:
        return [(self.vertices[a].name, self.vertices[b].name, w)
                for a, b, w in self.edges()]

    def to_dot(self) -> str:
        """Nodes keyed by vertex index, so a property named like the
        start or final vertex stays a node of its own."""
        lines = ["digraph reachgraph {", "  rankdir=LR;"]
        for v in self.vertices:
            shape = "doublecircle" if v.kind != PROP else "circle"
            lines.append(f'  {v.idx} [label="{v.name}", shape={shape}];')
        for a, b, w in self.edges():
            lines.append(f'  {a} -> {b} [label="{w}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def make_vertices(props, init_expr: Expr, final_expr: Expr) -> list[Vertex]:
    vs = [Vertex(0, "I", INIT, init_expr)]
    for p in props:
        vs.append(Vertex(len(vs), p.name, PROP, p.assumption, p.assertion))
    vs.append(Vertex(len(vs), "F", FINAL, final_expr))
    return vs


@dataclass
class BuildOutcome:
    graph: ReachGraph
    status: str  # "path" | "bound-exceeded"


def target_pairs(g: ReachGraph) -> list[tuple[int, int]]:
    """All pairs whose weight the abstraction wants: start->trigger,
    trigger->final, trigger->trigger.  start->final only matters when
    there are no properties at all."""
    props = [v.idx for v in g.vertices if v.kind == PROP]
    if not props:
        return [(g.init_idx, g.final_idx)]
    pairs = [(g.init_idx, p) for p in props]
    pairs += [(p, g.final_idx) for p in props]
    pairs += [(a, b) for a in props for b in props if a != b]
    return pairs


def build_reach_graph(unr: Unrolling, props, init_expr: Expr, final_expr: Expr,
                      k_max: int, *, exhaust: bool = False) -> BuildOutcome:
    """Grow the abstraction one depth at a time until a covering path
    exists (or, with exhaust=True, until every pair is resolved), giving
    each pair the minimal depth at which it is witnessed.

    A source stops deepening once no simple run can reach anything new
    from it: after a depth k >= 1 that resolved no pair, each source with
    open pairs is asked whether k + 1 distinct states can follow its
    covering step (`simple_run_exists`).  If not, its open pairs are
    unreachable at every depth; they are recorded as checked to k_max
    and leave the build, and a later build on the same unrolling starts
    without them.  If so, it is not asked again while k + 1 < 2m - 1 for
    its longest known simple run of m states (`Unrolling.simple_runs`),
    so a long simple run costs O(log k_max) queries.

    The status is "path" when a covering path exists at the end, else
    "bound-exceeded".  Each graph state is closed at most once: the
    covering-path answer is kept until a depth adds an edge."""
    vertices = make_vertices(props, init_expr, final_expr)
    g = ReachGraph(vertices, final_idx=len(vertices) - 1)
    pid = [unr.pin_id(v.pin()) for v in g.vertices]
    remaining = {(a, b) for (a, b) in target_pairs(g)
                 if unr.bound((pid[a], pid[b])) <= k_max}
    covered: Optional[bool] = None
    k = 0
    while remaining and k <= k_max:
        if not exhaust:
            if covered is None:
                covered = exists_covering_path(g)
            if covered:
                break
        resolved = False
        query: dict[tuple[int, int], tuple[Pin, Pin]] = {}
        for (a, b) in sorted(remaining):
            va, vb = g.vertices[a], g.vertices[b]
            key = (pid[a], pid[b])
            if key in unr.weight:
                if unr.weight[key] == k:
                    g.weights[(a, b)] = k
                    remaining.discard((a, b))
                    resolved = True
                continue
            if unr.checked_to.get(key, -1) >= k:
                continue
            if k == 0 and va.kind == PROP and vb.kind == FINAL:
                # covering consumes one transition; a final edge is never 0
                unr.checked_to[key] = 0
                continue
            query[(a, b)] = (va.pin(), vb.pin())
        if query:
            found = get_kreach_edges(unr, query, k)
            for (a, b) in query:
                key = (pid[a], pid[b])
                if (a, b) in found:
                    unr.weight[key] = k
                    g.weights[(a, b)] = k
                    remaining.discard((a, b))
                else:
                    unr.checked_to[key] = k
            resolved = resolved or bool(found)
        if resolved:
            covered = None
        elif 0 < k < k_max:
            _drop_bounded_sources(unr, g, pid, remaining, k, k_max)
        k += 1
    g.k_stop = min(max(k - 1, 0), k_max)
    if covered is None:
        covered = exists_covering_path(g)
    return BuildOutcome(g, "path" if covered else "bound-exceeded")


def _drop_bounded_sources(unr: Unrolling, g: ReachGraph, pid: list[int],
                          remaining: set, k: int, k_max: int) -> None:
    """Ask each source with open pairs (remaining, no known weight), in
    index order, whether k + 1 distinct states can follow its covering
    step, on the schedule above.  Every open pair has no witness of k
    steps or fewer, so on a no its open pairs are unreachable at any
    depth."""
    open_pairs: dict[int, list[tuple[int, int]]] = {}
    for (a, b) in sorted(remaining):
        if (pid[a], pid[b]) not in unr.weight:
            open_pairs.setdefault(a, []).append((a, b))
    for a, pairs in open_pairs.items():
        known = unr.simple_runs.get(pid[a], (0, math.inf))[0]
        if k + 1 < 2 * known - 1 or simple_run_exists(unr, g.vertices[a].pin(), k + 1):
            continue
        for (x, y) in pairs:
            unr.checked_to[(pid[x], pid[y])] = k_max
            remaining.discard((x, y))


@dataclass
class ClosedGraph:
    """Min-plus transitive closure with parent pointers for expansion."""
    base: ReachGraph
    dist: dict[tuple[int, int], int]
    via: dict[tuple[int, int], Optional[int]]

    def has(self, a: int, b: int) -> bool:
        return (a, b) in self.dist

    def expand_edge(self, a: int, b: int) -> list[tuple[int, int, int]]:
        """Original-edge decomposition of a closure edge, as
        (src, dst, weight) triples."""
        if a == b:
            return []
        m = self.via.get((a, b))
        if m is None:
            return [(a, b, self.dist[(a, b)])]
        return self.expand_edge(a, m) + self.expand_edge(m, b)


def transitive_closure(g: ReachGraph) -> ClosedGraph:
    n = g.n
    dist: dict[tuple[int, int], int] = {(i, i): 0 for i in range(n)}
    via: dict[tuple[int, int], Optional[int]] = {}
    for (a, b), w in g.weights.items():
        if dist.get((a, b), math.inf) > w:
            dist[(a, b)] = w
            via[(a, b)] = None
    for m in range(n):
        for i in range(n):
            dim = dist.get((i, m))
            if dim is None or i == m:
                continue
            for j in range(n):
                if j == m:
                    continue
                dmj = dist.get((m, j))
                if dmj is None:
                    continue
                if dist.get((i, j), math.inf) > dim + dmj:
                    dist[(i, j)] = dim + dmj
                    via[(i, j)] = m
    return ClosedGraph(g, dist, via)


def insertion_path(start: int, end: int, groups, has) -> Optional[list[int]]:
    """Covering path by insertion: begin with [start, end] and give each
    group, in order, its first member v that fits some slot (a, b) of the
    path with has(a, v) and has(v, b), trying slots from the last one
    back.  Returns None when some group has no member that fits, or when
    there are no groups and has(start, end) fails.  Every link of a
    returned path satisfies `has`.  On a transitively closed relation a
    slot's two links already imply that start reaches v and v reaches
    end, so no separate viability test is needed."""
    if not groups and not has(start, end):
        return None
    path = [start, end]
    for members in groups:
        for v in members:
            pos = next((p for p in range(len(path) - 2, -1, -1)
                        if has(path[p], v) and has(v, path[p + 1])), None)
            if pos is not None:
                path.insert(pos + 1, v)
                break
        else:
            return None
    return path


def get_covering_path(closed: ClosedGraph) -> Optional[list[int]]:
    """Constructive covering path on the closure: `insertion_path` from
    the start to the final vertex over the property groups (members in
    index order).  Visits one member per refinement group; None when the
    insertion gets stuck, which is also how existence is decided."""
    g = closed.base
    return insertion_path(g.init_idx, g.final_idx,
                          [sorted(m) for m in g.property_groups()], closed.has)


def exists_covering_path(g: ReachGraph) -> bool:
    """Does a covering path exist?  Decided by the constructive insertion
    on the min-plus closure: true exactly when `get_covering_path` finds
    one.  Exact with singleton groups, as while the abstraction is built;
    on a refined graph it answers for the members the insertion picks."""
    return get_covering_path(transitive_closure(g)) is not None


def expand_path(closed: ClosedGraph, path: list[int]) -> tuple[list[int], list[int]]:
    """Expand a closure-level path to original edges, inserting the
    intermediate vertices the closure routed through."""
    vs = [path[0]]
    ws: list[int] = []
    for a, b in zip(path, path[1:]):
        for (x, y, w) in closed.expand_edge(a, b):
            vs.append(y)
            ws.append(w)
    return vs, ws
