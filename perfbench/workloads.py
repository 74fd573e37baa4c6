"""Seeded benchmark workloads for chainforge.

A workload is a fixed set of instances (model, properties, start set,
final set, depth bound) drawn from a *workload seed* and rendered as the
DSL text the program parses.

Workloads (see README.md for why each was chosen):

* ``ladder``   -- ``oracle.random_model`` with single-state triggers,
  16/20/24 states, 3 inputs, 5/6 properties, ``k_max = 60``.
* ``multi``    -- ``oracle.random_model(multi_state=True)``, 10/12/14/16
  states, 4/5/6 properties, ``k_max = 60``.
* ``clusters`` -- ``clusters_model`` below: a hub leading into closed
  clusters, so no single chain exists and every instance is partitioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from chainforge import dsl
from chainforge.model import TRUE, BinOp, IntRange, Property, Ref
from chainforge.oracle import Generated, int_const, oracle_min_chain, random_model, table_model

INSTANCES = 40
WORKLOAD_SEED = 1

#: The clusters workload: clusters per model, states per cluster, properties.
CLUSTERS, CLUSTER_SIZE, CLUSTER_PROPS = 3, 4, 5


@dataclass(frozen=True)
class Instance:
    """One generated input, as the program receives it: DSL text."""
    name: str
    model: str
    props: str
    init: str
    final: str
    k_max: int


@dataclass(frozen=True)
class Clustered:
    """A clusters instance plus the cluster each property lives in."""
    gen: Generated
    cluster_of: dict[str, int]


def clusters_model(seed: int) -> Clustered:
    """State 0 is a hub whose input ``c`` enters cluster ``c``; each of
    the CLUSTERS clusters is a closed, strongly connected set of
    CLUSTER_SIZE states (input 0 steps round a cycle, the other inputs
    stay inside the cluster).
    Properties trigger on distinct states, pin their input and assert the
    true successor; they are spread over at least two clusters, so no
    single chain covers them all while each cluster's share is coverable.
    """
    n_clusters, size, n_props = CLUSTERS, CLUSTER_SIZE, CLUSTER_PROPS
    rng = random.Random(seed)
    n = 1 + n_clusters * size
    m = n_clusters
    table = [[1 + a * size for a in range(m)]]
    for c in range(n_clusters):
        base = 1 + c * size
        for j in range(size):
            table.append([base + (j + 1) % size if a == 0 else base + rng.randrange(size)
                          for a in range(m)])
    while True:
        home = [rng.randrange(n_clusters) for _ in range(n_props)]
        if len(set(home)) >= 2 and max(home.count(c) for c in range(n_clusters)) <= size:
            break
    model = table_model(f"clusters{seed}", table)
    sdom = IntRange(0, n - 1)
    s_ref, a_ref = model.state_ref("s"), model.input_ref("a")
    free = {c: rng.sample(range(size), size) for c in range(n_clusters)}
    props = []
    for i, c in enumerate(home):
        st = 1 + c * size + free[c].pop()
        v = rng.randrange(m)
        phi = BinOp("&&", BinOp("==", s_ref, int_const(st)), BinOp("==", a_ref, int_const(v)))
        psi = BinOp("==", Ref("s", "next", sdom), int_const(table[st][v]))
        props.append(Property(f"p{i}", phi, psi))
    gen = Generated(model, props, BinOp("==", s_ref, int_const(0)), TRUE, table)
    return Clustered(gen, {p.name: c for p, c in zip(props, home)})


def check_clusters(inst: Clustered) -> None:
    """The workload really needs partitioning: no chain covers every
    property, and each cluster's properties are coverable on their own."""
    g = inst.gen
    if oracle_min_chain(g.model, g.props, g.init_expr, g.final_expr) is not None:
        raise ValueError(f"{g.model.name}: a single chain covers every property")
    for c in sorted(set(inst.cluster_of.values())):
        mine = [p for p in g.props if inst.cluster_of[p.name] == c]
        if oracle_min_chain(g.model, mine, g.init_expr, g.final_expr) is None:
            raise ValueError(f"{g.model.name}: cluster {c} has no covering chain")


def _ladder(rng: random.Random, i: int) -> tuple[Generated, int]:
    return random_model(rng.randrange(1 << 31), n_states=(16, 20, 24)[i % 3],
                        n_inputs=3, n_props=(5, 6)[i % 2]), 60


def _multi(rng: random.Random, i: int) -> tuple[Generated, int]:
    return random_model(rng.randrange(1 << 31), n_states=(10, 12, 14, 16)[i % 4],
                        n_props=(4, 5, 6)[i % 3], multi_state=True), 60


def _clusters(rng: random.Random, i: int) -> tuple[Generated, int]:
    inst = clusters_model(rng.randrange(1 << 31))
    check_clusters(inst)
    # no pair weight inside a cluster exceeds 4 (one covering step plus at
    # most 3 round the cycle), so k_max = 8 resolves every pair inside a
    # cluster with room to spare, and each pair across clusters is proved
    # unreachable at every depth up to 8
    return inst.gen, 8


GENERATORS: dict[str, Callable[[random.Random, int], tuple[Generated, int]]] = {
    "ladder": _ladder,
    "multi": _multi,
    "clusters": _clusters,
}


def generate(workload: str, workload_seed: int, count: int = INSTANCES) -> list[Instance]:
    """`count` instances of `workload` drawn from `workload_seed`."""
    make = GENERATORS[workload]
    rng = random.Random(workload_seed)
    out = []
    for i in range(count):
        g, k_max = make(rng, i)
        out.append(Instance(f"{workload}-{workload_seed}-{i}", dsl.format_model(g.model),
                            dsl.format_properties(g.props), dsl.format_expr(g.init_expr),
                            dsl.format_expr(g.final_expr), k_max))
    return out
