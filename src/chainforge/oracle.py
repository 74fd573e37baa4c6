"""Independent ground truth by explicit-state search over
`model.StateSpace`.

`oracle_min_chain` runs BFS over (concrete state, covered-property
bitmask) product nodes and returns the true minimal chain length, used as
a lower bound and as the minimality reference on small models.  The
module also computes the pairwise trigger distances the abstraction is
supposed to discover, generates seeded random models for the property
suites, and implements the random-walk baseline generator with greedy
test-suite minimisation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .model import (BinOp, Const, EvalError, Expr, IntRange, Ite, Model,
                    Property, Ref, SPACE_INPUT, SPACE_STATE, StateSpace, TRUE,
                    covers, eval_expr, step)


class OracleLimit(Exception):
    """The product space exceeds the configured node limit."""


def _space(model: Model, node_limit: int) -> StateSpace:
    if model.state_space_size() > node_limit:
        raise OracleLimit("state space exceeds the explicit-state limit")
    return StateSpace(model)


def reachability_diameter(model: Model, node_limit: int = 1_000_000) -> int:
    """Longest finite shortest path between invariant states (BFS from
    every state)."""
    space = _space(model, node_limit)
    return max((max(space.distances({si: 0}).values())
                for si in range(len(space.states))), default=0)


def oracle_min_chain(model: Model, props, init_expr: Expr, final_expr: Expr,
                     node_limit: int = 1_000_000) -> Optional[int]:
    """True minimal covering-chain length by product BFS, or None when no
    chain exists.  A property counts as covered only when its assertion
    holds on the covering transition, mirroring generation."""
    space = _space(model, node_limit)
    nprops = len(props)
    if len(space.states) * (1 << nprops) > node_limit:
        raise OracleLimit("product space exceeds the node limit")
    full = (1 << nprops) - 1
    final_set = set(space.where(final_expr))
    start = [(si, 0) for si in space.where(init_expr)]
    dist = {node: 0 for node in start}
    q = deque(start)
    for (si, mask) in start:
        if mask == full and si in final_set:
            return 0
    while q:
        node = q.popleft()
        si, mask = node
        d = dist[node]
        s = space.states[si]
        for ii, iv in enumerate(space.inputs):
            ti = space.succ(si, ii)
            if ti is None:
                continue
            nmask = mask
            for p_i, p in enumerate(props):
                if not nmask >> p_i & 1 and covers(p, s, iv, space.states[ti]):
                    nmask |= 1 << p_i
            nxt = (ti, nmask)
            if nxt not in dist:
                dist[nxt] = d + 1
                if nmask == full and ti in final_set:
                    return d + 1
                q.append(nxt)
    return None


# ---------------------------------------------------------------------------
# Pairwise trigger distances (the weights the abstraction should find)
# ---------------------------------------------------------------------------

def pair_min_weights(model: Model, props, init_expr: Expr, final_expr: Expr,
                     k_cap: int = 64,
                     node_limit: int = 1_000_000) -> dict[tuple[str, str], int]:
    """BFS reference for every start->trigger / trigger->trigger /
    trigger->final weight, with the same anchoring as the symbolic query:
    a property source must take a valid covering transition first, a
    property target needs some legal input satisfying its trigger at the
    arrival step (its assertion too when the pair coincides at weight 0),
    and a final edge from a property is never 0."""
    space = _space(model, node_limit)
    names = ["I"] + [p.name for p in props] + ["F"]
    final_set = set(space.where(final_expr))
    init_set = set(space.where(init_expr))
    triggers = [set(space.triggered(p.assumption)) for p in props]
    n_in = len(space.inputs)

    def covers_here(p: Property, si: int, ii: int) -> bool:
        ti = space.succ(si, ii)
        return ti is not None and covers(p, space.states[si], space.inputs[ii],
                                         space.states[ti])

    weights: dict[tuple[str, str], int] = {}
    for i_src in range(len(names) - 1):
        src_name = names[i_src]
        if src_name == "I":
            # zero-step pairs: an initial state whose own covering
            # transition works (source has no assertion of its own)
            for q in props:
                if any(covers_here(q, si, ii) for si in init_set for ii in range(n_in)):
                    weights[("I", q.name)] = 0
            if not props and init_set & final_set:
                weights[("I", "F")] = 0
            dist = space.distances(dict.fromkeys(init_set, 0), cap=k_cap)
        else:
            p = props[i_src - 1]
            covs = [(si, ii) for si in range(len(space.states))
                    for ii in range(n_in) if covers_here(p, si, ii)]
            for q in props:
                if q.name == src_name:
                    continue
                # weight 0: one transition covers both properties
                if any(covers_here(q, si, ii) for (si, ii) in covs):
                    weights[(src_name, q.name)] = 0
            succ0 = {space.succ(si, ii) for (si, ii) in covs}
            dist = space.distances({t: 1 for t in succ0 if t is not None}, cap=k_cap)
        for j in range(1, len(names)):
            if j == i_src or (src_name, names[j]) in weights:
                continue
            if names[j] == "F":
                if src_name == "I" and props:
                    continue  # not a target pair
                tgt = final_set
            else:
                tgt = triggers[j - 1]
            # at distance 0 the stricter zero-step rule above applies, so
            # only depths >= 1 count here
            ds = [dist[t] for t in tgt if t in dist and dist[t] >= 1]
            if ds and min(ds) <= k_cap:
                weights[(src_name, names[j])] = min(ds)
    return weights


# ---------------------------------------------------------------------------
# Random models for the property suites
# ---------------------------------------------------------------------------

@dataclass
class Generated:
    model: Model
    props: list[Property]
    init_expr: Expr
    final_expr: Expr
    table: list[list[int]]  # transition table: table[state][input] -> state


def int_const(v: int) -> Const:
    return Const(v, IntRange(v, v))


def table_model(name: str, table: list[list[int]],
                init_state: int = 0) -> Model:
    """Machine defined by an explicit transition table over one
    bounded-int state variable `s` and one input variable `a`:
    table[s][a] is the successor state."""
    n = len(table)
    m = len(table[0])
    sdom = IntRange(0, n - 1)
    idom = IntRange(0, m - 1)
    s_ref = Ref("s", SPACE_STATE, sdom)
    a_ref = Ref("a", SPACE_INPUT, idom)
    update: Expr = int_const(table[n - 1][m - 1])
    for s in range(n - 1, -1, -1):
        inner: Expr = int_const(table[s][m - 1])
        for a in range(m - 2, -1, -1):
            inner = Ite(BinOp("==", a_ref, int_const(a)), int_const(table[s][a]), inner)
        if s == n - 1:
            update = inner
        else:
            update = Ite(BinOp("==", s_ref, int_const(s)), inner, update)
    return Model(name=name,
                 state_vars=(("s", sdom),),
                 inputs=(("a", idom),),
                 init_values=(("s", init_state),),
                 transition=(("s", update),))


def state_eq(model: Model, value: int) -> Expr:
    return BinOp("==", model.state_ref("s"), int_const(value))


def random_model(seed: int, n_states: int = 0, n_inputs: int = 0, n_props: int = 0,
                 multi_state: bool = False) -> Generated:
    """Seeded strongly connected machine over one bounded-int state
    variable.  Input 0 steps along a full cycle, so every state reaches
    every other; remaining entries are uniform.  Properties trigger on
    distinct states (pairs of states when multi_state), optionally pin
    their input, and assert the true successor where it is unique."""
    rng = random.Random(seed)
    n = n_states or rng.randrange(6, 15)
    m = n_inputs or rng.choice((2, 2, 3))
    k = n_props or rng.randrange(2, 5)
    table = [[(s + 1) % n if a == 0 else rng.randrange(n) for a in range(m)]
             for s in range(n)]
    model = table_model(f"rand{seed}", table)
    s_ref, a_ref = model.state_ref("s"), model.input_ref("a")

    trigger_states = rng.sample(range(n), min(n, k * (2 if multi_state else 1)))
    props: list[Property] = []
    pos = 0
    for p_i in range(k):
        if multi_state and pos + 1 < len(trigger_states) and rng.random() < 0.8:
            c1, c2 = trigger_states[pos], trigger_states[pos + 1]
            pos += 2
            phi_state: Expr = BinOp("||", BinOp("==", s_ref, int_const(c1)),
                                    BinOp("==", s_ref, int_const(c2)))
        else:
            c1 = trigger_states[pos % len(trigger_states)]
            pos += 1
            phi_state = BinOp("==", s_ref, int_const(c1))
            c2 = None
        if rng.random() < 0.7:
            v = rng.randrange(m)
            phi = BinOp("&&", phi_state, BinOp("==", a_ref, int_const(v)))
            if c2 is None:
                psi: Expr = BinOp("==", model.next_ref("s"), int_const(table[c1][v]))
            else:
                psi = TRUE
        else:
            phi = phi_state
            psi = TRUE
        props.append(Property(f"p{p_i}", phi, psi))
    init_expr = BinOp("==", s_ref, int_const(0))
    return Generated(model, props, init_expr, init_expr, table)


# ---------------------------------------------------------------------------
# Random-walk baseline with suite minimisation
# ---------------------------------------------------------------------------

@dataclass
class BaselineCase:
    inputs: list[dict]
    covered: frozenset[str]


@dataclass
class BaselineResult:
    cases: list[BaselineCase] = field(default_factory=list)
    selected: list[int] = field(default_factory=list)
    coverage: float = 0.0
    total_length: int = 0
    steps_used: int = 0


def random_baseline(model: Model, props, init_expr: Expr, final_expr: Expr,
                    budget: int, seed: int, max_walk: int = 64) -> BaselineResult:
    """Random walks restarted from a start state (drawn at random when
    `init_expr` holds in more than one); walks that return to the final
    set become candidate test cases, and a greedy weighted set cover picks
    a covering subset minimising total input length."""
    rng = random.Random(seed)
    res = BaselineResult()
    space = StateSpace(model)
    starts = [space.states[i] for i in space.where(init_expr)]
    if not starts:
        raise EvalError("baseline needs a start state")
    legal = space.inputs
    want = {p.name for p in props}
    steps = 0
    while steps < budget:
        s = dict(rng.choice(starts) if len(starts) > 1 else starts[0])
        walk: list[dict] = []
        covered: set[str] = set()
        for _ in range(max_walk):
            if steps >= budget:
                break
            iv = legal[rng.randrange(len(legal))]
            nxt = step(model, s, iv, check=False)
            steps += 1
            for p in props:
                if p.name not in covered and covers(p, s, iv, nxt):
                    covered.add(p.name)
            walk.append(iv)
            s = nxt
            if covered and eval_expr(final_expr, s):
                res.cases.append(BaselineCase(list(walk), frozenset(covered)))
                break
    res.steps_used = steps
    # greedy weighted cover: best new-coverage per input until stuck
    uncovered = set(want)
    while uncovered:
        best, best_score = -1, 0.0
        for i, case in enumerate(res.cases):
            if i in res.selected:
                continue
            gain = len(case.covered & uncovered)
            if gain == 0:
                continue
            score = gain / max(len(case.inputs), 1)
            if score > best_score or (score == best_score and best >= 0 and
                                      len(case.inputs) < len(res.cases[best].inputs)):
                best, best_score = i, score
        if best < 0:
            break
        res.selected.append(best)
        uncovered -= res.cases[best].covered
    covered_total = want - uncovered
    res.coverage = (len(covered_total) / len(want)) if want else 1.0
    res.total_length = sum(len(res.cases[i].inputs) for i in res.selected)
    return res
