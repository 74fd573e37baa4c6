"""Semantic core: finite-domain expressions, reactive models, safety
properties, and an explicit-state interpreter.

A model is a synchronous reactive system: each tick it reads one input
vector and updates all state variables simultaneously through the
expressions in its transition table.  The interpreter here is the ground
truth that the symbolic layers are checked against, and it is what test
replay uses.

All objects are immutable after construction, except that a `StateSpace`
fills its successor cache as it is queried, so one instance should not be
shared between threads; every function in this module is pure and safe to
call concurrently.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union


class SortError(Exception):
    """An expression is ill-sorted for the context it is used in."""


class EvalError(Exception):
    """An expression could not be evaluated (missing frame, bad value)."""


class ModelError(Exception):
    """The model itself is inconsistent (bad invariant, bad input)."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoolDomain:
    def values(self):
        return (False, True)

    @property
    def size(self) -> int:
        return 2

    def contains(self, v) -> bool:
        return isinstance(v, bool)

    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class IntRange:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise SortError(f"empty domain {self.lo}..{self.hi}")

    def values(self):
        return range(self.lo, self.hi + 1)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def clamp(self, v: int) -> int:
        return min(max(v, self.lo), self.hi)

    def __str__(self):
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class EnumDomain:
    name: str
    constants: tuple[str, ...]

    def __post_init__(self):
        if not self.constants:
            raise SortError("enum domain needs at least one constant")
        if len(set(self.constants)) != len(self.constants):
            raise SortError(f"duplicate constants in enum {self.name}")

    def values(self):
        return self.constants

    @property
    def size(self) -> int:
        return len(self.constants)

    def contains(self, v) -> bool:
        return v in self.constants

    def index(self, v: str) -> int:
        return self.constants.index(v)

    def __str__(self):
        return "{" + ", ".join(self.constants) + "}"


Domain = Union[BoolDomain, IntRange, EnumDomain]
BOOL = BoolDomain()

#: Value of a variable: bool, int, or an enum constant name.
Value = Union[bool, int, str]

#: Total assignments of state / input variables.
StateVec = Mapping[str, Value]
InputVec = Mapping[str, Value]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

#: Variable spaces an expression may reference.
SPACE_STATE = "state"
SPACE_INPUT = "input"
SPACE_NEXT = "next"

BOOL_OPS = ("&&", "||", "=>")
CMP_OPS = ("==", "!=", "<", "<=")
ARITH_OPS = ("+", "-")


@dataclass(frozen=True)
class Const:
    value: Value
    domain: Domain


@dataclass(frozen=True)
class Ref:
    """A variable reference, resolved against a model's declarations.

    `space` is "state" (pre-state), "input", or "next" (post-state); the
    declared domain is carried on the node so evaluation and encoding do
    not need the model.
    """
    name: str
    space: str
    domain: Domain


@dataclass(frozen=True)
class Not:
    a: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Ite:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[Const, Ref, Not, BinOp, Ite]

TRUE = Const(True, BOOL)
FALSE = Const(False, BOOL)


def conj(*exprs: Expr) -> Expr:
    out: Optional[Expr] = None
    for e in exprs:
        if e == TRUE:
            continue
        out = e if out is None else BinOp("&&", out, e)
    return out if out is not None else TRUE


def disj(*exprs: Expr) -> Expr:
    out: Optional[Expr] = None
    for e in exprs:
        if e == FALSE:
            continue
        out = e if out is None else BinOp("||", out, e)
    return out if out is not None else FALSE


def operands(e: Expr) -> tuple[Expr, ...]:
    """The children of `e` in source order, none for a leaf."""
    if isinstance(e, Not):
        return (e.a,)
    if isinstance(e, BinOp):
        return (e.a, e.b)
    if isinstance(e, Ite):
        return (e.cond, e.then, e.other)
    return ()


def node_sort(e: Expr, *sorts: Domain) -> Domain:
    """Sort of the node `e` from the sorts of its `operands`, which are
    not looked at.  Integer `+`/`-` get the exact interval of their
    result, `? :` over integers the hull of both branches.  Raises
    SortError if the node is ill-sorted."""
    if isinstance(e, (Const, Ref)):
        return e.domain
    if isinstance(e, Not):
        if sorts[0] != BOOL:
            raise SortError("'!' needs a boolean operand")
        return BOOL
    if isinstance(e, Ite):
        dc, dt, de = sorts
        if dc != BOOL:
            raise SortError("'?' condition must be boolean")
        if isinstance(dt, IntRange) and isinstance(de, IntRange):
            return IntRange(min(dt.lo, de.lo), max(dt.hi, de.hi))
        if dt != de:
            raise SortError(f"'? :' branches have different sorts ({dt} vs {de})")
        return dt
    if isinstance(e, BinOp):
        da, db = sorts
        if e.op in BOOL_OPS:
            if da != BOOL or db != BOOL:
                raise SortError(f"'{e.op}' needs boolean operands")
            return BOOL
        if e.op in ("<", "<="):
            if not (isinstance(da, IntRange) and isinstance(db, IntRange)):
                raise SortError(f"'{e.op}' is only defined on bounded integers")
            return BOOL
        if e.op in ("==", "!="):
            if not (isinstance(da, IntRange) and isinstance(db, IntRange)) and da != db:
                raise SortError(f"'{e.op}' compares values of different sorts ({da} vs {db})")
            return BOOL
        if e.op in ARITH_OPS:
            if not (isinstance(da, IntRange) and isinstance(db, IntRange)):
                raise SortError(f"'{e.op}' needs integer operands")
            if e.op == "+":
                return IntRange(da.lo + db.lo, da.hi + db.hi)
            return IntRange(da.lo - db.hi, da.hi - db.lo)
        raise SortError(f"unknown operator '{e.op}'")
    raise SortError(f"not an expression: {e!r}")


def sort_of(e: Expr) -> Domain:
    """Sort of a whole tree by one `node_sort` per node, operands first
    and left to right: the first ill-sorted node raises its SortError."""
    return node_sort(e, *map(sort_of, operands(e)))


def refs_of(e: Expr) -> Iterator[Ref]:
    """Every variable reference in `e`, in source order."""
    if isinstance(e, Ref):
        yield e
    for o in operands(e):
        yield from refs_of(o)


def check_spaces(e: Expr, allowed: frozenset[str], what: str) -> None:
    for r in refs_of(e):
        if r.space not in allowed:
            raise SortError(f"{what} must not reference {r.space} variable '{r.name}'")


def eval_expr(e: Expr, state: StateVec, inputs: Optional[InputVec] = None,
              nxt: Optional[StateVec] = None) -> Value:
    """Evaluate an expression over total assignments.

    `inputs` / `nxt` are only needed when the expression references that
    space.  Integer arithmetic is exact here; saturation happens at
    assignment into a declared variable (see `step`).
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Ref):
        if e.space == SPACE_STATE:
            return state[e.name]
        if e.space == SPACE_INPUT:
            if inputs is None:
                raise EvalError(f"no input frame for '{e.name}'")
            return inputs[e.name]
        if nxt is None:
            raise EvalError(f"no next-state frame for '{e.name}'")
        return nxt[e.name]
    if isinstance(e, Not):
        return not eval_expr(e.a, state, inputs, nxt)
    if isinstance(e, Ite):
        if eval_expr(e.cond, state, inputs, nxt):
            return eval_expr(e.then, state, inputs, nxt)
        return eval_expr(e.other, state, inputs, nxt)
    if isinstance(e, BinOp):
        op = e.op
        if op == "&&":
            return bool(eval_expr(e.a, state, inputs, nxt)) and bool(eval_expr(e.b, state, inputs, nxt))
        if op == "||":
            return bool(eval_expr(e.a, state, inputs, nxt)) or bool(eval_expr(e.b, state, inputs, nxt))
        if op == "=>":
            return (not eval_expr(e.a, state, inputs, nxt)) or bool(eval_expr(e.b, state, inputs, nxt))
        va = eval_expr(e.a, state, inputs, nxt)
        vb = eval_expr(e.b, state, inputs, nxt)
        if op == "==":
            return va == vb
        if op == "!=":
            return va != vb
        if op == "<":
            return va < vb
        if op == "<=":
            return va <= vb
        if op == "+":
            return va + vb
        if op == "-":
            return va - vb
        raise EvalError(f"unknown operator '{op}'")
    raise EvalError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Models and properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """A synchronous reactive system over finite domains.

    `init_values` gives concrete initial values (possibly partial);
    `init_pred` is an additional predicate over the state.  Variables
    missing from `transition` keep their value.
    """
    name: str
    state_vars: tuple[tuple[str, Domain], ...]
    inputs: tuple[tuple[str, Domain], ...]
    init_values: tuple[tuple[str, Value], ...] = ()
    init_pred: Expr = TRUE
    input_assumption: Expr = TRUE
    state_invariant: Expr = TRUE
    transition: tuple[tuple[str, Expr], ...] = ()

    # -- declarations -------------------------------------------------------

    def state_domain(self, name: str) -> Domain:
        for n, d in self.state_vars:
            if n == name:
                return d
        raise KeyError(name)

    def input_domain(self, name: str) -> Domain:
        for n, d in self.inputs:
            if n == name:
                return d
        raise KeyError(name)

    def state_ref(self, name: str) -> Ref:
        return Ref(name, SPACE_STATE, self.state_domain(name))

    def input_ref(self, name: str) -> Ref:
        return Ref(name, SPACE_INPUT, self.input_domain(name))

    def next_ref(self, name: str) -> Ref:
        return Ref(name, SPACE_NEXT, self.state_domain(name))

    def transition_expr(self, name: str) -> Optional[Expr]:
        for n, e in self.transition:
            if n == name:
                return e
        return None

    # -- initial states -----------------------------------------------------

    def initial_state(self) -> Optional[dict[str, Value]]:
        """The unique initial state, or None if init is not deterministic."""
        vals = dict(self.init_values)
        if len(vals) != len(self.state_vars):
            return None
        s = {n: vals[n] for n, _ in self.state_vars}
        if not eval_expr(self.init_pred, s):
            return None
        return s

    def init_expr(self) -> Expr:
        """Initial-state set as a predicate over state variables."""
        parts = [BinOp("==", self.state_ref(n), Const(v, self.state_domain(n)))
                 for n, v in self.init_values]
        parts.append(self.init_pred)
        return conj(*parts)

    # -- enumeration helpers ------------------------------------------------

    def state_space_size(self) -> int:
        return math.prod(d.size for _, d in self.state_vars)

    def input_space_size(self) -> int:
        return math.prod(d.size for _, d in self.inputs)

    def all_states(self) -> Iterator[dict[str, Value]]:
        names = [n for n, _ in self.state_vars]
        for combo in itertools.product(*(d.values() for _, d in self.state_vars)):
            yield dict(zip(names, combo))

    def all_inputs(self) -> Iterator[dict[str, Value]]:
        names = [n for n, _ in self.inputs]
        for combo in itertools.product(*(d.values() for _, d in self.inputs)):
            yield dict(zip(names, combo))

    def legal_inputs(self) -> list[dict[str, Value]]:
        return [i for i in self.all_inputs() if eval_expr(self.input_assumption, {}, i)]


@dataclass(frozen=True)
class Property:
    """A safety property: assumption (trigger) over (state, input), and an
    assertion that may additionally reference the next state."""
    name: str
    assumption: Expr
    assertion: Expr = TRUE


@dataclass(frozen=True)
class TestChain:
    """One input sequence, its induced trace, and where each property got
    covered.  trace has exactly one more entry than inputs."""
    inputs: tuple[InputVec, ...]
    trace: tuple[StateVec, ...]
    covers: Mapping[str, int]

    @property
    def length(self) -> int:
        return len(self.inputs)


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

def step(m: Model, s: StateVec, i: InputVec, check: bool = True) -> dict[str, Value]:
    """The unique successor of `s` under input `i`.

    All update expressions read the pre-state; integer results saturate
    into the assigned variable's declared range.  If the successor
    violates the state invariant the invariant annotation is wrong and a
    ModelError is raised.
    """
    if check:
        if not eval_expr(m.input_assumption, {}, i):
            raise ModelError(f"input {dict(i)} violates the input assumption")
        if not eval_expr(m.state_invariant, s):
            raise ModelError(f"state {dict(s)} violates the state invariant")
    nxt = dict(s)
    for name, expr in m.transition:
        v = eval_expr(expr, s, i)
        dom = m.state_domain(name)
        if isinstance(dom, IntRange):
            v = dom.clamp(v)
        nxt[name] = v
    if check and not eval_expr(m.state_invariant, nxt):
        raise ModelError(
            f"successor {nxt} of {dict(s)} violates the state invariant "
            "(the invariant annotation is not inductive)")
    return nxt


def covers(p: Property, s: StateVec, i: InputVec, nxt: StateVec) -> bool:
    """Whether the transition `s --i--> nxt` covers `p`: its trigger holds
    at (s, i) and its assertion holds on the transition."""
    return bool(eval_expr(p.assumption, s, i)) and bool(eval_expr(p.assertion, s, i, nxt))


class StateSpace:
    """Enumerated view of a model: the states inside the invariant in
    `all_states()` order, the legal inputs, and the concrete successor
    function over their indices, computed on first use."""

    def __init__(self, model: Model):
        self.model = model
        self.names = [n for n, _ in model.state_vars]
        self.inputs = model.legal_inputs()
        self.states = [s for s in model.all_states()
                       if eval_expr(model.state_invariant, s)]
        self.index = {self.key(s): i for i, s in enumerate(self.states)}
        self._succ: dict[tuple[int, int], Optional[int]] = {}

    def key(self, s: StateVec) -> tuple:
        return tuple(s[n] for n in self.names)

    def succ(self, si: int, ii: int) -> Optional[int]:
        """Successor state index, or None if it leaves the invariant."""
        k = (si, ii)
        if k not in self._succ:
            nxt = step(self.model, self.states[si], self.inputs[ii], check=False)
            self._succ[k] = self.index.get(self.key(nxt))
        return self._succ[k]

    def where(self, e: Expr) -> list[int]:
        """Indices of the states where the state predicate `e` holds."""
        return [i for i, s in enumerate(self.states) if eval_expr(e, s)]

    def triggered(self, phi: Expr) -> Iterator[int]:
        """Indices of the states where `phi` holds under some legal input,
        in order, so a caller may stop early."""
        for i, s in enumerate(self.states):
            if any(eval_expr(phi, s, iv) for iv in self.inputs):
                yield i

    def distances(self, sources: Mapping[int, int],
                  cap: Optional[int] = None) -> dict[int, int]:
        """Breadth-first distances from `sources` (index -> start depth,
        all equal) without leaving the invariant; states at depth `cap`
        or more are not expanded."""
        dist = dict(sources)
        q = deque(sorted(sources))
        while q:
            si = q.popleft()
            if cap is not None and dist[si] >= cap:
                continue
            for ii in range(len(self.inputs)):
                t = self.succ(si, ii)
                if t is not None and t not in dist:
                    dist[t] = dist[si] + 1
                    q.append(t)
        return dist


def reachable_states(m: Model, init: Expr) -> list[dict[str, Value]]:
    """Every state reachable from the states satisfying `init` under
    legal inputs without leaving the state invariant, in `all_states()`
    order."""
    space = StateSpace(m)
    reach = space.distances(dict.fromkeys(space.where(init), 0))
    return [space.states[i] for i in sorted(reach)]


def run_trace(m: Model, s0: StateVec, inputs) -> list[dict[str, Value]]:
    """Fold `step` over an input sequence, returning the full trace."""
    trace = [dict(s0)]
    for i in inputs:
        trace.append(step(m, trace[-1], i))
    return trace


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying an input sequence against model + properties.

    `violations` holds (property, step) pairs where the trigger fired but
    the assertion failed on the executed transition — a found bug, which
    is distinct from the property merely being uncovered.
    """
    ok: bool
    chain: Optional[TestChain]
    trace: tuple[StateVec, ...]
    covers: Mapping[str, int]
    violations: tuple[tuple[str, int], ...]
    uncovered: tuple[str, ...]
    final_ok: bool


def replay(m: Model, props, final: Expr, inputs,
           start: Optional[StateVec] = None) -> ReplayReport:
    """Simulate the inputs from `start` (default: the deterministic
    initial state), recording where each property's trigger fires and
    checking its assertion there."""
    s0 = m.initial_state() if start is None else start
    if s0 is None:
        raise EvalError("replay requires a model with deterministic initial values")
    trace = [s0]
    covered: dict[str, int] = {}
    violations: list[tuple[str, int]] = []
    for k, iv in enumerate(inputs):
        s = trace[-1]
        nxt = step(m, s, iv)
        for p in props:
            if covers(p, s, iv, nxt):
                covered.setdefault(p.name, k)
            elif eval_expr(p.assumption, s, iv):
                violations.append((p.name, k))
        trace.append(nxt)
    final_ok = bool(eval_expr(final, trace[-1]))
    uncovered = tuple(p.name for p in props if p.name not in covered)
    ok = final_ok and not violations and not uncovered
    chain = None
    if ok:
        chain = TestChain(tuple(inputs), tuple(trace), dict(covered))
    return ReplayReport(ok, chain, tuple(trace), covered, tuple(violations),
                        uncovered, final_ok)
