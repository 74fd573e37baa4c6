"""Bounded-model-checking queries over the unrolled transition relation.

One `Unrolling` owns one solver instance and everything valid only for
its formula: it grows monotonically (raising the horizon only appends
clauses), so all queries share learned state.  Only the first frame's
transition is encoded from the model's expressions; its gates are
recorded as a tape, and every later frame replays that tape over its
own literals, writing the same clauses that encoding it afresh would.
The unrolling also keeps the run's memos: `pred_lit`'s trigger
encodings, the pair weights and checked depths of the k-reach build, the
decoded witness run of each resolved pair, and the simple-run answers,
keyed by pin id.
A query attaches its constraints through fresh literals from
`Unrolling.scope()`; guards are passed as assumptions, and on leaving the
scope, even when the solve raises, every literal it handed out is fixed
false at level 0, so its clauses are satisfied for good and later solves
never assign or propagate them.

`simple_run_exists` bounds depth rather than probing it: it tells the
k-reach build when deeper queries from a source can find nothing (the
recurrence diameter as a completeness threshold).  `check_path` is the
one query for a planned path: it joins the witnesses of the path's edges
when they meet in equal states (`join_witnesses`, no solve), else solves
the path once, and on a failure names the end of its shortest infeasible
prefix, which follows from feasibility answers alone, so no result of
the engine hangs on which unsat core the solver returns.
`path_feasible` asks only whether a path concretises.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from . import sat
from .encode import Gates, alloc_var, assert_assignment, decode_var, encode_expr
from .model import (Expr, Model, SPACE_STATE, SPACE_INPUT, TRUE, eval_expr,
                    refs_of)


class BmcError(Exception):
    pass


@dataclass(frozen=True)
class Pin:
    """What a path vertex asserts at its offset: the trigger phi over
    (state, input), and for property vertices the assertion psi over
    (state, input, next state)."""
    phi: Expr
    psi: Optional[Expr] = None


@dataclass
class PathCheck:
    feasible: bool
    inputs: Optional[list[dict]] = None
    trace: Optional[list[dict]] = None
    failed_at: int = -1     # the end of the shortest infeasible prefix
    joined: bool = False    # joined from k-reach witnesses, with no solve


class Unrolling:
    """Transition relation unrolled step by step, with the input
    assumption and the state invariant asserted at every frame, and the
    memos of every query asked of it."""

    def __init__(self, model: Model, solver=None, invariant: Optional[Expr] = None):
        self.model = model
        self.solver = solver if solver is not None else sat.Solver()
        self.gates = Gates(self.solver)
        self.invariant = invariant if invariant is not None else model.state_invariant
        self.state_frames: list[dict] = []
        self.input_frames: list[dict] = []
        self._encoded: dict[Expr, dict[int, int]] = {}   # expr -> step -> literal
        self._pin_ids: dict[Pin, int] = {}
        # (source, target) pin ids -> minimal witnessed depth / depth checked to
        self.weight: dict[tuple[int, int], int] = {}
        self.checked_to: dict[tuple[int, int], int] = {}
        # (source, target) pin ids -> the witness that resolved the pair,
        # as decoded by `decode_run`: states 0..k and inputs 0..k-1
        self.witness: dict[tuple[int, int], tuple[list[dict], list[dict]]] = {}
        # source pin id -> (longest m with a simple run, shortest m without)
        self.simple_runs: dict[int, tuple[int, float]] = {}
        # the transition's gate tape as compiled when frame 1 is encoded
        self._program: Optional[list] = None
        self._n_slots = 0
        self._add_frame()

    # -- frames ---------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self.state_frames) - 1

    def _add_frame(self) -> None:
        k = len(self.state_frames)
        self.state_frames.append(
            {n: alloc_var(self.gates, d) for n, d in self.model.state_vars})
        self.input_frames.append(
            {n: alloc_var(self.gates, d) for n, d in self.model.inputs})
        if k > 0:
            self._assert_transition(k)
        if self.invariant is not TRUE:
            self.solver.add_clause([self.pred_lit(self.invariant, k)])
        if self.model.input_assumption is not TRUE:
            self.solver.add_clause(
                [self.pred_lit(self.model.input_assumption, k)])

    def _assert_transition(self, k: int) -> None:
        """Constrain frame k's state to the transition from frame k-1.

        Frame 1 is encoded from the model's expressions with the gate
        tape on, and the tape is compiled into a program over slots: the
        base slots are `_base_lits(k)`, every other slot a gate output.
        Every later frame replays the program, calling the same makers on
        its own base literals.  Base literals are distinct fresh variables
        at every frame and T stays T, and distinct cache keys give
        distinct variables, so every folding decision the encoder made
        for frame 1 holds at frame k.  Each maker computes its own cache
        key from the arguments the tape holds as given, so an iff whose
        operands' variable order differs from frame 1's (one of them a
        gate another query cached earlier) is keyed as encoding frame k
        would key it.  So the replay writes the clauses encoding frame k
        would, in the same order, and reuses a gate another query
        already cached exactly as the encoder would."""
        if self._program is not None:
            self._replay(k)
            return
        m = self.model
        look = self._lookup(k - 1)
        self.gates.tape = tape = []
        for name, dom in m.state_vars:
            target = self.state_frames[k][name]
            expr = m.transition_expr(name)
            if expr is None:
                assert_assignment(self.gates, target, self.state_frames[k - 1][name], dom)
            else:
                assert_assignment(self.gates, target, encode_expr(expr, self.gates, look), dom)
        self.gates.tape = None
        self._program, self._n_slots = _compile(tape, self._base_lits(k))

    def _base_lits(self, k: int) -> list[int]:
        """The literals transition k is encoded over: T, the state and
        input bits of frame k-1, and the state bits of frame k."""
        return [self.gates.T, *self.state_bits(k - 1), *self.input_bits(k - 1),
                *self.state_bits(k)]

    def _replay(self, k: int) -> None:
        # vals[s] is slot s's literal and vals[-s] its negation
        vals = [0] * (2 * self._n_slots + 1)
        for s, lit in enumerate(self._base_lits(k), 1):
            vals[s] = lit
            vals[-s] = -lit
        for maker, args, out in self._program:
            lit = maker(*args(vals))
            if out:
                vals[out] = lit
                vals[-out] = -lit

    def ensure(self, k: int) -> None:
        while self.horizon < k:
            self._add_frame()

    def _lookup(self, k: int):
        def look(space: str, name: str):
            if space == SPACE_STATE:
                return self.state_frames[k][name]
            if space == SPACE_INPUT:
                return self.input_frames[k][name]
            return self.state_frames[k + 1][name]
        return look

    def pred_lit(self, expr: Expr, k: int) -> int:
        """Literal equivalent to `expr` evaluated at step k (next-state
        references resolve to step k+1, which must already be unrolled)."""
        lits = self._encoded.setdefault(expr, {})
        lit = lits.get(k)
        if lit is None:
            lit = lits[k] = encode_expr(expr, self.gates, self._lookup(k))
        return lit

    # -- memos ----------------------------------------------------------------

    def pin_id(self, pin: Pin) -> int:
        """The pin's id; equal pins get equal ids.  The pins say all a
        query asks of a vertex, while a name may be any property's."""
        return self._pin_ids.setdefault(pin, len(self._pin_ids))

    def bound(self, key: tuple[int, int]) -> int:
        """No run between the pair of pin ids is shorter: the weight once
        resolved, else one more than the depth it was checked to (0 if
        never)."""
        return self.weight.get(key, self.checked_to.get(key, -1) + 1)

    # -- solving --------------------------------------------------------------

    @contextmanager
    def scope(self) -> Iterator[Callable[[], int]]:
        """Fresh literals for one query: yields a function that allocates
        one.  On exit, even when the query raises, every literal handed
        out is fixed false at level 0, in allocation order."""
        lits: list[int] = []

        def fresh() -> int:
            lits.append(self.solver.new_var())
            return lits[-1]
        try:
            yield fresh
        finally:
            for lit in lits:
                self.solver.add_clause([-lit])

    def pin(self, g: int, *lits: int) -> None:
        """Under guard g, at least one of `lits` holds (with one literal,
        g implies it)."""
        self.solver.add_clause([-g, *lits])

    def state_bits(self, k: int) -> list[int]:
        """Every literal that encodes the state at step k."""
        return _bits(self.state_frames[k], self.model.state_vars)

    def input_bits(self, k: int) -> list[int]:
        """Every literal that encodes the input at step k."""
        return _bits(self.input_frames[k], self.model.inputs)

    def decode_state(self, model_bits, k: int) -> dict:
        return {n: decode_var(self.state_frames[k][n], model_bits, d)
                for n, d in self.model.state_vars}

    def decode_input(self, model_bits, k: int) -> dict:
        return {n: decode_var(self.input_frames[k][n], model_bits, d)
                for n, d in self.model.inputs}

    def decode_run(self, model_bits, n_steps: int) -> tuple[list[dict], list[dict]]:
        trace = [self.decode_state(model_bits, k) for k in range(n_steps + 1)]
        inputs = [self.decode_input(model_bits, k) for k in range(n_steps)]
        return trace, inputs


def _compile(tape: list, base: list[int]) -> tuple[list, int]:
    """A gate tape as `(maker, argument getter, output slot)` steps over
    the base literals, and the number of slots.  Slots count from 1 and a
    negated slot stands for the negated literal; the getter picks a
    step's arguments out of the slot values, and output slot 0 means the
    step has no output."""
    slots = {lit: i for i, lit in enumerate(base, 1)}

    def slot(lit: int) -> int:
        s = slots.get(abs(lit))
        if s is None:
            raise BmcError(f"transition gate reads literal {lit}, which is "
                           "neither a frame literal nor a gate it made")
        return s if lit > 0 else -s
    program = []
    for maker, args, out in tape:
        ins = itemgetter(*(slot(a) for a in args))
        program.append((maker, ins, 0 if out is None
                        else slots.setdefault(out, len(slots) + 1)))
    return program, len(slots)


def _bits(frame: dict, decls) -> list[int]:
    out: list[int] = []
    for name, _ in decls:
        enc = frame[name]
        out.extend((enc,) if isinstance(enc, int) else enc.bits)
    return out


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def _pin_lits(unr: Unrolling, pin: Pin, k: int, with_psi: bool) -> list[int]:
    lits = [unr.pred_lit(pin.phi, k)]
    if with_psi and pin.psi is not None:
        lits.append(unr.pred_lit(pin.psi, k))
    return lits


def get_kreach_edges(unr: Unrolling, pairs: dict, k: int) -> set:
    """Which of `pairs` (key -> (src Pin, dst Pin)) are witnessed by some
    exactly-k-step run?  Returns the set of their keys, and records each
    witness's decoded k-step run in `Unrolling.witness` under the pin ids
    of every pair it resolves (one run shared by all of them).

    Each pair gets a selector that implies its pin literals, and one
    guard implies that some selector holds; every witness query solves
    under that guard.  Every pair whose pin literals all hold in the
    witness is removed and its selector fixed false at level 0, until
    the query is unsatisfiable.  So the depth keeps one query, and what
    the solver learns under the guard carries over to its later
    witnesses.  The selectors and the guard share one scope."""
    if not pairs:
        return set()
    unr.ensure(max(k, 1))
    found: set = set()
    remaining: dict = {}   # key -> (selector, pin literals), in `pairs` order
    with unr.scope() as fresh:
        for key, (src, dst) in pairs.items():
            s = fresh()
            lits = _pin_lits(unr, src, 0, with_psi=True)
            lits += _pin_lits(unr, dst, k, with_psi=(k == 0))
            for lit in lits:
                unr.pin(s, lit)
            remaining[key] = (s, lits)
        g = fresh()
        unr.pin(g, *(s for s, _ in remaining.values()))
        while remaining:
            res = unr.solver.solve([g])
            if res.status == sat.UNSAT:
                break
            hits = [key for key, (_, lits) in remaining.items()
                    if all(res.model[abs(lit)] == (lit > 0) for lit in lits)]
            if not hits:
                raise BmcError("k-reach witness matched no pending pair")
            found.update(hits)
            run = unr.decode_run(res.model, k)
            for key in hits:
                src, dst = pairs[key]
                unr.witness[(unr.pin_id(src), unr.pin_id(dst))] = run
                unr.solver.add_clause([-remaining.pop(key)[0]])
    return found


def simple_run_exists(unr: Unrolling, src: Pin, m: int) -> bool:
    """Does some run cover `src` at step 0 (trigger and assertion, as the
    k-reach source pin) and then visit pairwise-distinct states
    s_1..s_m?

    Cutting a loop out of a run keeps its covering step and its end
    state, so a shortest witness of any pair from `src` has distinct
    states after step 0.  When the answer is no, every pair from `src`
    without a witness of at most m - 1 steps has none at any depth.

    Each pair of steps gets one difference bit per state bit, which
    implies the two bits differ; under a guard, some difference bit of
    every pair holds.  The guard and the difference bits share one
    scope, so nothing of the query stays live.  Answers are remembered
    per source pin id: a run for m has one for every smaller m, and none
    for m means none for any larger m."""
    sid = unr.pin_id(src)
    known, refuted = unr.simple_runs.get(sid, (0, math.inf))
    if m <= known:
        return True
    if m >= refuted:
        return False
    unr.ensure(m)
    with unr.scope() as fresh:
        g = fresh()
        for lit in _pin_lits(unr, src, 0, with_psi=True):
            unr.pin(g, lit)
        frames = [unr.state_bits(j) for j in range(1, m + 1)]
        for fi, fj in combinations(frames, 2):
            pair = []
            for x, y in zip(fi, fj):
                d = fresh()
                unr.pin(g, -d, x, y)
                unr.pin(g, -d, -x, -y)
                pair.append(d)
            unr.pin(g, *pair)
        res = unr.solver.solve([g])
    if res.status == sat.SAT:
        unr.simple_runs[sid] = (m, refuted)
        return True
    unr.simple_runs[sid] = (known, m)
    return False


def check_path(unr: Unrolling, pins: Sequence[Pin], weights: Sequence[int]) -> PathCheck:
    """Concretise an abstract path: pin each vertex at the cumulative
    offset of the weights before it, connected by the transition relation.

    Feasible: returns the input sequence (length = sum of weights) and
    trace, joined from the edges' k-reach witnesses with no solve when
    `join_witnesses` can (marked `joined`), else decoded from one solve.
    Infeasible: returns `failed_at`, the smallest index whose prefix
    `pins[0..failed_at]` is infeasible at the path's offsets, which
    depends only on which prefixes are feasible, not on the core the
    solver returned.  `pins[0..failed_at-1]` is feasible, so only the
    prefix's last edge can need repair.

    The probes that find it reuse the path's tags.  A prefix that holds
    an infeasible core is infeasible, so the index is at most the core's
    last vertex; each infeasible probe of a shorter prefix lowers it to
    its own core's last vertex, until a probe is feasible.  A backend
    without cores lowers it by one vertex per probe."""
    joined = join_witnesses(unr, pins, weights)
    if joined is not None:
        return joined
    with unr.scope() as fresh:
        tags = _tag_path(unr, pins, weights, fresh)
        res, core = _probe(unr, tags, 0, len(pins) - 1)
        if core is None:
            trace, inputs = unr.decode_run(res.model, sum(weights))
            return PathCheck(True, inputs=inputs, trace=trace)
        hi = max(core)
        while hi > 0:
            shorter = _probe(unr, tags, 0, hi - 1)[1]
            if shorter is None:
                break
            hi = max(shorter)
    return PathCheck(False, failed_at=hi)


def path_feasible(unr: Unrolling, pins: Sequence[Pin], weights: Sequence[int]) -> bool:
    """Does the path concretise?  `check_path`'s solve, with no witness
    joined, no run decoded and no failed prefix named."""
    with unr.scope() as fresh:
        tags = _tag_path(unr, pins, weights, fresh)
        return _probe(unr, tags, 0, len(tags) - 1)[1] is None


def join_witnesses(unr: Unrolling, pins: Sequence[Pin],
                   weights: Sequence[int]) -> Optional[PathCheck]:
    """The path concretised with no solve, from the k-reach witnesses
    of its non-zero edges laid end to end, or None when they do not
    join: some edge has no witness or one of another length than its
    weight (repair stretched it), two consecutive witnesses end and
    start in different states, or some vertex's pin fails at its offset
    in the joined run.

    Every witness satisfies the invariant and the input assumption at
    each of its steps, and the transition is deterministic, so a joined
    run is a run of the path query, and the answer its solve would
    give, with the witnesses' inputs in place of the solver's.  (That
    query also asks the run to go on within the invariant up to the
    unrolling's horizon, which every run can unless some state is a
    dead end; where one is, the solve's answer depends on the horizon
    and this one does not.)"""
    trace: list[dict] = []
    inputs: list[dict] = []
    for src, dst, w in zip(pins, pins[1:], weights):
        if w == 0:
            continue
        run = unr.witness.get((unr.pin_id(src), unr.pin_id(dst)))
        if run is None or len(run[1]) != w:
            return None
        states, steps = run
        if trace:
            if trace[-1] != states[0]:
                return None
            states = states[1:]
        trace += states
        inputs += steps
    if not trace:
        return None
    offsets = accumulate(weights, initial=0)
    if not all(_pin_holds(p, trace, inputs, o) for p, o in zip(pins, offsets)):
        return None
    return PathCheck(True, inputs=inputs, trace=trace, joined=True)


def _pin_holds(pin: Pin, trace: list[dict], inputs: list[dict], o: int) -> bool:
    """Does `pin` hold at step o of the run?  The last state has no
    input after it, so only a state trigger without an assertion can
    hold there."""
    if o == len(inputs):
        return (pin.psi is None
                and all(r.space == SPACE_STATE for r in refs_of(pin.phi))
                and bool(eval_expr(pin.phi, trace[o])))
    return (bool(eval_expr(pin.phi, trace[o], inputs[o]))
            and (pin.psi is None
                 or bool(eval_expr(pin.psi, trace[o], inputs[o], trace[o + 1]))))


def _tag_path(unr: Unrolling, pins: Sequence[Pin], weights: Sequence[int],
              fresh: Callable[[], int]) -> list[int]:
    """One fresh tag per vertex, implying its pins at the cumulative
    offset of the weights before it."""
    if len(pins) != len(weights) + 1:
        raise ValueError("need exactly one weight per consecutive vertex pair")
    offsets = list(accumulate(weights, initial=0))
    unr.ensure(max([offsets[-1]] + [o + 1 for p, o in zip(pins, offsets)
                                    if p.psi is not None]))
    tags = []
    for p, o in zip(pins, offsets):
        t = fresh()
        for lit in _pin_lits(unr, p, o, with_psi=True):
            unr.pin(t, lit)
        tags.append(t)
    return tags


def _probe(unr: Unrolling, tags: list[int], a: int,
           b: int) -> tuple[sat.SolveResult, Optional[list[int]]]:
    """Solve with the tags of vertices a..b assumed: the result, and
    None when it is satisfiable, else the indices in a..b of the tags in
    its core (all of them when the backend gives no core)."""
    res = unr.solver.solve(tags[a:b + 1])
    if res.status == sat.SAT:
        return res, None
    if res.core is None:
        return res, list(range(a, b + 1))
    members = set(res.core)
    idxs = [i for i in range(a, b + 1) if tags[i] in members]
    if not idxs:
        raise BmcError(f"path query unsatisfiable without any pinned vertex: "
                       f"no run of {unr.horizon} steps satisfies the "
                       f"invariant and input assumption")
    return res, idxs

