"""Propositional layer: an embedded CDCL solver with an assumption
interface and assumption-level unsatisfiable cores, plus a DIMACS-file
backend that delegates to an external solver process.

A solver instance is stateful and single-threaded; the clause set may
grow between `solve` calls (incremental use).  Independent instances are
safe to run concurrently.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Optional, Sequence

SAT = "sat"
UNSAT = "unsat"


class SolverLimit(Exception):
    """A conflict budget or deadline ran out, so the answer is unknown.
    The one resource-limit signal: backends raise it rather than return
    an unknown status, and the engine raises it for its own deadline."""


@dataclass
class SolveResult:
    status: str
    model: Optional[list[bool]] = None      # 1-indexed via model[var]
    core: Optional[list[int]] = None        # subset of the assumption literals


class Solver:
    """CDCL with two-watched literals, activity-based decisions, phase
    saving, Luby restarts, and minisat-style assumption handling.

    `assign` is indexed by literal: `assign[l]` is the value of `l` for
    `l = v` and `l = -v` alike, the negative literals sitting at the end
    of the list through Python's negative indexing.  Its capacity doubles
    as variables are added, so the slots between the last variable and
    the capacity, on either side, are unused.  A value is 1 or -1 for an
    assignment above level 0 and 2 or -2 for one at level 0, so a read
    takes one index and no sign branch, and a literal reading 2 is true
    for good.

    Decisions pick the unassigned variable of highest activity, the lowest
    index on ties.  `score` holds a variable's activity while it is
    unassigned and -1.0 once it is assigned (slot 0 is always -1.0), so a
    decision is `score.index(max(score))`, two C-level passes.  A solve on
    an unrolled model makes few decisions but assigns most of the formula,
    so keeping this list current costs less than putting variables back
    into a heap on every backtrack.

    `watches[l]` and `reason[v]` hold the clause itself, a list whose
    first two literals are its watched ones, not its position, so a watch
    visit reads the literals directly.  `clauses` is the record of every
    clause in the order added, learnt ones included, and the same list
    objects, so it sees the watch swaps too.  Propagation stops watching
    a clause once its first watched literal is true at level 0, as every
    retired guard's clauses end up: it can never imply or conflict again.
    The clause stays in `clauses`."""

    def __init__(self, conflict_budget: Optional[int] = None,
                 deadline: Optional[float] = None, verify_models: bool = False):
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[list[int]]] = {}
        self.assign: list[int] = [0]          # by literal: 0 unknown, ±1, ±2 at level 0
        self.level: list[int] = [0]
        self.reason: list[Optional[list[int]]] = [None]
        self.activity: list[float] = [0.0]
        self.score: list[float] = [-1.0]      # activity if unassigned, else -1.0
        self.phase: list[bool] = [False]
        self.seen: list[bool] = [False]       # analysis marks, all False between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        self.conflict_budget = conflict_budget
        self.deadline = deadline
        self.verify_models = verify_models
        self.stats_conflicts = 0
        self.stats_decisions = 0
        self.stats_solves = 0

    # -- variables and clauses ----------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        a = self.assign
        cap = len(a) >> 1                     # variables `assign` has slots for
        if v > cap:
            # double the capacity: the negative literals keep their
            # distance from the end of the list
            grow = cap or 1
            self.assign = a[:cap + 1] + [0] * (2 * grow) + a[cap + 1:]
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.score.append(0.0)
        self.phase.append(False)
        self.seen.append(False)
        self.watches[v] = []
        self.watches[-v] = []
        return v

    def add_clause(self, lits: Sequence[int]) -> None:
        if not self.ok:
            return
        if self.trail_lim:
            self._backtrack(0)
        # every assigned variable is now at level 0
        assign = self.assign
        out: list[int] = []
        for l in lits:
            val = assign[l]
            if val > 0:
                return  # already satisfied for good
            if val < 0 or l in out:
                continue  # permanently false or repeated literal
            if -l in out:
                return  # tautology
            out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            elif self._propagate() is not None:
                self.ok = False
            return
        self.clauses.append(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)

    # -- trail ----------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        assign = self.assign
        val = assign[lit]
        if val:
            return val > 0
        val = 1 if self.trail_lim else 2
        assign[lit] = val
        assign[-lit] = -val
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.score[v] = -1.0
        self.trail.append(lit)
        return True

    def _backtrack(self, lvl: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= lvl:
            return
        bound = trail_lim[lvl]
        trail = self.trail
        assign, phase = self.assign, self.phase
        score, activity = self.score, self.activity
        for lit in trail[bound:]:
            assign[lit] = assign[-lit] = 0
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            score[v] = activity[v]
        del trail[bound:]
        del trail_lim[lvl:]
        self.qhead = min(self.qhead, len(trail))

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.
        `_enqueue` is inlined over local bindings.  A binary clause has
        no other literal to watch, and a ternary one has just `c[2]`."""
        watches, trail = self.watches, self.trail
        assign, level, reason, score = self.assign, self.level, self.reason, self.score
        cur_level = len(self.trail_lim)
        true = 1 if cur_level else 2
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watch = watches[false_lit]
            j = 0
            # no clause is appended to `watch` while it is walked: a new
            # watch is never false, and `false_lit` is
            for c in watch:
                # make sure c[1] is the false literal
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                val = assign[first]
                if val == 1:
                    watch[j] = c
                    j += 1
                    continue
                if val == 2:
                    continue  # satisfied at level 0 for good; stop watching
                size = len(c)
                if size == 3:
                    q = c[2]
                    if assign[q] >= 0:
                        c[1] = q
                        c[2] = false_lit
                        watches[q].append(c)
                        continue
                elif size > 3:
                    for k in range(2, size):
                        q = c[k]
                        if assign[q] >= 0:
                            c[1] = q
                            c[k] = false_lit
                            watches[q].append(c)
                            break
                    if c[1] != false_lit:
                        continue  # moved to a new watch
                if val:
                    # conflict: keep c and the unvisited watches in place,
                    # finding c's slot by identity, with no list compares
                    i = j
                    while watch[i] is not c:
                        i += 1
                    del watch[j:i]
                    self.qhead = qhead
                    return c
                watch[j] = c
                j += 1
                assign[first] = true
                assign[-first] = -true
                v = first if first > 0 else -first
                level[v] = cur_level
                reason[v] = c
                score[v] = -1.0
                trail.append(first)
            del watch[j:]
        self.qhead = qhead
        return None

    # -- conflict analysis ----------------------------------------------------

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if self.assign[v] == 0:
            self.score[v] = activity[v]
        if activity[v] > 1e100:
            self._rescale()

    def _rescale(self) -> None:
        activity, assign, score = self.activity, self.assign, self.score
        for i in range(1, self.nvars + 1):
            activity[i] *= 1e-100
            if assign[i] == 0:
                score[i] = activity[i]
        self.var_inc *= 1e-100

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learning.  `_bump` is inlined: every literal of a
        conflict or reason clause is assigned, so no score changes."""
        learnt = [0]
        seen, level, trail = self.seen, self.level, self.trail
        activity, var_inc = self.activity, self.var_inc
        counter = 0
        lit = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason_clause = confl
        while True:
            for q in reason_clause:
                if q == lit:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += var_inc
                    if activity[v] > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = trail[idx]
                idx -= 1
                v = lit if lit > 0 else -lit
                if seen[v]:
                    break
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            reason_clause = self.reason[v]
        learnt[0] = -lit
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        bt = max(level[abs(q)] for q in learnt[1:])
        # move a literal of the backjump level into the second watch slot
        for k in range(1, len(learnt)):
            if level[abs(learnt[k])] == bt:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, bt

    def _analyze_final(self, failed: int, assumption_set: set[int]) -> list[int]:
        """Assumptions responsible for `failed` (an assumption literal that
        is false under the current trail)."""
        seen, level = self.seen, self.level
        if not self.trail_lim or level[abs(failed)] == 0:
            return [failed]
        core = {failed}
        seen[abs(failed)] = True
        for lit in reversed(self.trail[self.trail_lim[0]:]):
            v = abs(lit)
            if not seen[v]:
                continue
            if self.reason[v] is None:
                if lit in assumption_set:
                    core.add(lit)
            else:
                for q in self.reason[v]:
                    if level[abs(q)] > 0:
                        seen[abs(q)] = True
            seen[v] = False
        return sorted(core, key=abs)

    # -- search ---------------------------------------------------------------

    def _decide(self) -> int:
        score = self.score
        best = score.index(max(score))
        if best == 0:
            return 0  # every variable is assigned
        return best if self.phase[best] else -best

    @staticmethod
    def _luby(i: int) -> int:
        size, seq = 1, 0
        while size < i + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != i:
            size = (size - 1) >> 1
            seq -= 1
            i %= size
        return 1 << seq

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        self.stats_solves += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverLimit("deadline exceeded")
        self._backtrack(0)
        if not self.ok:
            return SolveResult(UNSAT, core=[])
        if self._propagate() is not None:
            self.ok = False
            return SolveResult(UNSAT, core=[])
        assumption_set = set(assumptions)
        conflicts_here = 0
        restart_idx = 0
        restart_limit = 64 * self._luby(0)
        while True:
            confl = self._propagate()
            if confl is not None:
                self.stats_conflicts += 1
                conflicts_here += 1
                if conflicts_here % 256 == 0 and self.deadline is not None \
                        and time.monotonic() > self.deadline:
                    raise SolverLimit("deadline exceeded")
                if self.conflict_budget is not None and conflicts_here > self.conflict_budget:
                    raise SolverLimit("conflict budget exceeded")
                if not self.trail_lim:
                    self.ok = False
                    return SolveResult(UNSAT, core=[])
                learnt, bt = self._analyze(confl)
                # never backjump above still-pending assumption levels
                self._backtrack(bt)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return SolveResult(UNSAT, core=[])
                else:
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= 0.95
                if conflicts_here >= restart_limit:
                    restart_idx += 1
                    restart_limit = conflicts_here + 64 * self._luby(restart_idx)
                    self._backtrack(0)
                continue
            lvl = len(self.trail_lim)
            if lvl < len(assumptions):
                a = assumptions[lvl]
                val = self.assign[a]
                if val < 0:
                    core = self._analyze_final(a, assumption_set)
                    self._backtrack(0)
                    return SolveResult(UNSAT, core=core)
                self.trail_lim.append(len(self.trail))
                if val == 0:
                    self._enqueue(a, None)
                continue
            lit = self._decide()
            if lit == 0:
                model = [a > 0 for a in self.assign[:self.nvars + 1]]
                self._backtrack(0)
                if self.verify_models:
                    for c in self.clauses:
                        assert any(model[abs(l)] == (l > 0) for l in c), \
                            "model violates a clause"
                return SolveResult(SAT, model=model)
            self.stats_decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)


# ---------------------------------------------------------------------------
# DIMACS + external backend
# ---------------------------------------------------------------------------

def write_dimacs(nvars: int, clauses: Sequence[Sequence[int]]) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"]
    for c in clauses:
        lines.append(" ".join(str(l) for l in c) + " 0")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> tuple[int, list[list[int]]]:
    nvars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            nvars = int(parts[2])
            continue
        for tok in line.split():
            v = int(tok)
            if v == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(v)
    if cur:
        clauses.append(cur)
    return nvars, clauses


class ExternalSolver(Solver):
    """Backend that round-trips DIMACS files through an external solver
    process (minisat-style interface: `solver in.cnf out`), one launch per
    solve, so any stock solver can be substituted.  The clauses are kept
    and folded at level 0 as the embedded solver keeps them, so both
    backends see one clause stream; a solve sends the stored clauses, one
    unit clause per literal fixed at level 0, and one per assumption.  An
    UNSAT verdict carries no core (`core` is None).  Only the deadline
    bounds it; it has no conflict budget.  The process reports no search
    counts, so `stats_conflicts` and `stats_decisions` are None (not
    counted) rather than 0."""

    def __init__(self, command: str, deadline: Optional[float] = None):
        super().__init__(deadline=deadline)
        self.command = command
        self.stats_conflicts: Optional[int] = None
        self.stats_decisions: Optional[int] = None

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        self.stats_solves += 1
        if not self.ok:
            return SolveResult(UNSAT)
        cnf = self.clauses + [[l] for l in self.trail] + [[a] for a in assumptions]
        text = write_dimacs(self.nvars, cnf)
        with tempfile.TemporaryDirectory(prefix="chainforge-sat-") as d:
            inp = os.path.join(d, "in.cnf")
            outp = os.path.join(d, "out.txt")
            with open(inp, "w") as f:
                f.write(text)
            timeout = None
            if self.deadline is not None:
                timeout = max(0.01, self.deadline - time.monotonic())
            try:
                proc = subprocess.run(shlex.split(self.command) + [inp, outp],
                                      capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired as ex:
                raise SolverLimit("external solver timed out") from ex
            out = ""
            if os.path.exists(outp):
                with open(outp) as f:
                    out = f.read()
            out = out + "\n" + proc.stdout
        return self._parse_output(out)

    def _parse_output(self, out: str) -> SolveResult:
        status = None
        values: list[int] = []
        for line in out.splitlines():
            line = line.strip()
            if line in ("SAT", "s SATISFIABLE"):
                status = SAT
            elif line in ("UNSAT", "UNSATISFIABLE", "s UNSATISFIABLE"):
                status = UNSAT
            elif line.startswith("v "):
                values.extend(int(t) for t in line[2:].split())
            elif status == SAT and line and (line[0].isdigit() or line[0] == "-"):
                values.extend(int(t) for t in line.split())
        if status is None:
            raise SolverLimit("external solver produced no verdict")
        if status == UNSAT:
            return SolveResult(UNSAT)
        model = [False] * (self.nvars + 1)
        for v in values:
            if v != 0 and abs(v) <= self.nvars:
                model[abs(v)] = v > 0
        return SolveResult(SAT, model=model)


def make_solver(deadline: Optional[float] = None):
    """Build the configured backend: the embedded CDCL solver by default,
    or an external DIMACS solver when CHAINFORGE_SOLVER=external:<cmd>."""
    spec = os.environ.get("CHAINFORGE_SOLVER", "")
    if spec.startswith("external:"):
        return ExternalSolver(spec.split(":", 1)[1], deadline=deadline)
    return Solver(deadline=deadline)
