import random
import sys
from pathlib import Path

import pytest

from chainforge.sat import (ExternalSolver, Solver, SolverLimit,
                            make_solver, read_dimacs, write_dimacs)

from util import lit_value, random_cnf, tt_check_model, tt_satisfiable


def _fill(solver, nvars, clauses):
    for _ in range(nvars):
        solver.new_var()
    for c in clauses:
        solver.add_clause(c)


def test_empty_cnf_is_sat():
    s = Solver()
    assert s.solve().status == "sat"


def test_unit_conflict_is_unsat():
    s = Solver()
    a = s.new_var()
    s.add_clause([a])
    s.add_clause([-a])
    res = s.solve()
    assert res.status == "unsat" and res.core == []


def test_simple_implication_chain():
    s = Solver()
    vs = [s.new_var() for _ in range(10)]
    for a, b in zip(vs, vs[1:]):
        s.add_clause([-a, b])
    s.add_clause([vs[0]])
    res = s.solve()
    assert res.status == "sat"
    assert all(res.model[v] for v in vs)


def test_assumption_core_is_sound_and_minimal_here():
    s = Solver()
    x, y, z = (s.new_var() for _ in range(3))
    s.add_clause([-x, -y])          # x & y contradict
    res = s.solve([x, y, z])
    assert res.status == "unsat"
    assert set(res.core) <= {x, y, z}
    # core alone must still be unsat
    again = s.solve(res.core)
    assert again.status == "unsat"
    assert set(res.core) == {x, y}  # z is irrelevant and stays out of the core


def test_incremental_clause_growth():
    s = Solver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    assert s.solve([-a]).status == "sat"
    s.add_clause([-b])
    res = s.solve([-a])
    assert res.status == "unsat"
    assert res.core == [-a]
    assert s.solve().status == "sat"
    assert s.assign[a] == s.assign[-b] == 2          # both fixed at level 0
    c, d = s.new_var(), s.new_var()
    n = len(s.clauses)
    s.add_clause([c, a])                 # true at level 0: dropped
    assert len(s.clauses) == n
    s.trail_lim.append(len(s.trail))     # a decision level left open
    s._enqueue(c, None)
    s.add_clause([d, -a, b, -c])         # false at level 0: removed
    assert s.clauses[n] == [d, -c] and s.assign[c] == 0
    s.add_clause([-a, b])                # nothing left: the formula is unsat
    assert not s.ok
    assert s.solve().status == "unsat"


def test_conflict_budget_raises():
    # pigeonhole 4 -> 3: unsat after 7 conflicts without a budget
    pigeons, holes = 4, 3
    var = lambda i, j: i * holes + j + 1
    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    clauses += [[-var(a, j), -var(b, j)] for j in range(holes)
                for a in range(pigeons) for b in range(a + 1, pigeons)]
    s = Solver(conflict_budget=1)
    _fill(s, pigeons * holes, clauses)
    with pytest.raises(SolverLimit, match="conflict budget exceeded"):
        s.solve()
    s.conflict_budget = None
    assert s.solve().status == "unsat"


def test_truth_table_agreement_small_batch():
    rng = random.Random(11)
    for case in range(300):
        nvars = rng.randint(2, 9)
        clauses = random_cnf(rng, nvars, rng.randint(1, 4 * nvars))
        s = Solver()
        _fill(s, nvars, clauses)
        res = s.solve()
        expect = tt_satisfiable(nvars, clauses)
        assert (res.status == "sat") == expect, (nvars, clauses)
        if res.status == "sat":
            assert tt_check_model(clauses, res.model)


def test_models_under_assumptions_respect_them():
    rng = random.Random(13)
    for case in range(100):
        nvars = rng.randint(3, 8)
        clauses = random_cnf(rng, nvars, rng.randint(1, 3 * nvars))
        assumptions = [v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nvars + 1), rng.randint(1, nvars))]
        s = Solver()
        _fill(s, nvars, clauses)
        res = s.solve(assumptions)
        expect = tt_satisfiable(nvars, clauses + [[a] for a in assumptions])
        assert (res.status == "sat") == expect
        if res.status == "sat":
            assert tt_check_model(clauses, res.model)
            assert all(lit_value(res.model, a) for a in assumptions)
        else:
            assert set(res.core) <= set(assumptions)
            # re-solving with only the core stays unsat
            assert s.solve(res.core).status == "unsat"


def _check_layout(s):
    """Both slots of each variable mirror each other and agree with the
    trail: ±2 when assigned at level 0, ±1 above it, 0 when unassigned.
    The slots past the last variable stay 0."""
    on_trail = {abs(l): l for l in s.trail}
    for v in range(1, s.nvars + 1):
        assert s.assign[v] == -s.assign[-v], v
        lit = on_trail.get(v)
        if lit is None:
            assert s.assign[v] == 0, v
        else:
            assert s.assign[lit] == (2 if s.level[v] == 0 else 1), v
    assert not any(s.assign[s.nvars + 1:len(s.assign) - s.nvars])
    assert len(s.assign) <= 4 * s.nvars + 1


def test_literal_indexed_assignment_across_capacity_doublings():
    rng = random.Random(23)
    s = Solver()
    fixed = set()                        # literals fixed true at level 0
    for size in (1, 2, 5, 11, 30, 70):
        while s.nvars < size:            # grows while levels above 0 are open
            s.new_var()
            _check_layout(s)
        free = [v for v in range(1, s.nvars + 1) if s.assign[v] == 0]
        for v in rng.sample(free, (len(free) + 2) // 3):
            lit = rng.choice((v, -v))
            s.add_clause([lit])
            fixed.add(lit)
        _check_layout(s)
        for _ in range(3):
            free = [v for v in range(1, s.nvars + 1) if s.assign[v] == 0]
            s.trail_lim.append(len(s.trail))
            for v in rng.sample(free, (len(free) + 3) // 4):
                s._enqueue(rng.choice((v, -v)), None)
            _check_layout(s)
    assert s.trail_lim and len(s.trail) > len(fixed)
    s._backtrack(0)
    _check_layout(s)
    assert set(s.trail) == fixed
    assert {l for l in range(-s.nvars, s.nvars + 1) if s.assign[l]} == \
        fixed | {-l for l in fixed}
    res = s.solve()
    assert res.status == "sat" and len(res.model) == s.nvars + 1
    assert all(lit_value(res.model, l) for l in fixed)


def _reference_decision(s):
    """The decision rule as a plain scan: the unassigned variable of
    highest activity, the lowest index on ties; 0 if all are assigned."""
    best, best_act = 0, -1.0
    for v in range(1, s.nvars + 1):
        if s.assign[v] == 0 and s.activity[v] > best_act:
            best, best_act = v, s.activity[v]
    return best


def test_decide_most_active_unassigned_lowest_index_on_ties():
    s = Solver()
    for _ in range(6):
        s.new_var()
    for v in (4, 2, 4, 2):
        s._bump(v)                       # 2 and 4 tie at the top
    assert s._decide() == -2
    s.trail_lim.append(len(s.trail))
    s._enqueue(-2, None)
    assert s._decide() == -4
    s.var_inc = 3e100                    # the next bump rescales by 1e-100
    s._bump(6)
    assert s.var_inc < 1e100 and s.activity[6] < 1e100
    assert s._decide() == -6
    s._bump(5)                           # ties with 6 after the rescale
    assert s.activity[5] == s.activity[6]
    assert s._decide() == -5
    s._backtrack(0)
    assert s._decide() == -5

    rng = random.Random(3)
    rescales = 0
    for step in range(2000):
        r = rng.random()
        if r < 0.5:
            if rng.random() < 0.03:
                s.var_inc = rng.uniform(1.5e100, 4e100)
                rescales += 1
            s._bump(rng.randint(1, s.nvars))
        elif r < 0.8:
            lit = s._decide()
            if lit:
                s.trail_lim.append(len(s.trail))
                s._enqueue(lit, None)
        else:
            s._backtrack(rng.randint(0, len(s.trail_lim)))
        best = _reference_decision(s)
        lit = s._decide()
        assert abs(lit) == best, step
        if best:
            assert (lit > 0) == s.phase[best]
    assert rescales >= 10


def test_guarded_incremental_truth_table():
    """Clauses added under a fresh guard, solved under it, then retired
    with [-g]: retired clauses are satisfied at level 0 and propagation
    stops watching them."""
    rng = random.Random(17)
    pruned = 0
    for case in range(80):
        nvars = rng.randint(3, 8)
        s = Solver()
        permanent = random_cnf(rng, nvars, rng.randint(0, 2 * nvars))
        _fill(s, nvars, permanent)
        for _ in range(rng.randint(2, 6)):
            g = s.new_var()
            extra = random_cnf(rng, nvars, rng.randint(1, 3 * nvars))
            for c in extra:
                s.add_clause([-g] + c)
            res = s.solve([g])
            assert (res.status == "sat") == tt_satisfiable(nvars, permanent + extra)
            if res.status == "sat":
                assert tt_check_model(permanent + extra, res.model)
                assert lit_value(res.model, g)
            elif res.core != [g]:
                assert res.core == [] and not tt_satisfiable(nvars, permanent)
            s.add_clause([-g])
            res = s.solve()
            assert (res.status == "sat") == tt_satisfiable(nvars, permanent)
            if res.status == "sat":
                assert tt_check_model(permanent, res.model)
                assert not lit_value(res.model, g)
            if rng.random() < 0.3:
                unit = [rng.choice([1, -1]) * rng.randint(1, nvars)]
                s.add_clause(unit)
                permanent.append(unit)
        pruned += 2 * len(s.clauses) - sum(len(w) for w in s.watches.values())
    assert pruned > 0


# -- DIMACS and the external process backend ---------------------------------

def test_dimacs_round_trip():
    clauses = [[1, -2], [2, 3, -1], [-3]]
    text = write_dimacs(3, clauses)
    assert text.startswith("p cnf 3 3\n")
    nvars, back = read_dimacs(text)
    assert nvars == 3 and back == clauses


def test_dimacs_exact_format():
    assert write_dimacs(2, [[1, -2]]) == "p cnf 2 1\n1 -2 0\n"


STUB = Path(__file__).parent / "external_stub.py"


def test_external_backend_sat_unsat_and_core():
    ext = ExternalSolver(f"{sys.executable} {STUB}")
    x, y = ext.new_var(), ext.new_var()
    ext.add_clause([x, y])
    res = ext.solve()
    assert res.status == "sat"
    assert res.model[x] or res.model[y]
    res = ext.solve([-x, -y])
    assert res.status == "unsat"
    assert res.core is None          # core-less: one launch per solve
    ext.add_clause([-x])
    res = ext.solve([-y])
    assert res.status == "unsat"
    assert res.core is None
    assert ext.stats_solves == 3


def test_make_solver_env_selection(monkeypatch):
    monkeypatch.delenv("CHAINFORGE_SOLVER", raising=False)
    assert isinstance(make_solver(), Solver)
    monkeypatch.setenv("CHAINFORGE_SOLVER", f"external:{sys.executable} {STUB}")
    s = make_solver()
    assert isinstance(s, ExternalSolver)
    a = s.new_var()
    s.add_clause([a])
    assert s.solve().status == "sat"
