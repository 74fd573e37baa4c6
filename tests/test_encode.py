import itertools
import random

from chainforge.encode import (BV, CASE_ARMS, Gates, alloc_var, assert_assignment,
                               case_chain, decode_var, encode_expr, enum_const,
                               width_for)
from chainforge.model import (BOOL, BinOp, BoolDomain, Const, EnumDomain,
                              IntRange, Ite, Not, Ref, eval_expr, refs_of)
from chainforge.sat import Solver

from conftest import cruise_input


def test_width_for():
    assert [width_for(n) for n in (0, 1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3, 4]


def _setup(domains):
    """Fresh solver + gates + one declared variable per (name, domain)."""
    s = Solver()
    g = Gates(s)
    enc = {name: alloc_var(g, dom) for name, dom in domains.items()}
    return s, g, enc


def test_contradiction_unsat():
    s, g, enc = _setup({"x": BOOL})
    x = Ref("x", "state", BOOL)
    lit = encode_expr(BinOp("&&", x, Not(x)), g, lambda sp, n: enc[n])
    s.add_clause([lit])
    assert s.solve().status == "unsat"


def test_range_block_forbids_out_of_domain_pattern():
    dom = IntRange(0, 2)
    s, g, enc = _setup({"speed": dom})
    e = BinOp("==", Ref("speed", "state", dom), Const(3, IntRange(3, 3)))
    lit = encode_expr(e, g, lambda sp, n: enc[n])
    s.add_clause([lit])
    assert s.solve().status == "unsat"


def test_all_domain_values_representable():
    dom = IntRange(-2, 4)
    s, g, enc = _setup({"x": dom})
    for v in dom.values():
        e = BinOp("==", Ref("x", "state", dom), Const(v, IntRange(v, v)))
        res = s.solve([encode_expr(e, g, lambda sp, n: enc[n])])
        assert res.status == "sat"
        assert decode_var(enc["x"], res.model, dom) == v


def test_one_gate_under_another_argument_order_is_shared():
    """Each group names one gate: an iff under swapped or both-negated
    operands, an if-then-else with opposite branches and the iff it is,
    a conjunction in any order with repeats.  Each gives one literal and
    adds one variable."""
    s, g, enc = _setup({"a": BOOL, "b": BOOL, "c": BOOL, "t": BOOL})
    a, b, c, t = (enc[n] for n in "abct")
    for group in ([lambda: g.liff(a, b), lambda: g.liff(b, a), lambda: g.liff(-a, -b)],
                  [lambda: g.lite(c, t, -t), lambda: g.liff(c, t)],
                  [lambda: g.land(a, b), lambda: g.land_n([b, a, b])]):
        before = s.nvars
        assert len({make() for make in group}) == 1
        assert s.nvars == before + 1


def _random_expr(rng, vars_table, depth, want):
    """Random well-sorted expression over the given variables."""
    ints = [(n, d) for n, d in vars_table.items() if isinstance(d, IntRange)]
    bools = [(n, d) for n, d in vars_table.items() if isinstance(d, BoolDomain)]
    enums = [(n, d) for n, d in vars_table.items() if isinstance(d, EnumDomain)]
    if want == "int":
        if depth <= 0 or rng.random() < 0.3:
            if ints and rng.random() < 0.7:
                n, d = rng.choice(ints)
                return Ref(n, "state", d)
            v = rng.randint(-4, 6)
            return Const(v, IntRange(v, v))
        r = rng.random()
        if r < 0.4:
            return BinOp(rng.choice(("+", "-")),
                         _random_expr(rng, vars_table, depth - 1, "int"),
                         _random_expr(rng, vars_table, depth - 1, "int"))
        return Ite(_random_expr(rng, vars_table, depth - 1, "bool"),
                   _random_expr(rng, vars_table, depth - 1, "int"),
                   _random_expr(rng, vars_table, depth - 1, "int"))
    # boolean
    if depth <= 0 or rng.random() < 0.25:
        if bools and rng.random() < 0.6:
            n, d = rng.choice(bools)
            return Ref(n, "state", d)
        return Const(rng.random() < 0.5, BOOL)
    r = rng.random()
    if r < 0.35:
        return BinOp(rng.choice(("&&", "||", "=>")),
                     _random_expr(rng, vars_table, depth - 1, "bool"),
                     _random_expr(rng, vars_table, depth - 1, "bool"))
    if r < 0.45:
        return Not(_random_expr(rng, vars_table, depth - 1, "bool"))
    if r < 0.75:
        return BinOp(rng.choice(("==", "!=", "<", "<=")),
                     _random_expr(rng, vars_table, depth - 1, "int"),
                     _random_expr(rng, vars_table, depth - 1, "int"))
    if enums and r < 0.85:
        n, d = rng.choice(enums)
        return BinOp(rng.choice(("==", "!=")), Ref(n, "state", d),
                     Const(rng.choice(d.constants), d))
    return Ite(_random_expr(rng, vars_table, depth - 1, "bool"),
               _random_expr(rng, vars_table, depth - 1, "bool"),
               _random_expr(rng, vars_table, depth - 1, "bool"))


def test_encoder_agrees_with_interpreter_on_random_expressions():
    """For random expressions and every total assignment: the encoding,
    solved with the assignment pinned, yields the interpreter's value."""
    rng = random.Random(2024)
    vars_table = {"a": IntRange(0, 3), "b": IntRange(-2, 2),
                  "p": BOOL, "m": EnumDomain("m", ("R", "G", "B"))}
    import itertools
    names = list(vars_table)
    spaces = [list(vars_table[n].values()) for n in names]
    assignments = [dict(zip(names, combo)) for combo in itertools.product(*spaces)]
    for case in range(40):
        expr = _random_expr(rng, vars_table, depth=3, want="bool")
        s, g, enc = _setup(vars_table)
        lit = encode_expr(expr, g, lambda sp, n: enc[n])
        for st in rng.sample(assignments, 12):
            pin = []
            for n in names:
                e = enc[n]
                d = vars_table[n]
                if isinstance(d, BoolDomain):
                    pin.append(e if st[n] else -e)
                else:
                    off = (st[n] - d.lo) if isinstance(d, IntRange) else d.index(st[n])
                    for i, bit in enumerate(e.bits):
                        pin.append(bit if (off >> i) & 1 else -bit)
            want = eval_expr(expr, st)
            res = s.solve(pin + [lit if want else -lit])
            assert res.status == "sat", (expr, st, want)
            res2 = s.solve(pin + [-lit if want else lit])
            assert res2.status == "unsat", (expr, st, want)


def test_assignment_clamps_into_target_domain():
    src = IntRange(0, 3)
    tgt = IntRange(0, 2)
    s, g, enc = _setup({"x": src, "y": tgt})
    val = encode_expr(BinOp("+", Ref("x", "state", src), Const(1, IntRange(1, 1))),
                      g, lambda sp, n: enc[n])
    assert_assignment(g, enc["y"], val, tgt)
    for xv, want in ((0, 1), (1, 2), (2, 2), (3, 2)):   # saturation at 2
        pin = []
        for i, bit in enumerate(enc["x"].bits):
            pin.append(bit if (xv >> i) & 1 else -bit)
        res = s.solve(pin)
        assert res.status == "sat"
        assert decode_var(enc["y"], res.model, tgt) == want


def test_cruise_transition_encoding_successor(cruise_model):
    """Pin a state and input, solve the one-step relation, decode the
    successor: must equal the interpreter's step."""
    from chainforge.bmc import Unrolling
    from chainforge.model import step
    unr = Unrolling(cruise_model)
    unr.ensure(1)
    s0 = {"mode": "OFF", "speed": 0, "enable": False}
    from chainforge.engine import state_equality_expr
    pin_state = unr.pred_lit(state_equality_expr(cruise_model, s0), 0)
    gas = cruise_input("gas")
    pin_inputs = []
    for n, _d in cruise_model.inputs:
        lit = unr.input_frames[0][n]
        pin_inputs.append(lit if gas[n] else -lit)
    res = unr.solver.solve([pin_state] + pin_inputs)
    assert res.status == "sat"
    got = unr.decode_state(res.model, 1)
    assert got == step(cruise_model, s0, gas)
    assert got == {"mode": "OFF", "speed": 1, "enable": False}


# -- case splits of `x == c ? ... :` chains -----------------------------------

CASE_VARS = {("state", "x"): IntRange(-2, 3), ("input", "i"): IntRange(0, 2),
             ("next", "x"): IntRange(-2, 3),
             ("state", "m"): EnumDomain("m", ("R", "G", "B")),
             ("state", "p"): BOOL}


def _case_ref(space, name):
    return Ref(name, space, CASE_VARS[(space, name)])


def _arm_value(rng, sort):
    """A small arm value of `sort` ("int", "bool" or "enum")."""
    if sort == "enum":
        dom = CASE_VARS[("state", "m")]
        return (_case_ref("state", "m") if rng.random() < 0.3
                else Const(rng.choice(dom.constants), dom))
    if sort == "bool":
        r = rng.random()
        if r < 0.3:
            return _case_ref("state", "p")
        if r < 0.5:
            return Not(_case_ref("state", "p"))
        if r < 0.7:
            v = rng.randint(-2, 3)
            return BinOp("<", _case_ref("state", "x"), Const(v, IntRange(v, v)))
        return Const(rng.random() < 0.5, BOOL)
    r = rng.random()
    v = rng.randint(-3, 5)
    if r < 0.2:
        return _case_ref("state", "x")
    if r < 0.35:
        return BinOp("+", _case_ref("input", "i"), Const(v, IntRange(v, v)))
    return Const(v, IntRange(v, v))


def _random_chain(rng):
    """A chain of 2-7 `sel == c` arms over a random selector, with
    constants drawn past both ends of an int domain and repeats allowed,
    and its default."""
    sel = _case_ref(*rng.choice([("state", "x"), ("input", "i"), ("next", "x"),
                                 ("state", "m")]))
    sort = rng.choice(("int", "bool", "enum"))
    e = _arm_value(rng, sort)
    for _ in range(rng.randint(2, 7)):
        if isinstance(sel.domain, EnumDomain):
            c = Const(rng.choice(sel.domain.constants), sel.domain)
        else:
            v = rng.randint(sel.domain.lo - 2, sel.domain.hi + 2)
            c = Const(v, IntRange(v, v))
        e = Ite(BinOp("==", sel, c), _arm_value(rng, sort), e)
    return e


def _pin(enc, key, value):
    dom, e = CASE_VARS[key], enc[key]
    if isinstance(dom, BoolDomain):
        return [e if value else -e]
    off = value - dom.lo if isinstance(dom, IntRange) else dom.index(value)
    return [bit if (off >> i) & 1 else -bit for i, bit in enumerate(e.bits)]


def test_case_split_agrees_with_interpreter_on_random_chains(monkeypatch):
    """Random `sel == c` chains of 2-7 arms over int (negative lower
    bound, constants outside the domain, repeats), enum, input and
    next-state selectors, with int, bool and enum arms: for every total
    assignment of the variables a chain reads, the encoding holds the
    interpreter's value and no other.  Chains of three or more arms,
    and only they, reach the case split's entry point `lcase`."""
    made = []
    case = Gates.lcase
    monkeypatch.setattr(Gates, "lcase", lambda self, arms: made.append(arms) or case(self, arms))
    rng = random.Random(25)
    reached = long_chains = 0
    for n in range(300):
        expr = _random_chain(rng)
        s, g, enc = _setup(CASE_VARS)
        made.clear()
        out = encode_expr(expr, g, lambda sp, name: enc[(sp, name)])
        spine = [expr]
        while isinstance(spine[-1], Ite):
            spine.append(spine[-1].other)
        long_chain = any(len(case_chain(e)[0]) >= CASE_ARMS for e in spine[:-1])
        long_chains += long_chain
        reached += bool(made)
        assert long_chain or not made, expr
        read = sorted({(r.space, r.name) for r in refs_of(expr)})
        for values in itertools.product(*(CASE_VARS[k].values() for k in read)):
            frame = dict(zip(read, values))
            pins = [lit for k, v in frame.items() for lit in _pin(enc, k, v)]
            want = eval_expr(expr, *({k[1]: v for k, v in frame.items() if k[0] == sp}
                                     for sp in ("state", "input", "next")))
            if isinstance(out, BV):
                dom = CASE_VARS[("state", "m")]
                eq = g.int_eq(out, enum_const(g, dom, want) if isinstance(want, str)
                              else g.bv_const(want))
            else:
                eq = out if want else -out
            assert s.solve(pins + [eq]).status == "sat", (n, expr, frame)
            assert s.solve(pins + [-eq]).status == "unsat", (n, expr, frame)
    assert long_chains >= 150 and reached >= 150, (long_chains, reached)


def test_chain_of_dead_arms_folds_to_its_default(monkeypatch):
    """Arms whose constants lie outside the selector's domain fold to
    false: with every arm dead the chain is its default literal, and
    with one arm live the default's condition is that arm's negation,
    with no n-ary AND (an `_and_n` of three or more literals)."""
    made = []
    for maker, arity in (("_and_n", 3), ("_case", 0)):
        def counted(self, *a, orig=getattr(Gates, maker), name=maker, arity=arity):
            if len(a) >= arity:
                made.append(name)
            return orig(self, *a)
        monkeypatch.setattr(Gates, maker, counted)
    dom = IntRange(0, 3)
    x, p = Ref("x", "state", dom), Ref("p", "state", BOOL)
    s, g, enc = _setup({"x": dom, "p": BOOL})

    def chain(consts):
        e = p
        for v in consts:
            e = Ite(BinOp("==", x, Const(v, IntRange(v, v))), Const(v % 2 == 0, BOOL), e)
        return e
    look = lambda sp, n: enc[n]
    assert encode_expr(chain([7, 6, 5, -1]), g, look) == enc["p"]
    assert made == []
    lit = encode_expr(chain([7, 6, 2]), g, look)
    assert made == ["_case"]
    for xv in dom.values():
        for pv in (False, True):
            pins = [bit if (xv >> i) & 1 else -bit for i, bit in enumerate(enc["x"].bits)]
            pins.append(enc["p"] if pv else -enc["p"])
            want = xv == 2 or pv
            assert s.solve(pins + [lit if want else -lit]).status == "sat"
            assert s.solve(pins + [-lit if want else lit]).status == "unsat"


def test_constant_offsets_fold_without_the_adder(monkeypatch):
    """Rebasing a constant, as an arm of a `? :` chain (a case split or
    a nested if-then-else) or as the right side of `x == c`, folds to
    its bits with no adder, and the encoding holds the interpreter's
    value."""
    calls = []
    add = Gates.add_bits
    monkeypatch.setattr(Gates, "add_bits", lambda self, *a: calls.append(a) or add(self, *a))
    dom = IntRange(2, 9)
    x = Ref("x", "state", dom)

    def c(v):
        return Const(v, IntRange(v, v))

    def eq(v):
        return BinOp("==", x, c(v))
    s, g, enc = _setup({"x": dom})
    for e in (Ite(eq(3), c(7), Ite(eq(4), c(1), Ite(eq(6), c(12), c(5)))),
              Ite(eq(3), c(7), c(5)),
              eq(5)):
        out = encode_expr(e, g, lambda sp, n: enc[n])
        assert calls == [], e
        for v in dom.values():
            pins = [bit if (v - dom.lo) >> i & 1 else -bit
                    for i, bit in enumerate(enc["x"].bits)]
            want = eval_expr(e, {"x": v})
            if isinstance(out, BV):
                lit = g.int_eq(out, g.bv_const(want))
            else:
                lit = out if want else -out
            assert s.solve(pins + [lit]).status == "sat", (e, v)
            assert s.solve(pins + [-lit]).status == "unsat", (e, v)
