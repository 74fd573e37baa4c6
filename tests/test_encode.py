import random

from chainforge.encode import (Gates, alloc_var, assert_assignment,
                               decode_var, encode_expr, width_for)
from chainforge.model import (BOOL, BinOp, BoolDomain, Const, EnumDomain,
                              IntRange, Ite, Not, Ref, eval_expr)
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
