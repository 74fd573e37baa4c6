import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chainforge.dsl import parse_model, parse_properties, parse_state_set
from chainforge.model import TRUE, BinOp, Property, conj, disj
from chainforge.oracle import int_const, state_eq, table_model
from chainforge.sat import Solver

BENCHES = Path(__file__).parent.parent / "benches"

CRUISE_INPUTS = ("gas", "brake", "button", "acc", "dec")

BROKEN_CHAIN_PROPS = """
property p1 { assume mode == OFF && !enable && button; assert next(enable); }
property p2 { assume mode == ON && brake; assert next(mode) == DIS; }
"""


#: No run of two steps keeps to the invariant (x reaches 2 and f stays
#: false), so on an unrolling that deep a path query has no run, whatever
#: it pins; and f never holds, so no chain covers both properties.
HORIZON_MODEL = """
model horizon {
  state x : 0..2 init 0;
  state f : bool init false;
  input a : 0..2;
  invariant x <= 1 || f;
  trans {
    x' = x < 2 ? x + 1 : x;
    f' = false;
  }
}
"""

HORIZON_PROPS = """
property p0 { assume f; assert true; }
property p1 { assume a == 1; assert true; }
"""


@pytest.fixture(scope="session")
def cruise_model():
    text = (BENCHES / "cruise1" / "model.rsys").read_text()
    model, diags = parse_model(text, filename="model.rsys")
    assert model is not None, [str(d) for d in diags]
    return model


@pytest.fixture(scope="session")
def cruise_props(cruise_model):
    text = (BENCHES / "cruise1" / "props.props").read_text()
    props, diags = parse_properties(text, cruise_model, filename="props.props")
    assert not any(d.severity == "error" for d in diags)
    return props


@pytest.fixture(scope="session")
def cruise_final(cruise_model):
    expr, diags = parse_state_set("mode == OFF && speed == 0 && !enable", cruise_model)
    assert expr is not None
    return expr


@pytest.fixture(scope="session")
def broken_chain_props(cruise_model):
    props, diags = parse_properties(BROKEN_CHAIN_PROPS, cruise_model)
    assert not any(d.severity == "error" for d in diags)
    return props


def split_table_case():
    """An 18-state table model whose planned path fails and whose repair
    splits a vertex, the one `test_engine.py` checks for the optimum
    after an unstretched repair: (model, properties, the start and final
    set)."""
    table = [[1, 4], [9, 12], [7, 10], [14, 5], [16, 9], [3, 4], [17, 13],
             [3, 10], [16, 7], [16, 8], [5, 5], [14, 7], [12, 11], [4, 14],
             [14, 0], [12, 5], [12, 16], [1, 15]]
    m = table_model("split", table)
    members = [[8, 13], [15, 11, 10], [2, 7, 6], [12, 0], [14, 16]]
    props = [Property(f"p{j}", disj(*(state_eq(m, s) for s in ss)), TRUE)
             for j, ss in enumerate(members)]
    return m, props, state_eq(m, 0)


def eden_table_case():
    """An 11-state table model whose planned path I, pa, p0, p1, p2, F
    at weight 1 per edge fails on the window p0, p1, p2, which goes
    through at its weights only from 7, a state no state leads to:
    (model, properties, the start and final set)."""
    table = [[1, 2], [10, 10], [0, 0], [5, 5], [8, 8], [0, 0], [0, 0], [3, 3],
             [9, 9], [5, 5], [4, 4]]
    m = table_model("eden", table)
    props = [Property("pa", state_eq(m, 1), TRUE),
             Property("p0", disj(state_eq(m, 10), state_eq(m, 7)), TRUE),
             Property("p1", disj(state_eq(m, 3), state_eq(m, 4)), TRUE),
             Property("p2", state_eq(m, 5), TRUE)]
    return m, props, state_eq(m, 0)


def table_family_case(seed: int):
    """Table-family model `seed`: 8-19 states and 2-3 inputs under a
    uniform random transition table, 3-6 properties each triggering on
    1-3 distinct states, pinned to one input with probability 0.5, with
    `assert true`; start `s == 0`, final true (k_max 12).  Returns
    (model, properties, the start set, the final set)."""
    rng = random.Random(seed)
    n, m = rng.randint(8, 19), rng.randint(2, 3)
    model = table_model(f"fam{seed}", [[rng.randrange(n) for _ in range(m)]
                                       for _ in range(n)])
    props = []
    for j in range(rng.randint(3, 6)):
        trigger = disj(*(state_eq(model, s) for s in rng.sample(range(n), rng.randint(1, 3))))
        if rng.random() < 0.5:
            trigger = conj(trigger, BinOp("==", model.input_ref("a"),
                                          int_const(rng.randrange(m))))
        props.append(Property(f"p{j}", trigger, TRUE))
    return model, props, state_eq(model, 0), TRUE


def multi_var_case(seed: int):
    """Multi-variable model `seed`: `x : 0..X` (X in 2-5) and `y : 0..Y`
    (Y in 1-3), both init 0, and `f : bool` init false; inputs
    `a : 0..2` and `b : bool`.  With probability 0.3 each, the input
    assumption `!(b && a == 2)` and the invariant `x <= c || f` (c in
    X-2..X, not always inductive).  `x'` and `y'` are 1-3 guarded `? :`
    levels over saturating +1 and -1, 0, the variable itself or a
    constant; `f'` toggles under a guard.  A guard is 1-2 atoms from
    `x == c`, `x < c`, `y == c`, `f`, `!f`, `a == c`, `b`, `!b`.  2-4
    properties `assume G; assert true;`, start at the declared init,
    final true (k_max 16).  Returns (model, properties, the start set,
    the final set)."""
    rng = random.Random(seed)
    hi = {"x": rng.randint(2, 5), "y": rng.randint(1, 3)}
    atoms = [lambda: f"x == {rng.randint(0, hi['x'])}",
             lambda: f"x < {rng.randint(1, hi['x'])}",
             lambda: f"y == {rng.randint(0, hi['y'])}",
             lambda: "f", lambda: "!f",
             lambda: f"a == {rng.randint(0, 2)}", lambda: "b", lambda: "!b"]

    def guard() -> str:
        return " && ".join(rng.choice(atoms)() for _ in range(rng.randint(1, 2)))

    def update(v: str) -> str:
        leaves = [lambda: f"{v} < {hi[v]} ? {v} + 1 : {v}",
                  lambda: f"0 < {v} ? {v} - 1 : {v}",
                  lambda: "0", lambda: v, lambda: str(rng.randint(0, hi[v]))]
        expr = rng.choice(leaves)()
        for _ in range(rng.randint(1, 3)):
            expr = f"({guard()}) ? ({rng.choice(leaves)()}) : ({expr})"
        return expr

    items = [f"state x : 0..{hi['x']} init 0;", f"state y : 0..{hi['y']} init 0;",
             "state f : bool init false;", "input a : 0..2;", "input b : bool;"]
    if rng.random() < 0.3:
        items.append("assume !(b && a == 2);")
    if rng.random() < 0.3:
        items.append(f"invariant x <= {rng.randint(hi['x'] - 2, hi['x'])} || f;")
    items.append(f"trans {{ x' = {update('x')}; y' = {update('y')}; "
                 f"f' = ({guard()}) ? !f : f; }}")
    model, diags = parse_model(f"model mv{seed} {{\n  " + "\n  ".join(items) + "\n}\n")
    assert model is not None, [str(d) for d in diags]
    text = "".join(f"property p{j} {{ assume {guard()}; assert true; }}\n"
                   for j in range(rng.randint(2, 4)))
    props, diags = parse_properties(text, model)
    assert not any(d.severity == "error" for d in diags), [str(d) for d in diags]
    return model, props, model.init_expr(), TRUE


def random_paths(n_vertices: int, rng: random.Random, count: int):
    """`count` seeded random planned paths over vertices 0..n_vertices-1:
    the start 0, every property in some order, the final vertex last,
    1-4 steps apart.  Yields (vertex indices, weights)."""
    for _ in range(count):
        path = [0, *rng.sample(range(1, n_vertices - 1), n_vertices - 2), n_vertices - 1]
        yield path, [rng.randint(1, 4) for _ in path[1:]]


class PhaseTrueSolver(Solver):
    """The embedded solver with every new variable's saved phase True, so
    its search (decisions, models, cores) differs from the default's."""

    def new_var(self) -> int:
        v = super().new_var()
        self.phase[v] = True
        return v


def cruise_input(name):
    """One-hot cruise input vector."""
    return {k: (k == name) for k in CRUISE_INPUTS}


@pytest.fixture(scope="session")
def iv():
    return cruise_input
