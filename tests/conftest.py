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
