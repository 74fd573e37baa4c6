import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chainforge.dsl import parse_model, parse_properties, parse_state_set
from chainforge.model import TRUE, Property, disj
from chainforge.oracle import state_eq, table_model
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
