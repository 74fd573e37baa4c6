"""chainforge: covering test-chain generation for synchronous reactive
models — reachability abstraction, shortest-path optimisation, concretisation
with repair, refinement, and partitioning."""

__version__ = "0.1.0"

from .model import (BOOL, BoolDomain, EnumDomain, IntRange, Model, Property,
                    TestChain, eval_expr, replay, step)
from .dsl import parse_model, parse_properties, parse_state_set
from .engine import ChainResult, EngineConfig, generate_chain
from .oracle import oracle_min_chain, random_baseline, random_model

__all__ = [
    "BOOL", "BoolDomain", "EnumDomain", "IntRange", "Model", "Property",
    "TestChain", "eval_expr", "replay", "step",
    "parse_model", "parse_properties", "parse_state_set",
    "ChainResult", "EngineConfig", "generate_chain",
    "oracle_min_chain", "random_baseline", "random_model",
    "__version__",
]
