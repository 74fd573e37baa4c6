import pytest

from chainforge.model import Property, TRUE, eval_expr, run_trace
from chainforge.oracle import (OracleLimit, oracle_min_chain,
                               pair_min_weights, random_baseline, random_model,
                               reachability_diameter, state_eq, table_model)


def test_oracle_cruise_minimum_is_nine(cruise_model, cruise_props, cruise_final):
    assert oracle_min_chain(cruise_model, cruise_props, cruise_final,
                            cruise_final) == 9


def test_oracle_zero_properties(cruise_model, cruise_final):
    assert oracle_min_chain(cruise_model, [], cruise_final, cruise_final) == 0


def test_oracle_broken_chain_spec_is_four(cruise_model, broken_chain_props,
                                          cruise_final):
    assert oracle_min_chain(cruise_model, broken_chain_props, cruise_final,
                            cruise_final) == 4


def test_oracle_none_when_no_chain():
    table = [[1, 1], [1, 1]]            # state 0 never re-entered
    m = table_model("oneway", table)
    p = Property("p", state_eq(m, 1), TRUE)
    assert oracle_min_chain(m, [p], state_eq(m, 0), state_eq(m, 0)) is None


def test_oracle_starts_from_the_given_init_set():
    """Both references start from `init_expr`, not the model's initial
    values: from s == 1 the cycle 0 -> 1 -> 2 -> 0 covers state 2 and is
    back in s == 1 after 3 steps, where s == 0 would need 4."""
    m = table_model("line", [[1], [2], [0]])
    p = Property("p", state_eq(m, 2), TRUE)
    one = state_eq(m, 1)
    assert oracle_min_chain(m, [p], one, one) == 3
    assert pair_min_weights(m, [p], one, one)[("I", "p")] == 1


def test_oracle_node_limit():
    m = table_model("tiny", [[0, 0]])
    with pytest.raises(OracleLimit):
        oracle_min_chain(m, [], TRUE, TRUE, node_limit=0)


def test_oracle_respects_assertions():
    from chainforge.model import BinOp
    from chainforge.oracle import int_const
    # trigger fires at state 1; the strict assertion only holds on input 1
    table = [[1, 1], [0, 2], [0, 0]]
    m = table_model("psi", table)
    i = state_eq(m, 0)
    p_any = Property("p", state_eq(m, 1), TRUE)
    assert oracle_min_chain(m, [p_any], i, i) == 2       # 0,1,0
    p_strict = Property("p", state_eq(m, 1),
                        BinOp("==", m.next_ref("s"), int_const(2)))
    assert oracle_min_chain(m, [p_strict], i, i) == 3    # 0,1,2,0


def test_reachability_diameter_cruise(cruise_model):
    assert reachability_diameter(cruise_model) == 4


def test_random_model_is_deterministic_and_strongly_connected():
    for seed in (1, 2, 3):
        g1 = random_model(seed)
        g2 = random_model(seed)
        assert g1.table == g2.table
        assert [p.assumption for p in g1.props] == [p.assumption for p in g2.props]
        n = len(g1.table)
        # input 0 steps along a full cycle: strong connectivity
        assert all(g1.table[s][0] == (s + 1) % n for s in range(n))


GOLDEN_TABLES = {
    7: [[1, 1, 3], [2, 5, 0], [3, 0, 6], [4, 4, 0], [5, 2, 4], [6, 0, 4],
        [0, 1, 0]],
    8: [[1, 5], [2, 6], [3, 2], [4, 3], [5, 0], [6, 1], [7, 2], [0, 3]],
    9: [[1, 5], [2, 4], [3, 2], [4, 2], [5, 0], [6, 5], [7, 8], [8, 7], [0, 1]],
}


def test_random_model_golden_fixtures():
    for seed, want in GOLDEN_TABLES.items():
        got = random_model(seed, n_states=len(want), n_inputs=len(want[0]))
        assert got.table == want, (seed, got.table)


def test_pair_min_weights_agree_with_explicit_definition():
    """Cross-check the BFS weights against a direct path enumeration on a
    small machine."""
    table = [[1, 0], [2, 1], [0, 2]]
    m = table_model("tri", table)
    p0 = Property("p0", state_eq(m, 1), TRUE)
    p1 = Property("p1", state_eq(m, 2), TRUE)
    i = state_eq(m, 0)
    w = pair_min_weights(m, [p0, p1], i, i)
    assert w[("I", "p0")] == 1
    assert w[("I", "p1")] == 2
    assert w[("p0", "p1")] == 1         # cover at 1, land at 2
    assert w[("p1", "p0")] == 2         # cover at 2 -> 0 -> 1
    assert w[("p0", "F")] == 2
    assert w[("p1", "F")] == 1


def test_pair_min_weights_cap_keeps_exactly_the_short_weights():
    """A cap c stops the BFS from expanding states at depth c, so it must
    find exactly the uncapped weights of at most c."""
    longest = 0
    for seed in range(12):
        gen = random_model(seed, multi_state=seed % 2 == 1)
        args = (gen.model, gen.props, gen.init_expr, gen.final_expr)
        full = pair_min_weights(*args, k_cap=1 << 30)
        longest = max(longest, *full.values())
        for c in range(5):
            want = {pair: w for pair, w in full.items() if w <= c}
            assert pair_min_weights(*args, k_cap=c) == want, (seed, c)
    assert longest > 4                  # some weight is really cut off


def test_baseline_cruise_full_coverage(cruise_model, cruise_props, cruise_final):
    res = random_baseline(cruise_model, cruise_props, cruise_final, cruise_final,
                          budget=20000, seed=3)
    assert res.coverage == 1.0
    assert res.total_length >= 9        # oracle lower bound
    # selected cases really cover everything and replay
    covered = set()
    for idx in res.selected:
        case = res.cases[idx]
        covered |= case.covered
        trace = run_trace(cruise_model, cruise_model.initial_state(), case.inputs)
        assert eval_expr(cruise_final, trace[-1])
    assert covered == {"p1", "p2", "p3", "p4"}


def test_baseline_zero_budget(cruise_model, cruise_props, cruise_final):
    res = random_baseline(cruise_model, cruise_props, cruise_final, cruise_final,
                          budget=0, seed=1)
    assert res.coverage == 0.0 and res.total_length == 0


def test_baseline_coverage_monotone_in_budget(cruise_model, cruise_props,
                                              cruise_final):
    budgets = (50, 200, 1000, 5000)
    seen = []
    for b in budgets:
        res = random_baseline(cruise_model, cruise_props, cruise_final,
                              cruise_final, budget=b, seed=7)
        seen.append(res.coverage)
    assert all(a <= b for a, b in zip(seen, seen[1:]))


def test_baseline_deterministic(cruise_model, cruise_props, cruise_final):
    r1 = random_baseline(cruise_model, cruise_props, cruise_final, cruise_final,
                         budget=3000, seed=5)
    r2 = random_baseline(cruise_model, cruise_props, cruise_final, cruise_final,
                         budget=3000, seed=5)
    assert r1.total_length == r2.total_length
    assert [c.inputs for c in r1.cases] == [c.inputs for c in r2.cases]


def test_baseline_walks_start_in_the_start_set():
    """On the 3-state cycle 0 -> 1 -> 2 -> 0 with the start set {1}, a walk
    covers p (leaving 2) and is back in 1 after 3 steps; a walk from the
    model's own initial state 0 would need 4."""
    m = table_model("line", [[1], [2], [0]])
    props = [Property("p", state_eq(m, 2), TRUE)]
    start = state_eq(m, 1)
    res = random_baseline(m, props, start, start, budget=50, seed=0)
    assert res.total_length == 3 == oracle_min_chain(m, props, start, start)
