import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import solver_oracle
from cmdpkit import chains, instances, solver
from cmdpkit.evaluation import evaluate
from cmdpkit.model import (
    ENUM_CAP_ENV,
    EnumerationCapExceeded,
    InputError,
    Mdp,
    Policy,
    UnknownStateError,
    validate,
)
from cmdpkit.solver import PolicyTable, enumerate_policies, solve
from dense_oracle import sparse_kernel
from randmdp import random_mdp, random_row, random_value

F = Fraction


def brute_force(mdp: Mdp, x: str):
    """Independent reference: enumerate, evaluate, filter, argmax."""
    best = None
    feasible = 0
    for combo in itertools.product(*mdp.actions):
        policy = Policy(choice=tuple(zip(mdp.states, combo)))
        report = evaluate(mdp, policy, x)
        if all(w >= 0 for w in report.W):
            feasible += 1
            if best is None or report.V > best[0]:
                best = (report.V, policy)
    return best, feasible


def test_enumerate_haviv_has_two_policies(haviv):
    policies = list(enumerate_policies(haviv))
    assert len(policies) == 2
    assert [p.action_for("y") for p in policies] == ["a", "b"]


def test_enumerate_single_action_model(twochain):
    assert len(list(enumerate_policies(twochain))) == 1


def test_enumerate_product_count():
    rng = random.Random(3)
    mdp = random_mdp(rng, max_states=3, max_policies=8)
    # force 3 states x 2 actions each
    while not (mdp.num_states == 3 and all(len(a) == 2 for a in mdp.actions)):
        mdp = random_mdp(rng, max_states=3, max_policies=8)
    assert len(list(enumerate_policies(mdp))) == 8


def test_solve_haviv_from_x(haviv):
    result = solve(haviv, "x")
    assert result.status == "optimal"
    assert result.policy.action_for("y") == "a"
    assert result.value == 5
    assert result.W_at_optimum == (F(0),)
    assert (result.feasible_count, result.total_count) == (1, 2)


def test_solve_haviv_from_y_prefers_b(haviv):
    result = solve(haviv, "y")
    assert result.status == "optimal"
    assert result.policy.action_for("y") == "b"
    assert result.value == 20


def test_solve_tightened_bound_is_infeasible():
    tight = instances.haviv(bound=F(1, 25))
    result = solve(tight, "x")
    assert result.status == "infeasible"
    assert result.feasible_count == 0
    assert result.policy is None


def test_solve_unconstrained_takes_max():
    rng = random.Random(17)
    for _ in range(20):
        mdp = random_mdp(rng, max_states=6, constraint_dims=(0,), max_policies=16)
        result = solve(mdp, "s0")
        (value, policy), feasible = brute_force(mdp, "s0")
        assert result.status == "optimal"
        assert feasible == result.total_count == result.feasible_count
        assert result.value == value


def test_solve_matches_brute_force():
    rng = random.Random(1212)
    for _ in range(50):
        mdp = random_mdp(rng, max_states=8, max_policies=36)
        got = solve(mdp, "s0")
        best, feasible = brute_force(mdp, "s0")
        assert got.feasible_count == feasible
        if best is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal"
            assert got.value == best[0]
            assert got.policy == best[1]  # lexicographic tie-break agrees


def test_relaxing_constraints_is_monotone():
    rng = random.Random(77)
    for _ in range(20):
        mdp = random_mdp(rng, max_states=6, constraint_dims=(1, 2), max_policies=16)
        relaxed_constraints = tuple(
            tuple(tuple(c + F(1, 2) for c in cvec) for cvec in per_action)
            for per_action in mdp.constraints
        )
        relaxed = Mdp(
            states=mdp.states, actions=mdp.actions, successors=mdp.successors,
            rewards=mdp.rewards, constraints=relaxed_constraints,
            constraint_dim=mdp.constraint_dim, initial_state=mdp.initial_state,
        )
        before = solve(mdp, "s0")
        after = solve(relaxed, "s0")
        assert after.feasible_count >= before.feasible_count
        if before.status == "optimal":
            assert after.status == "optimal"
            assert after.value >= before.value


def test_enumeration_cap(monkeypatch, haviv):
    monkeypatch.setenv(ENUM_CAP_ENV, "1")
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_policies(haviv))
    monkeypatch.setenv(ENUM_CAP_ENV, "junk")
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_policies(haviv))


def test_cap_error_counts_states_by_actions_before_any_policy(monkeypatch):
    rng = random.Random(3)
    mdp = random_mdp(rng, max_states=8, max_actions=3, max_policies=64)
    while sorted({len(a) for a in mdp.actions} - {1}) != [2, 3]:
        mdp = random_mdp(rng, max_states=8, max_actions=3, max_policies=64)
    built = []
    monkeypatch.setattr(solver, "Policy", lambda **kw: built.append(kw))
    monkeypatch.setenv(ENUM_CAP_ENV, "1")
    with pytest.raises(EnumerationCapExceeded) as raised:
        solve(mdp)
    assert str(raised.value) == (
        "18 policies (1 state with 2 actions, 2 states with 3 actions) exceed "
        f"the cap of 1; raise {ENUM_CAP_ENV} to proceed"
    )
    assert built == []


def test_cap_error_comes_before_the_walk_with_unchanged_bytes(monkeypatch, yacht):
    monkeypatch.setenv(ENUM_CAP_ENV, "1")
    monkeypatch.setattr(solver, "_equation", lambda row, column: pytest.fail("walked past the cap"))
    for run in (lambda: solve(yacht), lambda: PolicyTable(yacht, yacht.states)):
        with pytest.raises(EnumerationCapExceeded) as raised:
            run()
        assert str(raised.value) == (
            "4 policies (2 states with 2 actions) exceed the cap of 1; "
            "raise CMDPKIT_ENUM_CAP to proceed"
        )


def unreached_choices_model(reached: int, unreached: int) -> Mdp:
    """Start s0, one action, reaches ``reached`` binary states; ``unreached``
    more binary states are reached from nowhere.

    Every state but s0 loops on itself under both actions, a with reward 0
    and b with reward 1; s0 loops on itself when it reaches nothing.
    """
    def loop(i):
        return ((i, F(1)),)

    n = 1 + reached + unreached
    start = tuple((j, F(1, reached)) for j in range(1, reached + 1)) or loop(0)
    zero = (F(0),)
    return Mdp(
        states=tuple(f"s{i}" for i in range(n)),
        actions=(("go",),) + (("a", "b"),) * (n - 1),
        successors=((start,),) + tuple((loop(i), loop(i)) for i in range(1, n)),
        rewards=((F(0),),) + ((F(0), F(1)),) * (n - 1),
        constraints=((zero,),) + ((zero, zero),) * (n - 1),
        constraint_dim=1,
        initial_state="s0",
    )


def test_the_cap_bounds_the_walk_not_the_whole_product(monkeypatch):
    # 22 states: s0 reaches nothing, and 21 binary states are unreached, so
    # the product 2**21 is past the default cap while the walk has one leaf.
    monkeypatch.delenv(ENUM_CAP_ENV, raising=False)
    mdp = unreached_choices_model(0, 21)
    assert validate(mdp).ok
    result = solve(mdp)
    assert (result.status, result.value, result.feasible_count, result.total_count) == (
        "optimal", 0, 2**21, 2**21,
    )
    assert [(row.key, row.count) for row in solver._rows(mdp, [0])] == [((0,) * 21, 2**21)]
    # The sample-path questions walk every policy: they cap the full product.
    with pytest.raises(EnumerationCapExceeded, match="^2097152 policies"):
        next(enumerate_policies(mdp))


def test_a_closure_past_the_cap_is_refused_on_its_own_product(monkeypatch):
    mdp = unreached_choices_model(3, 2)
    monkeypatch.setenv(ENUM_CAP_ENV, "4")
    for run in (lambda: solve(mdp), lambda: PolicyTable(mdp, ("s0",))):
        with pytest.raises(EnumerationCapExceeded) as raised:
            run()
        assert str(raised.value) == (
            "8 policies (3 states with 2 actions) exceed the cap of 4; "
            "raise CMDPKIT_ENUM_CAP to proceed"
        )
    monkeypatch.setenv(ENUM_CAP_ENV, "8")
    result = solve(mdp)
    assert (result.value, result.feasible_count, result.total_count) == (1, 32, 32)
    with pytest.raises(EnumerationCapExceeded, match="^32 policies [(]5 states with 2 actions"):
        next(enumerate_policies(mdp))


def walk_order_model() -> Mdp:
    """From s1, s0 is reached only through s1's action a.

    The walk fixes s1 first, so its policies come as (s0, s1) action
    indices (0, 0), (1, 0), (0, 1). The last two are optimal, with V = 2,
    and (0, 1) is the smaller action tuple.
    """
    def to(j):
        return ((j, F(1)),)

    zero = (F(0),)
    return Mdp(
        states=("s0", "s1", "u", "v", "t"),
        actions=(("a", "b"), ("a", "b"), ("stay",), ("stay",), ("stay",)),
        successors=((to(2), to(3)), (to(0), to(4)), (to(2),), (to(3),), (to(4),)),
        rewards=((F(0), F(0)), (F(0), F(0)), (F(0),), (F(2),), (F(2),)),
        constraints=((zero, zero), (zero, zero), (zero,), (zero,), (zero,)),
        constraint_dim=1,
        initial_state="s1",
    )


def test_ties_go_to_the_smallest_action_tuple_not_the_first_walked():
    mdp = walk_order_model()
    assert validate(mdp).ok
    assert [row.key for row in solver._rows(mdp, [1])] == [(0, 0), (1, 0), (0, 1)]
    table = PolicyTable(mdp, ("s1",))
    rows = solver_oracle.materialise(mdp, table.rows)
    assert [(row.key, row.V[0], row.count) for row in rows] == [
        ((0, 0), 0, 1), ((0, 1), 2, 2), ((1, 0), 2, 1),
    ]
    first = Policy.from_mapping(mdp, {"s0": "a", "s1": "b"})
    for result in (solve(mdp), table.solve("s1"), table.solve("s1", (F(-1),))):
        assert (result.status, result.policy, result.value) == ("optimal", first, 2)
        assert (result.feasible_count, result.total_count) == (4, 4)
    assert solve(mdp) == solver_oracle.solve(mdp)


def test_solve_builds_one_policy_per_answer_and_enumerates_none(monkeypatch):
    # The walk's leaves stay integers: an optimal solve builds only its
    # answer's Policy and its V and W Fractions, and an infeasible one
    # builds neither. The Fractions are built by chains.gain, so both
    # modules' Fraction is counted.
    rng = random.Random(8)
    statuses = collections.Counter()
    for _ in range(20):
        mdp = random_mdp(rng, max_states=7, max_policies=32)
        for y in mdp.states:
            expected = solver_oracle.solve(mdp, y)
            policies, fractions = [], []
            with monkeypatch.context() as patch:
                patch.setattr(solver, "enumerate_policies", lambda mdp: pytest.fail("enumerated"))
                patch.setattr(solver, "Policy", lambda **kw: policies.append(kw) or Policy(**kw))
                for module in (solver, chains):
                    patch.setattr(
                        module, "Fraction", lambda *args: fractions.append(args) or Fraction(*args)
                    )
                assert solve(mdp, y) == expected
            optimal = expected.status == "optimal"
            assert len(policies) == optimal
            assert len(fractions) == optimal * (1 + mdp.constraint_dim)
            statuses[expected.status] += 1
    assert statuses["optimal"] >= 20 and statuses["infeasible"] >= 5


def test_unknown_start_is_reported_before_the_cap(monkeypatch, haviv):
    monkeypatch.setenv(ENUM_CAP_ENV, "1")
    with pytest.raises(KeyError):
        solve(haviv, "nowhere")
    with pytest.raises(EnumerationCapExceeded):
        solve(haviv, "x")


def test_table_solve_rejects_a_slack_of_the_wrong_length(haviv):
    # haviv has one constraint; an empty slack once dropped it and gave V = 10.
    table = PolicyTable(haviv, ("x",))
    for slack in ((), (F(0), F(0))):
        with pytest.raises(InputError) as raised:
            table.solve("x", slack)
        assert str(raised.value) == f"slack has {len(slack)} components, but constraint_dim is 1"
    assert table.solve("x", (F(0),)).value == table.solve("x").value == 5


def test_table_solve_rejects_a_slack_that_is_not_rational(haviv):
    # A float slack once gave a binary float W and a str one a TypeError.
    table = PolicyTable(haviv, ("x", "y"))
    for component in (0.05, "1/20", None, 1j):
        with pytest.raises(InputError) as raised:
            table.solve("y", (component,))
        assert str(raised.value) == f"slack component {component!r} is not rational"
    exact = table.solve("y", (F(1, 20),))
    assert all(type(w) is Fraction for w in exact.W_at_optimum)
    assert table.solve("y", (0,)) == table.solve("y", (F(0),)) == table.solve("y")


def test_table_rejects_a_state_outside_it_as_an_input_error(haviv):
    table = PolicyTable(haviv, ("x",))
    message = "\"state 'y' is not a start state of this table\""
    for ask in (lambda: table.column("y"), lambda: table.solve("y")):
        with pytest.raises(UnknownStateError) as raised:
            ask()
        assert isinstance(raised.value, InputError)
        assert isinstance(raised.value, KeyError)
        assert str(raised.value) == message


def tabled_model(initial: str, table: dict) -> Mdp:
    """A one-constraint model from {state: {action: ({target: p}, reward, constraint)}}."""
    index = {state: i for i, state in enumerate(table)}
    return Mdp(
        states=tuple(table),
        actions=tuple(tuple(acts) for acts in table.values()),
        successors=tuple(
            tuple(tuple(sorted((index[t], F(p)) for t, p in row.items())) for row, _, _ in acts.values())
            for acts in table.values()
        ),
        rewards=tuple(tuple(F(r) for _, r, _ in acts.values()) for acts in table.values()),
        constraints=tuple(tuple((F(c),) for _, _, c in acts.values()) for acts in table.values()),
        constraint_dim=1,
        initial_state=initial,
    )


def walked_values(mdp: Mdp, start: str) -> dict[tuple[int, ...], tuple]:
    """V and W by key from the walk at one start, each checked against the full chain."""
    values = {}
    for row in solver_oracle.materialise(mdp, solver._rows(mdp, [mdp.state_index(start)])):
        report = evaluate(mdp, row.policy, start)
        assert (row.V[0], row.W[0]) == (report.V, report.W)
        values[row.key] = (row.V[0], row.W[0][0])
    return values


def test_a_class_over_two_decision_states_closes_when_the_second_is_fixed():
    # d0 -a-> u -> d1 -a-> d0 is a cycle of three steps. Fixing d0 first
    # eliminates it into d1's row, whose self-mass then becomes 1: the class
    # closes at d1 with gains (1 + 3 + 5) / 3 and (1 + 0 - 2) / 3.
    mdp = tabled_model("d0", {
        "d0": {"a": ({"u": 1}, 1, 1), "b": ({"t": 1}, 0, 0)},
        "d1": {"a": ({"d0": 1}, 5, -2), "b": ({"t": 1}, 0, 0)},
        "u": {"go": ({"d1": 1}, 3, 0)},
        "t": {"stay": ({"t": 1}, 2, 1)},
    })
    assert validate(mdp).ok
    assert walked_values(mdp, "d0") == {
        (0, 0): (3, F(-1, 3)), (0, 1): (2, 1), (1, 0): (2, 1),
    }
    for state in mdp.states:
        walked_values(mdp, state)


def test_a_self_loop_below_one_is_divided_out():
    # d0 -a-> d0 with mass 1/2: the class {d0, d1} has stationary vector
    # (2/3, 1/3), so V = (2 * 2 + 5) / 3; d0's action b keeps 1/3 on itself
    # and leaves for t1 and t2 evenly.
    mdp = tabled_model("d0", {
        "d0": {"a": ({"d0": F(1, 2), "d1": F(1, 2)}, 2, 1),
               "b": ({"t1": F(1, 3), "d0": F(1, 3), "t2": F(1, 3)}, 0, 0)},
        "d1": {"a": ({"d0": 1}, 5, -1), "b": ({"t2": 1}, 0, 0)},
        "t1": {"stay": ({"t1": 1}, 6, 0)},
        "t2": {"stay": ({"t2": 1}, -3, 1)},
    })
    assert validate(mdp).ok
    assert walked_values(mdp, "d0") == {
        (0, 0): (3, F(1, 3)), (0, 1): (-3, 1), (1, 0): (F(3, 2), F(1, 2)),
    }
    for state in mdp.states:
        walked_values(mdp, state)


def test_a_pure_self_loop_closes_a_singleton_class_at_a_decision_state():
    mdp = tabled_model("d0", {
        "d0": {"a": ({"d0": 1}, 4, -1), "b": ({"t": 1}, 0, 0)},
        "t": {"stay": ({"t": 1}, 1, 1)},
    })
    assert validate(mdp).ok
    assert walked_values(mdp, "d0") == {(0,): (4, -1), (1,): (1, 1)}
    assert solve(mdp).value == 1


def test_a_transient_start_reaches_fixed_classes_only_through_eliminated_decision_states():
    # u has one action and enters d0 or d1; every path to t1 or t2 passes
    # through decision states the walk eliminates.
    mdp = tabled_model("u", {
        "u": {"go": ({"d0": F(1, 2), "d1": F(1, 2)}, 7, 0)},
        "d0": {"a": ({"d1": 1}, 0, 0), "b": ({"t1": 1}, 0, 0)},
        "d1": {"a": ({"t1": 1}, 0, 0), "b": ({"t2": 1}, 0, 0)},
        "t1": {"stay": ({"t1": 1}, 6, 0)},
        "t2": {"stay": ({"t2": 1}, -3, 1)},
    })
    assert validate(mdp).ok
    assert walked_values(mdp, "u") == {
        (0, 0): (6, 0), (0, 1): (-3, 1), (1, 0): (6, 0), (1, 1): (F(3, 2), F(1, 2)),
    }
    for state in mdp.states:
        walked_values(mdp, state)


def nested_model(decisions: int, size: int = 9) -> Mdp:
    """One fixed random model whose first ``decisions`` states keep both actions."""
    rng = random.Random(7)
    kernel = [tuple(random_row(rng, size) for _ in "ab") for _ in range(size)]
    rewards = [tuple(random_value(rng) for _ in "ab") for _ in range(size)]
    constraints = [tuple((random_value(rng, -5, 5),) for _ in "ab") for _ in range(size)]
    keep = [2 if i < decisions else 1 for i in range(size)]
    return Mdp(
        states=tuple(f"s{i}" for i in range(size)),
        actions=tuple(("a", "b")[:keep[i]] for i in range(size)),
        successors=sparse_kernel(kernel[i][:keep[i]] for i in range(size)),
        rewards=tuple(rewards[i][:keep[i]] for i in range(size)),
        constraints=tuple(constraints[i][:keep[i]] for i in range(size)),
        constraint_dim=1,
        initial_state="s0",
    )


def peak_traced_bytes(call):
    """Peak memory traced while ``call`` runs, free lists aside.

    CPython keeps up to 2000 freed tuples of each small size for reuse, and
    tuples built from generators are resized into those lists faster than
    they are taken out again; filling the lists first keeps that growth out
    of the measurement.
    """
    filler = [tuple(range(n)) for n in range(1, 21) for _ in range(2000)]
    del filler
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_memory_does_not_grow_with_policies():
    small, large = nested_model(6), nested_model(9)
    assert (solve(small).total_count, solve(large).total_count) == (2**6, 2**9)
    small_peak = peak_traced_bytes(lambda: solve(small))
    large_peak = peak_traced_bytes(lambda: solve(large))
    # a kept row per policy would add over 1 KB each, about 500 KB here
    assert large_peak - small_peak < 64 * 1024
