import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from cmdpkit import instances, solver
from cmdpkit.evaluation import evaluate
from cmdpkit.model import Mdp, Policy
from cmdpkit.solver import (
    ENUM_CAP_ENV,
    EnumerationCapExceeded,
    enumerate_policies,
    solve,
)
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


def test_unknown_start_is_reported_before_the_cap(monkeypatch, haviv):
    monkeypatch.setenv(ENUM_CAP_ENV, "1")
    with pytest.raises(KeyError):
        solve(haviv, "nowhere")
    with pytest.raises(EnumerationCapExceeded):
        solve(haviv, "x")


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
