"""The one-table audit and solves against the re-solving reference.

``audit_oracle`` re-solves the unmodified and the shifted problem at every
audited state; the code under test answers both from one ``PolicyTable``
and the shift identity W' = W - slack. Reports must be equal field for
field, with every analytic value a ``Fraction``.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_oracle
from cmdpkit import instances, solver
from cmdpkit.residual import InfeasibleStartError, ResidualSpec, audit_time_consistency
from cmdpkit.solver import PolicyTable, solve
from randmdp import random_decomposable, random_mdp

F = Fraction


def shifted(mdp, amount):
    """Every constraint component lowered by ``amount``."""
    return mdp._replace(constraints=tuple(
        tuple(tuple(c - amount for c in cvec) for cvec in per_action)
        for per_action in mdp.constraints
    ))


@st.composite
def models(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    if draw(st.booleans()):
        # Classes entered from every transient state: an unmodified solve
        # started inside a class of negative gain is infeasible.
        return random_decomposable(rng)
    mdp = random_mdp(rng, max_states=6, constraint_dims=(1, 2), max_policies=8)
    # A negative shift makes the start infeasible more often.
    return shifted(mdp, F(draw(st.integers(0, 12)), 4))


def audit_outcome(audit, mdp, all_times):
    try:
        return audit(mdp, all_times=all_times)
    except ValueError as exc:
        return str(exc)


def assert_exact(report):
    values = [report.value, *(report.mu or ())]
    for entry in report.entries:
        values += [entry.prob, *entry.slack, entry.policy_value_here]
        values += [v for v in (entry.unmodified_value, entry.residual_value) if v is not None]
    assert all(type(v) is Fraction for v in values)


def check_audit(mdp, all_times):
    got = audit_outcome(audit_time_consistency, mdp, all_times)
    assert got == audit_outcome(audit_oracle.audit_time_consistency, mdp, all_times)
    if not isinstance(got, str):
        assert_exact(got)
    return got


@settings(max_examples=80, deadline=None)
@given(models(), st.booleans())
def test_audit_equals_resolving_oracle(mdp, all_times):
    check_audit(mdp, all_times)


@pytest.mark.parametrize("all_times", [False, True])
def test_haviv_audit_equals_oracle_including_infeasible_entry(all_times):
    report = check_audit(instances.haviv(), all_times)
    infeasible = [e.state for e in report.entries if e.unmodified_status == "infeasible"]
    assert "c1_0" in infeasible


def test_haviv_all_times_audit_asks_each_unmodified_answer_once():
    # 75 entries over 27 states: the unmodified answer does not depend on
    # the time, so it is asked once per state, and each row that answers
    # builds its Policy once.
    unmodified, built = [], []
    solve_at, policy_of = PolicyTable.solve, solver._policy

    def counted_solve(table, x, slack=None):
        if slack is None:
            unmodified.append(x)
        return solve_at(table, x, slack)

    def counted_policy(options, key):
        built.append(key)
        return policy_of(options, key)

    with mock.patch.object(PolicyTable, "solve", counted_solve), \
            mock.patch.object(solver, "_policy", counted_policy):
        report = audit_time_consistency(instances.haviv(), all_times=True)
    states = [entry.state for entry in report.entries]
    assert (len(states), len(set(states))) == (75, 27)
    assert sorted(unmodified) == sorted(set(states))
    assert len(built) == len(set(built))
    assert report == audit_oracle.audit_time_consistency(instances.haviv(), all_times=True)


def test_decomposable_models_reach_the_infeasible_branch():
    rng = random.Random(5)
    statuses = set()
    starts = set()
    for _ in range(20):
        report = check_audit(random_decomposable(rng), all_times=False)
        starts.add(isinstance(report, str))
        if not isinstance(report, str):
            statuses.update(e.unmodified_status for e in report.entries)
    assert statuses == {"optimal", "infeasible"}
    assert starts == {True, False}


def test_infeasible_start_carries_the_solve():
    tight = instances.haviv(bound=F(1, 25))
    with pytest.raises(InfeasibleStartError) as caught:
        audit_time_consistency(tight)
    assert caught.value.result == audit_oracle.solve(tight)
    assert caught.value.result.status == "infeasible"


@settings(max_examples=80, deadline=None)
@given(models(), st.integers(0, 10**9))
def test_table_solves_equal_oracle_at_every_state(mdp, seed):
    rng = random.Random(seed)
    table = PolicyTable(mdp, mdp.states)
    for y in mdp.states:
        expected = audit_oracle.solve(mdp, y)
        assert solve(mdp, y) == expected
        assert table.solve(y) == expected
        # the shift identity: any uniform shift, no residual model built
        slack = tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(mdp.constraint_dim))
        spec = ResidualSpec(source=y, target=y, time=0, prob_to=F(1), slack=slack)
        residual = table.solve(y, slack)
        assert residual == audit_oracle.solve(audit_oracle.build_residual_problem(mdp, spec), y)
        if residual.status == "optimal":
            assert type(residual.value) is Fraction
            assert all(type(w) is Fraction for w in residual.W_at_optimum)
