"""The canonical-policy solver against the every-policy reference.

``solver_oracle`` analyses every policy on its own and counts each once;
the code under test analyses only canonical policies, weights each by the
policies it stands for, and solves each fixed class once per pass.
Results must be equal, with every analytic value a ``Fraction``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import solver_oracle
from cmdpkit import chains
from cmdpkit.model import induced_chain
from cmdpkit.solver import PolicyTable, solve
from randmdp import examples, random_decomposable, random_mdp

F = Fraction


@st.composite
def models(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    if draw(st.booleans()):
        return random_decomposable(rng)
    return random_mdp(rng, max_states=7, max_policies=32)


def assert_exact(result):
    if result.status == "optimal":
        assert all(type(v) is Fraction for v in (result.value, *result.W_at_optimum))


@contextmanager
def counted_class_solves():
    with mock.patch.object(chains, "class_visits", wraps=chains.class_visits) as counted:
        yield counted


def class_pairs(mdp, table):
    """(canonical policy, recurrent class) pairs behind a table's rows."""
    return sum(
        len(chains.decompose(induced_chain(mdp, table.policy(row.key))).recurrent_classes)
        for row in table.rows
    )


@settings(max_examples=examples(80), deadline=None)
@given(models())
def test_solve_equals_every_policy_oracle_at_every_state(mdp):
    for y in mdp.states:
        got = solve(mdp, y)
        assert got == solver_oracle.solve(mdp, y)
        assert got.total_count == solver_oracle.policy_count(mdp)
        assert_exact(got)


@settings(max_examples=examples(80), deadline=None)
@given(models(), st.integers(0, 10**9))
def test_table_solves_equal_oracle_with_a_random_slack(mdp, seed):
    rng = random.Random(seed)
    starts = tuple(rng.sample(mdp.states, rng.randint(1, mdp.num_states)))
    with counted_class_solves() as counted:
        table = PolicyTable(mdp, starts)
    assert counted.call_count <= class_pairs(mdp, table)
    assert sum(row.count for row in table.rows) == solver_oracle.policy_count(mdp)
    reference = tuple(solver_oracle.rows(mdp, [mdp.state_index(s) for s in starts]))
    for k, y in enumerate(starts):
        slack = tuple(
            F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(mdp.constraint_dim)
        )
        for shift in (None, slack):
            got = table.solve(y, shift)
            assert got == solver_oracle.best(reference, k, shift)
            assert_exact(got)


@st.composite
def class_mixes(draw):
    """Positive integer weights and ``[reward, *constraint, steps]`` sums by class column."""
    dim = draw(st.sampled_from([0, 1, 2]))
    columns = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
    weights = {c: draw(st.integers(1, 10**6)) for c in columns}
    gains = {
        c: [*(draw(st.integers(-10**6, 10**6)) for _ in range(1 + dim)),
            draw(st.integers(1, 2**61 - 1))]
        for c in columns
    }
    return weights, gains


@settings(max_examples=examples(80), deadline=None)
@given(class_mixes())
def test_class_sums_equal_the_deleted_integer_mix(mix):
    # A leaf's start row holds minus its weights on the class columns; the
    # pseudo column the walk once carried held their sum.
    weights, gains = mix
    got = tuple(chains.class_sums(
        list(weights.values()), [(gains[c], gains[c][-1]) for c in weights]
    ))
    assert got == solver_oracle.integer_mix(
        {c: -w for c, w in weights.items()}, gains, sum(weights.values())
    )
    assert all(type(x) is int for x in got)
    assert got[-1] > 0


def test_multiplicities_and_reused_class_solves_occur():
    rng = random.Random(11)
    weighted = reused = 0
    for _ in range(30):
        mdp = random_mdp(rng, max_states=7, max_policies=32)
        with counted_class_solves() as counted:
            table = PolicyTable(mdp, (mdp.initial_state,))
        weighted += any(row.count > 1 for row in table.rows)
        reused += counted.call_count < class_pairs(mdp, table)
    assert weighted and reused


def test_unchanged_classes_are_solved_once():
    # Choice-free classes: every canonical policy has the classes of the first.
    rng = random.Random(4)
    checked = 0
    for _ in range(20):
        mdp = random_decomposable(rng)
        with counted_class_solves() as counted:
            result = solve(mdp)
        table = PolicyTable(mdp, (mdp.initial_state,))
        first = table.policy(table.rows[0].key)
        classes = len(chains.decompose(induced_chain(mdp, first)).recurrent_classes)
        assert result == solver_oracle.solve(mdp)
        assert counted.call_count == classes
        if len(table.rows) > 1:
            assert counted.call_count < class_pairs(mdp, table)
            checked += 1
    assert checked
