"""The integer scan against the ``Fraction`` route it replaced.

``solver._rows`` keeps each leaf's V and W at every start as integers over
one positive denominator, and ``solver._best`` compares them crosswise and
tests feasibility on numerators; only the answer gets its ``Policy`` and
``Fraction``s. ``solver_oracle.fraction_rows`` and
``solver_oracle.fraction_best`` are the walk and the filter before that,
which built both at every leaf. Every ``solve`` and ``PolicyTable.solve``
must equal theirs at every state: with no slack, a zero, a negative and a
random slack, and a slack that leaves no row feasible; on models whose
values all tie, in constraint dimensions 0, 1 and 2, and on lazy variants
at alpha = k/1009 and k/(2**61 - 1). Every value must be a ``Fraction``.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_oracle
from cmdpkit import chains, model, solver
from cmdpkit.solver import PolicyTable, _rows, solve
from randmdp import examples, lazy_variant
from test_censor_oracle import MERSENNE_61, draw_model, draw_starts
from test_solver_oracle import assert_exact

STRATA = ["random", "fixed", "decomposable", "no-decision"]


def with_tied_values(rng: random.Random, mdp: model.Mdp) -> model.Mdp:
    """The model with one reward everywhere, so every policy has the same V."""
    reward = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return mdp._replace(
        rewards=tuple(tuple(reward for _ in acts) for acts in mdp.rewards)
    )


def slacks(rng: random.Random, rows: list, k: int, dim: int) -> list:
    """No slack, a zero, a negative and a random one, and one above every W[k]."""
    def draw(low: int, high: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(rng.randint(low, high), rng.randint(1, 4)) for _ in range(dim))

    above = tuple(max(row.W[k][i] for row in rows) + 1 for i in range(dim))
    return [None, (Fraction(0),) * dim, draw(-8, -1), draw(-8, 8), above]


@pytest.mark.parametrize("dim", [0, 1, 2])
@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 10**9),
    stratum=st.sampled_from(STRATA),
    lazy=st.sampled_from([None, 1009, MERSENNE_61]),
    tied=st.booleans(),
)
def test_solves_equal_the_fraction_route_at_every_state(dim, seed, stratum, lazy, tied):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if tied:
        mdp = with_tied_values(rng, mdp)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    table = PolicyTable(mdp, mdp.states)
    reference = list(solver_oracle.fraction_rows(mdp, list(range(mdp.num_states))))
    for k, y in enumerate(mdp.states):
        expected = solver_oracle.fraction_best(solver_oracle.fraction_rows(mdp, [k]), 0)[0]
        got = solve(mdp, y)
        assert got == expected
        assert_exact(got)
        if tied:
            assert len({row.V[k] for row in reference}) == 1
        for slack in slacks(rng, reference, k, dim):
            expected = solver_oracle.fraction_best(reference, k, slack)[0]
            got = table.solve(y, slack)
            assert got == expected
            assert_exact(got)
        if dim:
            assert got.status == "infeasible"


def test_tied_solves_keep_the_smallest_key():
    # Every policy has the same V, so the answer is the smallest feasible key.
    rng = random.Random(23)
    tied = 0
    for _ in range(30):
        mdp = with_tied_values(rng, draw_model(rng, "random", rng.randint(0, 2)))
        table = PolicyTable(mdp, mdp.states)
        reference = list(solver_oracle.fraction_rows(mdp, list(range(mdp.num_states))))
        for k, y in enumerate(mdp.states):
            feasible = sorted(row.key for row in reference if all(c >= 0 for c in row.W[k]))
            got = table.solve(y)
            assert got == solver_oracle.fraction_best(reference, k)[0]
            if feasible:
                assert got.policy == table.policy(feasible[0])
            tied += len(feasible) > 1
    assert tied >= 20


def test_the_walk_builds_no_policy_and_no_fraction():
    rng = random.Random(37)
    leaves = 0
    for _ in range(30):
        mdp = draw_model(rng, rng.choice(STRATA), rng.randint(0, 2))
        starts = draw_starts(rng, mdp)
        with mock.patch.object(solver, "Policy", side_effect=AssertionError("Policy")), \
                mock.patch.object(solver, "Fraction", side_effect=AssertionError("Fraction")), \
                mock.patch.object(chains, "Fraction", side_effect=AssertionError("Fraction")):
            rows = list(_rows(mdp, starts))
        leaves += len(rows)
        for row in rows:
            assert all(type(x) is int for values in row.values for x in values)
            assert all(len(values) == 2 + mdp.constraint_dim for values in row.values)
    assert leaves >= 60


def test_a_table_builds_each_rows_policy_once():
    rng = random.Random(41)
    for _ in range(20):
        mdp = draw_model(rng, "random", rng.randint(0, 2))
        table = PolicyTable(mdp, mdp.states)
        with mock.patch.object(solver, "_policy", wraps=solver._policy) as built:
            for _ in range(2):
                results = [table.solve(y) for y in mdp.states]
        keys = [call.args[1] for call in built.call_args_list]
        assert len(keys) == len(set(keys)) <= len(table.rows)
        assert {table.policy(key) for key in keys} == {
            r.policy for r in results if r.status == "optimal"
        }
