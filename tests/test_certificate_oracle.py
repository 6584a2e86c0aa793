"""The certificate search's Bellman rows against the Fraction builder they replaced.

``certificate._bellman_rows`` reads each coefficient off the model;
``certificate_oracle.bellman_rows`` sums them into ``Fraction`` maps. The
two constraint lists must be equal, and every coefficient and right-hand
side must be a ``Fraction``, so the simplex takes the same pivots on both.
The strata: random models at their solver optimum, their lazy variants
(a self-loop on every row) at k/1009 and k/(2^61 - 1), rows whose
self-loop has mass 1, and every bundled instance at every start state and
policy.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_oracle
from cmdpkit import certificate
from cmdpkit.chains import reachable_states
from cmdpkit.model import Policy, load_instance
from cmdpkit.solver import solve
from randmdp import lazy_variant, random_mdp

F = Fraction


def assert_rows_equal_oracle(mdp, policy, x, free_mu):
    closure = reachable_states(mdp, None, x)
    reached = set(reachable_states(mdp, policy, x))
    rows = certificate._bellman_rows(mdp, policy, closure, reached, free_mu)
    assert rows == certificate_oracle.bellman_rows(mdp, policy, closure, reached, free_mu)
    for row in rows:
        assert type(row.rhs) is Fraction
        assert all(type(value) is Fraction for _, value in row.coeffs)


def absorbing(mdp, picks):
    """The model with the rows of ``picks`` ((state index, action index) pairs)
    replaced by a self-loop of mass 1."""
    successors = [list(rows) for rows in mdp.successors]
    for i, j in picks:
        successors[i][j] = ((i, F(1)),)
    return mdp._replace(successors=tuple(map(tuple, successors)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(0, 2),
    mix=st.sampled_from([None, 1009, 2**61 - 1]),
    k=st.integers(1, 2**61 - 2),
    data=st.data(),
)
def test_rows_equal_oracle_on_random_models_at_their_optimum(seed, dim, mix, k, data):
    rng = random.Random(seed)
    mdp = random_mdp(rng, constraint_dims=(dim,))
    if data.draw(st.booleans()):
        picks = [(i, j) for i, acts in enumerate(mdp.actions) for j in range(len(acts))]
        mdp = absorbing(mdp, rng.sample(picks, rng.randint(1, len(picks))))
    if mix is not None:
        mdp = lazy_variant(mdp, F(k % (mix - 1) + 1, mix))
    result = solve(mdp)
    policy = result.policy if result.status == "optimal" else Policy(choice=tuple(
        (state, mdp.actions[i][0]) for i, state in enumerate(mdp.states)
    ))
    free_mu = sorted(data.draw(st.sets(st.integers(0, dim - 1))) if dim else [])
    assert_rows_equal_oracle(mdp, policy, mdp.initial_state, free_mu)


def test_rows_equal_oracle_on_every_bundled_instance_state_and_policy(instances_dir):
    for path in sorted(instances_dir.glob("*.json")):
        mdp = load_instance(str(path))
        free_mus = [
            list(c) for r in range(mdp.constraint_dim + 1)
            for c in itertools.combinations(range(mdp.constraint_dim), r)
        ]
        for actions in itertools.product(*mdp.actions):
            policy = Policy(choice=tuple(zip(mdp.states, actions)))
            for x in mdp.states:
                for free_mu in free_mus:
                    assert_rows_equal_oracle(mdp, policy, x, free_mu)
