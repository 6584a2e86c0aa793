"""Every chain analysis on compiled successor rows against the dense reference.

The code under test reads ``mdp.successors`` through ``induced_chain``;
the reference in ``dense_oracle`` builds the dense matrix from
``mdp.kernel`` and scans it. Results must be equal, with every analytic
value a ``Fraction``.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from cmdpkit import chains
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import induced_chain
from randmdp import random_mdp, random_policy


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


@st.composite
def models_and_policies(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    mdp = random_mdp(rng, max_states=7, full_support=draw(st.booleans()))
    return mdp, random_policy(rng, mdp)


@settings(max_examples=120, deadline=None)
@given(models_and_policies())
def test_sparse_analyses_equal_dense(drawn):
    mdp, policy = drawn
    chain = induced_chain(mdp, policy)
    matrix = dense_oracle.dense_chain(mdp, policy)
    n = mdp.num_states

    decomposition = chains.decompose(chain)
    assert decomposition == dense_oracle.decompose(matrix)
    for cls in decomposition.recurrent_classes:
        pi = chains.stationary_distribution(chain, cls)
        assert pi == dense_oracle.stationary_distribution(matrix, cls)
        assert all_fractions(pi)

    absorption = chains.absorption_map(chain, decomposition)
    assert absorption == dense_oracle.absorption_probs(matrix)
    assert all(all_fractions(row) for row in absorption)

    for start in range(n):
        sweep = list(chains.forward_distributions(chain, start, n))
        assert sweep == list(dense_oracle.forward_distributions(matrix, start, n))
        assert all(all_fractions(d.values()) for d in sweep)

    assert chains.union_adjacency(mdp) == dense_oracle.union_adjacency(mdp)
    analysis = analyse_policy(mdp, policy)
    for s, x in enumerate(mdp.states):
        for p in (policy, None):
            assert chains.reachable_states(mdp, p, x) == (
                dense_oracle.reachable_states(mdp, p, x)
            )
        v, w = analysis.values_at(s)
        assert (v, w) == dense_oracle.values_at(mdp, policy, s)
        assert all_fractions((v, *w))
