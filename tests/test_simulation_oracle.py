"""The walk behind ``simulate`` against the per-step reference.

``simulation_oracle`` visits every step and takes one ``getrandbits(64)``
call per stochastic transition. The walk under test switches to a closed
form once it enters a recurrent class whose members each have one
successor, and goes round that cycle; a deterministic stretch before it
is walked step by step. Both ``simulation_report``'s report and
``simulate``'s trajectory must equal the reference's. Step counts are
drawn around the stretch, entry and cycle lengths of the drawn model,
where the walk switches from one form to the other.
"""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import analysis_oracle
import simulation_oracle as oracle
from cmdpkit import instances, samplepath
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import induced_chain
from cmdpkit.samplepath import simulate, simulation_report
from cmdpkit.solver import enumerate_policies
from randmdp import examples, lazy_variant, random_decomposable, random_mdp, random_policy


def boundary_steps(mdp, policy):
    """Step counts at which some walk on this chain changes its move.

    From each state, the states with one successor are followed until one
    draws or one repeats. The count of states passed (the stretch, or the
    tail and one lap of the cycle) gives counts one below, at and one above
    it. A repeat closes a cycle that draws nothing, a recurrent class; the
    steps until the walk enters it (the tail) give counts one below, at and
    one above them too, and each cycle gives its first three multiples and
    those plus the stretch.
    """
    chain = induced_chain(mdp, policy)
    steps = {1, 2}
    for s in range(mdp.num_states):
        position = {}
        while len(chain[s]) == 1 and s not in position:
            position[s] = len(position)
            s = chain[s][0][0]
        stretch = len(position)
        steps.update(stretch + d for d in (-1, 0, 1))
        if s in position:
            tail = position[s]
            steps.update(tail + d for d in (-1, 0, 1))
            lap = stretch - tail
            steps.update(k * lap + e for k in (1, 2, 3) for e in (0, stretch))
    return sorted(n for n in steps if n >= 1)


@st.composite
def walks(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    family = draw(st.sampled_from(["random", "decomposable", "lazy"]))
    if family == "decomposable":
        mdp = random_decomposable(rng)
    else:
        mdp = random_mdp(rng, max_states=7)
    if family == "lazy":
        mdp = lazy_variant(mdp, Fraction(draw(st.integers(1, 1008)), 1009))
    policy = random_policy(rng, mdp)
    start = draw(st.sampled_from(mdp.states))
    steps = draw(st.one_of(
        st.sampled_from(boundary_steps(mdp, policy)), st.integers(1, 3000)
    ))
    seed = draw(st.integers(0, 2**64))
    return mdp, policy, start, steps, seed


@settings(max_examples=examples(300), deadline=None)
@given(walk=walks())
def test_walk_equals_the_per_step_walk(walk):
    expected_trajectory, expected_report = oracle.simulate(*walk)
    assert simulation_report(*walk) == expected_report
    assert simulate(*walk) == (expected_trajectory, expected_report)


def test_every_bundled_instance_policy_and_start_equals_the_per_step_walk():
    for name, builder in instances.BUNDLED.items():
        mdp = builder()
        for policy in enumerate_policies(mdp):
            steps = boundary_steps(mdp, policy)
            # each walk analyses this one policy its own way; solve each once for all its walks
            analysis = analyse_policy(mdp, policy)
            reference = analysis_oracle.analyse_policy(mdp, policy)
            with mock.patch.object(samplepath, "analyse_policy", return_value=analysis), \
                    mock.patch.object(oracle, "analyse_policy", return_value=reference):
                for start in mdp.states:
                    for n in steps:
                        walk = (mdp, policy, start, n, n)
                        expected = oracle.simulate(*walk)
                        assert simulate(*walk) == expected, (name, policy, start, n)
                        assert simulation_report(*walk) == expected[1]
