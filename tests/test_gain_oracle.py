"""``chains.ratio_gain`` and ``solver_oracle.mix`` against the ``Fraction`` sums they replaced.

``solver_oracle._ratio_gain`` and ``solver_oracle._mix`` are the solver's
gain and mixing steps on the censored chain (read as ``Fraction`` rows,
``solver_oracle.fraction_view``), and
``solver_oracle._class_solve`` the full chain's class gains, each summing
``Fraction`` products. The integer ratio gain must equal them at every
recurrent class of a censored chain (decision-state classes and fixed
classes) and of a full induced chain, and the one mixing step at every
start state, with every value a ``Fraction``.

Each model is also compared with its lazy variant at alpha = k/1009 or
k/(2**61 - 1): P' - I = (1 - alpha)(P - I) keeps every class and gain, while
the excursion totals and the stationary weights change.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solver_oracle
from cmdpkit import chains, evaluation
from cmdpkit.model import induced_chain
from randmdp import lazy_variant, random_policy
from test_censor_oracle import MERSENNE_61, draw_model

ONE = Fraction(1)


def assert_exact(gain: chains.Gain, dim: int) -> None:
    reward, constraint = gain
    assert type(reward) is Fraction
    assert len(constraint) == dim
    assert all(type(c) is Fraction for c in constraint)


def censored_gains(rng: random.Random, mdp) -> list[chains.Gain]:
    """Every class gain of one random policy's censored chain, checked on the way."""
    dim = mdp.constraint_dim
    censored = solver_oracle.fraction_view(mdp)
    legacy = solver_oracle.fraction_excursions(censored)
    decision = len(censored.decision)
    taken = [rng.randrange(len(mdp.actions[s])) for s in censored.decision]
    embedded = tuple(censored.rows[k][a] for k, a in enumerate(taken)) + censored.fixed_rows
    decomposition = chains.decompose(embedded)
    first = tuple(rows[0] for rows in mdp.successors)
    gains = []
    for cls in decomposition.recurrent_classes:
        if cls[0] >= decision:
            fixed = censored.fixed[cls[0] - decision]
            gain = censored.fixed_gains[cls[0] - decision]
            _, expected = solver_oracle._class_solve(mdp, first, fixed, (0,) * len(fixed))
            assert gain == (expected.reward_gain, expected.constraint_gain)
        else:
            actions = tuple(taken[k] for k in cls)
            gain = chains.ratio_gain(
                chains.stationary_distribution(embedded, cls),
                [censored.excursions[k][a] for k, a in zip(cls, actions)],
            )
            assert gain == solver_oracle._ratio_gain(legacy, embedded, cls, actions, dim)
        assert_exact(gain, dim)
        gains.append(gain)
    absorption = chains.absorption_map(embedded, decomposition)
    for entry in censored.entry:
        value = solver_oracle.mix(entry, absorption, gains)
        assert value == solver_oracle._mix(entry, absorption, gains, dim)
        assert_exact(value, dim)
    return gains


def full_chain_gains(mdp, policy) -> list[chains.Gain]:
    """Every class gain of a policy's full chain, checked on the way."""
    dim = mdp.constraint_dim
    chain = induced_chain(mdp, policy)
    analysis = evaluation.analyse_policy(mdp, policy)
    gains = []
    for cls, pi, got in zip(
        analysis.decomposition.recurrent_classes, analysis.stationary, analysis.class_gains
    ):
        taken = tuple(mdp.actions[s].index(policy.action_for(mdp.states[s])) for s in cls)
        gain = chains.ratio_gain(pi, [chains.step_totals(mdp, s, a) for s, a in zip(cls, taken)])
        _, expected = solver_oracle._class_solve(mdp, chain, cls, taken)
        assert gain == (expected.reward_gain, expected.constraint_gain)
        assert gain == (got.reward_gain, got.constraint_gain)
        assert_exact(gain, dim)
        gains.append(gain)
    for s in range(mdp.num_states):
        value = analysis.values_at(s)
        assert value == solver_oracle._mix(((s, ONE),), analysis.absorption, gains, dim)
        assert_exact(value, dim)
    return gains


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([1009, MERSENNE_61]))
def test_ratio_gain_equals_the_fraction_sums(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    variant = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    state = rng.getstate()
    base = censored_gains(rng, mdp)
    rng.setstate(state)
    assert censored_gains(rng, variant) == base
    policy = random_policy(rng, mdp)
    assert full_chain_gains(variant, policy) == full_chain_gains(mdp, policy)


def test_ratio_gain_divides_by_the_steps():
    # Weights 1/3 and 2/3, totals (1, -1, 2) and (3/2, 2, 1/2) over
    # different denominators: sum(pi T) = 2/3 + 1/3 = 1, while
    # sum(pi R) = 1/3 + 1 = 4/3 and sum(pi C) = -1/3 + 4/3 = 1; halving
    # every T doubles both gains.
    pi = (Fraction(1, 3), Fraction(2, 3))
    assert chains.ratio_gain(pi, [([1, -1, 2], 1), ([3, 4, 1], 2)]) == (Fraction(4, 3), (ONE,))
    assert chains.ratio_gain(pi, [([2, -2, 2], 2), ([6, 8, 1], 4)]) == (Fraction(8, 3), (2 * ONE,))
