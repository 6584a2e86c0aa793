"""Class gains from integer visit counts against the ``Fraction`` routes they replaced.

``chains.class_visits`` gives a recurrent class's expected visits per
excursion from its first member as integers over one scale, and
``chains.class_sums`` weighs the members' totals by them; a gain is the
ratio of a sum to the step sum. The references build the stationary
vector as ``Fraction``s: ``gain_oracle.ratio_gain`` takes it apart again
over one lcm, as the package once did, and ``solver_oracle._ratio_gain``,
``solver_oracle._mix`` and ``analysis_oracle.class_solve`` sum ``Fraction``
products. The gains must be equal at every recurrent class of a censored
chain (decision-state classes and fixed classes) and of a full induced
chain, and the one mixing step at every start state, with every value a
``Fraction``. The visits normalised, ``chains.stationary_distribution``,
must equal ``dense_oracle``'s dense solve.

Each model is also compared with its lazy variant at alpha = k/1009 or
k/(2**61 - 1): P' - I = (1 - alpha)(P - I) keeps every class and gain, while
the excursion totals and the visit counts change.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analysis_oracle
import dense_oracle
import gain_oracle
import solver_oracle
from cmdpkit import chains, evaluation
from cmdpkit.model import induced_chain
from randmdp import lazy_variant, random_decomposable, random_policy
from test_censor_oracle import MERSENNE_61, draw_model

ONE = Fraction(1)


def assert_exact(gain: chains.Gain, dim: int) -> None:
    reward, constraint = gain
    assert type(reward) is Fraction
    assert len(constraint) == dim
    assert all(type(c) is Fraction for c in constraint)


def ratios(sums: list[int]) -> chains.Gain:
    """The gains of a class's ``[reward, *constraint, steps]`` sums."""
    reward, *constraint, steps = sums
    return Fraction(reward, steps), tuple(Fraction(c, steps) for c in constraint)


def visit_gain(chain, cls, totals) -> chains.Gain:
    """A class's gains the package's way: integer visit-weighted sums over the steps."""
    visits = chains.class_visits(chain, cls)
    assert all(type(v) is int and v > 0 for v in visits)
    return ratios(chains.class_sums(visits, totals))


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
            _, expected = analysis_oracle.class_solve(mdp, first, fixed, (0,) * len(fixed))
            assert gain == (expected.reward_gain, expected.constraint_gain)
            assert gain == gain_oracle.ratio_gain(
                chains.stationary_distribution(first, fixed),
                [chains.step_totals(mdp, s, 0) for s in fixed],
            )
        else:
            actions = tuple(taken[k] for k in cls)
            totals = [censored.excursions[k][a] for k, a in zip(cls, actions)]
            gain = visit_gain(embedded, cls, totals)
            assert gain == gain_oracle.ratio_gain(
                chains.stationary_distribution(embedded, cls), totals
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
    matrix = dense_oracle.dense_chain(mdp, policy)
    analysis = evaluation.analyse_policy(mdp, policy)
    gains = []
    for cls, got in zip(analysis.decomposition.recurrent_classes, analysis.class_gains):
        taken = tuple(mdp.actions[s].index(policy.action_for(mdp.states[s])) for s in cls)
        totals = [chains.step_totals(mdp, s, a) for s, a in zip(cls, taken)]
        pi = chains.stationary_distribution(chain, cls)
        assert pi == dense_oracle.stationary_distribution(matrix, cls)
        gain = (got.reward_gain, got.constraint_gain)
        assert gain == visit_gain(chain, cls, totals) == gain_oracle.ratio_gain(pi, totals)
        _, expected = analysis_oracle.class_solve(mdp, chain, cls, taken)
        assert gain == (expected.reward_gain, expected.constraint_gain)
        assert_exact(gain, dim)
        gains.append(gain)
    for s in range(mdp.num_states):
        value = analysis.values_at(s)
        absorption = {s: analysis.absorption_at(s)}
        assert value == solver_oracle._mix(((s, ONE),), absorption, gains, dim)
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


def draw_stratum_model(rng: random.Random, stratum: str, dim: int):
    """A model of a ``draw_model`` stratum, or of long periodic cycles."""
    if stratum == "cycles":
        return random_decomposable(rng, max_classes=4, max_class_size=12, constraint_dims=(dim,))
    return draw_model(rng, stratum, dim)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    stratum=st.sampled_from(["random", "fixed", "decomposable", "no-decision", "cycles"]),
    dim=st.sampled_from([0, 1, 2]),
    lazy=st.sampled_from([None, 1009, MERSENNE_61]),
)
def test_visit_gains_equal_the_stationary_fraction_gains(seed, stratum, dim, lazy):
    # The integer visit route against the Fraction weights, on full chains
    # (``analyse_policy``) and on the censor's fixed classes.
    rng = random.Random(seed)
    mdp = draw_stratum_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy - 1), lazy))
    full_chain_gains(mdp, random_policy(rng, mdp))
    censored = chains.censor(mdp, range(mdp.num_states))
    first = tuple(rows[0] for rows in mdp.successors)
    for fixed, sums in zip(censored.fixed, censored.fixed_gains):
        assert all(type(x) is int for x in sums) and sums[-1] > 0
        assert ratios(sums) == gain_oracle.ratio_gain(
            chains.stationary_distribution(first, fixed),
            [chains.step_totals(mdp, s, 0) for s in fixed],
        )


def test_ratio_gain_divides_by_the_steps():
    # Visits 1 and 2, totals (1, -1, 2) and (3/2, 2, 1/2) over different
    # denominators: sum(v T) = 2 + 1 = 3, while sum(v R) = 1 + 3 = 4 and
    # sum(v C) = -1 + 4 = 3; halving every T doubles both gains. The
    # Fraction weights 1/3 and 2/3 give the same gains.
    pi = (Fraction(1, 3), Fraction(2, 3))
    for totals, gain in (
        ([([1, -1, 2], 1), ([3, 4, 1], 2)], (Fraction(4, 3), (ONE,))),
        ([([2, -2, 2], 2), ([6, 8, 1], 4)], (Fraction(8, 3), (2 * ONE,))),
    ):
        assert ratios(chains.class_sums([1, 2], totals)) == gain
        assert gain_oracle.ratio_gain(pi, totals) == gain
