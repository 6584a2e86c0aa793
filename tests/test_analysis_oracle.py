"""The integer single-policy analysis against the ``Fraction`` route it replaced.

``evaluation.analyse_policy`` keeps its values as integers: each class's
``chains.class_sums`` and every state's absorption numerators over one
denominator. ``values_at`` mixes them with the solver's leaf formula and
``absorption_at`` builds one state's ``Fraction`` row.
``analysis_oracle.analyse_policy`` is the route before: ``Fraction`` class
gains over stationary vectors, ``chains.absorption_map`` rows and
``Fraction`` sums. Over the full chain, V, W and the absorption row at
every state must equal the oracle's, every value a ``Fraction``. From each
start x, the analysis of x's reach alone must give the same V and W at x,
the gains of the classes x is absorbed into with positive probability, in
class order, their absorption from x, and x's reach, which must equal
``chains.reachable_states``. Every ``tests/randmdp`` stratum is drawn at
constraint dimensions 0, 1 and 2, each model optionally replaced by its
lazy variant at k/1009 or k/(2**61 - 1).

Only reports build ``Fraction``s: adding states that nothing enters, each
leading into the model, leaves the number of ``Fraction``s ``evaluate``
and ``controllable_classes`` build unchanged.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import analysis_oracle
from cmdpkit import chains, evaluation, instances, samplepath
from cmdpkit.model import Mdp, Policy
from randmdp import examples, lazy_variant, random_decomposable, random_policy
from test_censor_oracle import MERSENNE_61, draw_model, recording_fractions
from test_gain_oracle import assert_exact


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable", "no-decision"])
@settings(max_examples=examples(20), deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([None, 1009, MERSENNE_61]))
def test_analysis_equals_the_fraction_route(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy - 1), lazy))
    policy = random_policy(rng, mdp)
    oracle = analysis_oracle.analyse_policy(mdp, policy)
    analysis = evaluation.analyse_policy(mdp, policy)
    assert analysis.decomposition == oracle.decomposition
    assert analysis.class_gains == oracle.class_gains
    assert analysis.reach == list(range(mdp.num_states))
    for s in range(mdp.num_states):
        value = analysis.values_at(s)
        assert value == oracle.values_at(s)
        assert_exact(value, dim)
        row = analysis.absorption_at(s)
        assert row == oracle.absorption[s]
        assert all(type(p) is Fraction for p in row)

    recurrent = {s for cls in oracle.decomposition.recurrent_classes for s in cls}
    transient_starts = 0
    for s, x in enumerate(mdp.states):
        at = evaluation.analyse_policy(mdp, policy, x)
        value = at.values_at(s)
        assert value == oracle.values_at(s)
        assert_exact(value, dim)
        reached = [c for c, p in enumerate(oracle.absorption[s]) if p > 0]
        assert at.class_gains == tuple(oracle.class_gains[c] for c in reached)
        assert at.absorption_at(s) == tuple(oracle.absorption[s][c] for c in reached)
        assert tuple(mdp.states[i] for i in at.reach) == chains.reachable_states(mdp, policy, x)
        transient_starts += s not in recurrent
    if stratum == "decomposable":
        assert transient_starts


def with_unentered_states(mdp: Mdp, count: int) -> Mdp:
    """The model with ``count`` single-action states appended that no state enters.

    The first leads to state 0, each later one halfway to state 0 and to
    the one before it, so each has a transient absorption row of its own.
    """
    n = mdp.num_states
    zero = (Fraction(0),) * mdp.constraint_dim
    rows = [((0, Fraction(1)),)] + [
        ((0, Fraction(1, 2)), (n + k - 1, Fraction(1, 2))) for k in range(1, count)
    ]
    return mdp._replace(
        states=mdp.states + tuple(f"unentered{k}" for k in range(count)),
        actions=mdp.actions + (("a",),) * count,
        successors=mdp.successors + tuple((row,) for row in rows),
        rewards=mdp.rewards + ((Fraction(0),),) * count,
        constraints=mdp.constraints + ((zero,),) * count,
    )


def fractions_built(run) -> int:
    with recording_fractions() as built:
        run()
    return len(built)


def test_unentered_states_add_no_fraction():
    rng = random.Random(41)
    models = [instances.haviv(), instances.twochain()]
    models += [random_decomposable(rng, constraint_dims=(rng.randint(0, 2),)) for _ in range(10)]
    for mdp in models:
        larger = with_unentered_states(mdp, 5)
        policy = random_policy(rng, mdp)
        larger_policy = Policy.from_mapping(larger, dict(policy.choice))
        for x in mdp.states:
            assert fractions_built(lambda: evaluation.evaluate(mdp, policy, x)) == (
                fractions_built(lambda: evaluation.evaluate(larger, larger_policy, x))
            )
            assert evaluation.evaluate(mdp, policy, x) == (
                evaluation.evaluate(larger, larger_policy, x)
            )
            assert fractions_built(lambda: samplepath.controllable_classes(mdp, x)) == (
                fractions_built(lambda: samplepath.controllable_classes(larger, x))
            )
