"""The ``Fraction`` route of single-policy analysis.

``FractionAnalysis`` is the record ``evaluation.analyse_policy`` returned
before its values stayed integers: every state's absorption row as
``Fraction``s (``chains.absorption_map``), each class's gains as
``Fraction``s, and ``values_at`` mixing the two in ``Fraction`` sums.
``analyse_policy`` builds it over a policy's full chain, each class's
gains summed over its stationary vector (``class_solve``). Property tests
require ``evaluation.analyse_policy``, over the full chain and from every
start, to give equal values.
"""

from fractions import Fraction
from typing import NamedTuple

from cmdpkit import chains
from cmdpkit.evaluation import ClassGain
from cmdpkit.model import Chain, Mdp, Policy, induced_chain

ZERO = Fraction(0)


class FractionAnalysis(NamedTuple):
    """A policy's chain, decomposition, class gains and ``Fraction`` absorption rows.

    ``absorption[s][c]`` is the probability of being absorbed into
    ``decomposition.recurrent_classes[c]`` from state index s.
    """

    chain: Chain
    decomposition: chains.ChainDecomposition
    class_gains: tuple[ClassGain, ...]
    absorption: tuple[tuple[Fraction, ...], ...]

    def values_at(self, s: int) -> tuple[Fraction, tuple[Fraction, ...]]:
        """V and W from state index s: its absorption mix of the class gains."""
        v = ZERO
        w = [ZERO] * len(self.class_gains[0].constraint_gain)
        for p, gain in zip(self.absorption[s], self.class_gains):
            if p:
                v += p * gain.reward_gain
                w = [total + p * g for total, g in zip(w, gain.constraint_gain)]
        return v, tuple(w)


def class_solve(
    mdp: Mdp, chain: Chain, cls: tuple[int, ...], taken: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], ClassGain]:
    """Stationary vector of a recurrent class and the gains under it."""
    pi = chains.stationary_distribution(chain, cls)
    reward = ZERO
    constraint = [ZERO] * mdp.constraint_dim
    for p, s, j in zip(pi, cls, taken):
        reward += p * mdp.rewards[s][j]
        for k, c in enumerate(mdp.constraints[s][j]):
            constraint[k] += p * c
    return pi, ClassGain(
        states=tuple(mdp.states[s] for s in cls),
        reward_gain=reward,
        constraint_gain=tuple(constraint),
    )


def taken(mdp: Mdp, policy: Policy, cls: tuple[int, ...]) -> tuple[int, ...]:
    """The policy's action index at each member of a class."""
    return tuple(mdp.actions[s].index(policy.action_for(mdp.states[s])) for s in cls)


def analyse_policy(mdp: Mdp, policy: Policy) -> FractionAnalysis:
    """The full-chain analysis of a policy, every value a ``Fraction``."""
    chain = induced_chain(mdp, policy)
    decomposition = chains.decompose(chain)
    return FractionAnalysis(
        chain=chain,
        decomposition=decomposition,
        class_gains=tuple(
            class_solve(mdp, chain, cls, taken(mdp, policy, cls))[1]
            for cls in decomposition.recurrent_classes
        ),
        absorption=chains.absorption_map(chain, decomposition),
    )
