"""Exact evaluation of the long-run average objective and constraints.

For a stationary policy on a finite model the Cesaro limit of the running
averages exists almost surely and equals the gain of the recurrent class
the chain is absorbed into. Evaluation therefore reduces to per-class
stationary averages mixed by absorption probabilities; that reduction is
exercised as a testable identity rather than assumed silently. Chains are
the sparse successor rows of ``model.induced_chain``.

``analyse_policy`` analyses one policy's full induced chain; the
single-policy questions (evaluate, certify, the sample-path checks, the
audit's entries) read it. The solver's enumeration does not: it
eliminates the decision states of the censored chain (``chains.censor``)
one at a time along its walk, and reads a class's gain as the ratio of the
reward its eliminated row collects to its steps. Here a class's gains are
``chains.ratio_gain`` over its members' one-step totals, the stationary
averages, and a chain is decomposed once, the absorption solve reading the
decomposition's transient components.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from cmdpkit import chains
from cmdpkit.model import Chain, Mdp, Policy, induced_chain

ZERO = Fraction(0)


class ClassGain(NamedTuple):
    """Stationary averages of reward and constraint over one recurrent class."""

    states: tuple[str, ...]
    reward_gain: Fraction
    constraint_gain: tuple[Fraction, ...]


class EvaluationReport(NamedTuple):
    """V and W at a start state, with the per-class gains behind them.

    Identity: V = sum over classes of absorption * reward_gain, and the
    same componentwise for W.
    """

    V: Fraction
    W: tuple[Fraction, ...]
    class_gains: tuple[ClassGain, ...]
    absorption: tuple[Fraction, ...]


class PolicyAnalysis(NamedTuple):
    """A policy's induced chain and everything its V and W are mixed from.

    ``chain`` holds the model's shared successor rows; ``stationary[c]`` is
    the invariant vector of ``decomposition.recurrent_classes[c]`` (aligned
    with its members) and ``class_gains[c]`` the reward and constraint
    averages under it; ``absorption[s][c]`` is the probability of being
    absorbed into class c from state index s.
    """

    chain: Chain
    decomposition: chains.ChainDecomposition
    stationary: tuple[tuple[Fraction, ...], ...]
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


def analyse_policy(mdp: Mdp, policy: Policy) -> PolicyAnalysis:
    """Induced chain, decomposition, class gains and absorption of a policy.

    Each recurrent class gets one stationary vector, shared by the reward
    and the constraint gains. Nothing is cached: callers that need several
    start states read them all from the one analysis.
    """
    chain = induced_chain(mdp, policy)
    decomposition = chains.decompose(chain)
    solves = [
        _class_solve(mdp, chain, cls, tuple(
            mdp.actions[s].index(policy.action_for(mdp.states[s])) for s in cls
        ))
        for cls in decomposition.recurrent_classes
    ]
    return PolicyAnalysis(
        chain=chain,
        decomposition=decomposition,
        stationary=tuple(pi for pi, _ in solves),
        class_gains=tuple(gain for _, gain in solves),
        absorption=chains.absorption_map(chain, decomposition),
    )


def _class_solve(
    mdp: Mdp, chain: Chain, cls: tuple[int, ...], taken: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], ClassGain]:
    """Stationary vector of a recurrent class and the gains under it."""
    pi = chains.stationary_distribution(chain, cls)
    reward, constraint = chains.ratio_gain(
        pi, [chains.step_totals(mdp, s, j) for s, j in zip(cls, taken)]
    )
    return pi, ClassGain(
        states=tuple(mdp.states[s] for s in cls),
        reward_gain=reward,
        constraint_gain=constraint,
    )


def evaluate(mdp: Mdp, policy: Policy, x: str) -> EvaluationReport:
    """Exact V and W of a policy from start state x."""
    analysis = analyse_policy(mdp, policy)
    start = mdp.state_index(x)
    v, w = analysis.values_at(start)
    return EvaluationReport(
        V=v, W=w, class_gains=analysis.class_gains,
        absorption=analysis.absorption[start],
    )
