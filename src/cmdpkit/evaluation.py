"""Exact evaluation of the long-run average objective and constraints.

For a stationary policy on a finite model the Cesaro limit of the running
averages exists almost surely and equals the gain of the recurrent class
the chain is absorbed into. Evaluation therefore reduces to per-class
stationary averages mixed by absorption probabilities; that reduction is
exercised as a testable identity rather than assumed silently. Chains are
the sparse successor rows of ``model.induced_chain``.

``analyse_policy`` analyses one policy's full induced chain; the
questions that need every class or many states (evaluate, simulate, the
audit's residual slack) read it. Certificate search and check and the
sample-path check ask only about one start x, and read ``_at_start``: the
classes x reaches and W(x), solved over x's reach alone, with x's
absorption kept in integers. The solver's enumeration does neither: it
eliminates the decision states of the censored chain (``chains.censor``)
one at a time along its walk, and reads a class's gain as the ratio of the
reward its eliminated row collects to its steps. Here a class's gains are
``chains.gain`` of ``chains.class_sums`` of its members' one-step totals,
weighed by the class's integer visit counts (``chains.class_visits``): the
ratios to the step sum, which are the stationary averages, with no
stationary vector built.
A chain is decomposed once, the absorption solve reading the
decomposition's transient components.
"""

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

    ``chain`` holds the model's shared successor rows; ``class_gains[c]``
    holds the reward and constraint averages of
    ``decomposition.recurrent_classes[c]``; ``absorption[s][c]`` is the
    probability of being absorbed into class c from state index s. A
    class's invariant vector is ``chains.stationary_distribution(chain,
    cls)``.
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


def analyse_policy(mdp: Mdp, policy: Policy) -> PolicyAnalysis:
    """Induced chain, decomposition, class gains and absorption of a policy.

    Each recurrent class gets one visit-count solve, shared by the reward
    and the constraint gains. Nothing is cached: callers that need several
    start states read them all from the one analysis.
    """
    chain = induced_chain(mdp, policy)
    decomposition = chains.decompose(chain)
    return PolicyAnalysis(
        chain=chain,
        decomposition=decomposition,
        class_gains=tuple(
            _class_gain(mdp, cls, _class_sums(mdp, chain, cls, policy))
            for cls in decomposition.recurrent_classes
        ),
        absorption=chains.absorption_map(chain, decomposition),
    )


def _class_sums(mdp: Mdp, chain: Chain, cls: tuple[int, ...], policy: Policy) -> list[int]:
    """A recurrent class's ``[reward, *constraint, steps]`` sums, weighed by its visits."""
    totals = [
        chains.step_totals(mdp, s, mdp.actions[s].index(policy.action_for(mdp.states[s])))
        for s in cls
    ]
    return chains.class_sums(chains.class_visits(chain, cls), totals)


def _class_gain(mdp: Mdp, cls: tuple[int, ...], sums: list[int]) -> ClassGain:
    """Reward and constraint gains of a recurrent class: its sums over the steps."""
    return ClassGain(tuple(mdp.states[s] for s in cls), *chains.gain(sums))


def _at_start(
    mdp: Mdp, policy: Policy, x: str
) -> tuple[tuple[Fraction, ...], tuple[ClassGain, ...], tuple[str, ...]]:
    """W(x), the gains of the classes x reaches in class order, and x's reach in model order.

    Only x's reach is analysed: one decomposition searched from x
    (``chains.closed_classes`` with ``sources``), whose classes are the
    ones x is absorbed into with positive probability, and one integer
    ``chains._solve_along_dag`` over x's transient components, which gives
    x's absorption numerators. W is ``chains.gain`` of ``chains.class_sums``
    of the class sums weighed by those numerators, the solver's leaf
    formula. Equal to ``analyse_policy``'s ``values_at(x)[1]``, its classes
    with positive absorption from x and ``chains.reachable_states``.
    """
    chain = induced_chain(mdp, policy)
    start = mdp.state_index(x)
    decomposition = chains.closed_classes(chains.support_adjacency(chain), (start,))
    classes = decomposition.recurrent_classes
    sums = [_class_sums(mdp, chain, cls, policy) for cls in classes]
    absorption, _ = chains._solve_along_dag(
        chain, classes, decomposition.transient_components, len(classes), {}
    )[start]
    _, w = chains.gain(chains.class_sums(absorption, [(c, c[-1]) for c in sums]))
    reach = sorted(decomposition.transient_states + sum(classes, ()))
    return (
        w,
        tuple(_class_gain(mdp, cls, c) for cls, c in zip(classes, sums)),
        tuple(mdp.states[s] for s in reach),
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
