"""Exact evaluation of the long-run average objective and constraints.

For a stationary policy on a finite model the Cesaro limit of the running
averages exists almost surely and equals the gain of the recurrent class
the chain is absorbed into. Evaluation therefore reduces to per-class
stationary averages mixed by absorption probabilities; that reduction is
exercised as a testable identity rather than assumed silently. Chains are
the sparse successor rows of ``model.induced_chain``.

``analyse_policy`` is the one single-policy analysis. Given a start x it
covers x's reach alone: one decomposition searched from x, whose classes
are the ones x is absorbed into with positive probability; certificate
search and check, the sample-path check and the residual slack ask only
that. Without x it covers every state, for the reports that print every
class (evaluate, simulate). Its values stay integers: a class's
``chains.class_sums`` of its members' one-step totals, weighed by the
class's integer visit counts (``chains.class_visits``), and every state's
absorption numerators from one integer DAG solve over the transient
components (``chains._solve_along_dag``). V and W at a state are
``chains.gain`` of the class sums mixed by its absorption numerators, the
formula the solver's leaves use; only reports build ``Fraction``s. The
solver's enumeration analyses no policy: it eliminates the decision
states of the censored chain (``chains.censor``) one at a time along its
walk, and reads a class's gain as the ratio of the reward its eliminated
row collects to its steps. A chain is decomposed once, the absorption
solve reading the decomposition's transient components.
"""

from fractions import Fraction
from typing import NamedTuple

from cmdpkit import chains
from cmdpkit.model import Chain, Mdp, Policy, induced_chain


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

    ``chain`` holds the model's shared successor rows; ``decomposition``
    covers the states the analysis covers (``reach``): x's reach, or every
    state. ``class_sums[c]`` are the integer ``[reward, *constraint,
    steps]`` sums of ``decomposition.recurrent_classes[c]`` and
    ``class_gains[c]`` their gains. ``absorption[s]`` is state index s's
    ``(numerators, denominator)``: numerators[c] / denominator is the
    probability of being absorbed into class c; a state outside the reach
    has no numerators. A class's invariant vector is
    ``chains.stationary_distribution(chain, cls)``.
    """

    chain: Chain
    decomposition: chains.ChainDecomposition
    class_sums: tuple[tuple[int, ...], ...]
    class_gains: tuple[ClassGain, ...]
    absorption: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def reach(self) -> list[int]:
        """The state indices the analysis covers, ascending."""
        decomposition = self.decomposition
        return sorted(decomposition.transient_states + sum(decomposition.recurrent_classes, ()))

    def values_at(self, s: int) -> tuple[Fraction, tuple[Fraction, ...]]:
        """V and W from state index s in the reach: the class sums mixed by its absorption."""
        per_step = [(sums, sums[-1]) for sums in self.class_sums]
        return chains.gain(chains.class_sums(self.absorption[s][0], per_step))

    def absorption_at(self, s: int) -> tuple[Fraction, ...]:
        """Absorption probabilities into each class from state index s in the reach."""
        numerators, denominator = self.absorption[s]
        return tuple(Fraction(h, denominator) for h in numerators)


def analyse_policy(mdp: Mdp, policy: Policy, x: str | None = None) -> PolicyAnalysis:
    """Induced chain, decomposition, class sums and gains and absorption of a policy.

    With x only x's reach is analysed: the decomposition is searched from
    x, and neither classes nor transient states outside the reach are
    solved. Each recurrent class gets one visit-count solve, shared by the
    reward and the constraint gains, and one integer DAG solve gives every
    transient state's absorption. Nothing is cached: callers that need
    several start states read them all from the one analysis.
    """
    chain = induced_chain(mdp, policy)
    decomposition = chains.decompose(chain, None if x is None else (mdp.state_index(x),))
    classes = decomposition.recurrent_classes
    sums = tuple(tuple(_class_sums(mdp, chain, cls, policy)) for cls in classes)
    solved = chains._solve_along_dag(
        chain, classes, decomposition.transient_components, len(classes), {}
    )
    return PolicyAnalysis(
        chain=chain,
        decomposition=decomposition,
        class_sums=sums,
        class_gains=tuple(
            ClassGain(tuple(mdp.states[s] for s in cls), *chains.gain(c))
            for cls, c in zip(classes, sums)
        ),
        absorption=tuple((tuple(numerators), d) for numerators, d in solved),
    )


def _class_sums(mdp: Mdp, chain: Chain, cls: tuple[int, ...], policy: Policy) -> list[int]:
    """A recurrent class's ``[reward, *constraint, steps]`` sums, weighed by its visits."""
    totals = [
        chains.step_totals(mdp, s, mdp.actions[s].index(policy.action_for(mdp.states[s])))
        for s in cls
    ]
    return chains.class_sums(chains.class_visits(chain, cls), totals)


def evaluate(mdp: Mdp, policy: Policy, x: str) -> EvaluationReport:
    """Exact V and W of a policy from start state x."""
    analysis = analyse_policy(mdp, policy)
    start = mdp.state_index(x)
    v, w = analysis.values_at(start)
    return EvaluationReport(
        V=v, W=w, class_gains=analysis.class_gains, absorption=analysis.absorption_at(start)
    )
