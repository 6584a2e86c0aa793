"""Full-chain references for ``cmdpkit.solver``.

``rows`` is the pass the solver made before it analysed only canonical
policies: every policy ``enumerate_policies`` yields gets its own
``analyse_policy``, no class solve is reused from the policy before, and
each row counts once. ``best`` filters the rows the way the solver's
``_best`` did then.

``canonical_rows`` is the pass the solver made before it censored each
policy's chain onto its decision states: ``canonical`` finds the canonical
policies by a reach search over the full chain, and ``analyse_policies``
analyses each one's full induced chain, reusing the class solves of the
policy before. ``class_gain`` is the stationary average of a per-state
value over a recurrent class.

``_ratio_gain`` and ``_mix`` are the solver's gain and mixing steps before
``chains.ratio_gain`` and ``chains.mix`` replaced them: ``Fraction`` sums
over a censored chain whose excursions are ``(reward, constraint, steps)``
``Fraction`` triples, as ``fraction_excursions`` rebuilds them.
``finite_horizon_averages`` is the time average of reward and constraint
along a realized path, which the simulation tests compare against.

``enumerated_rows`` is the pass the solver made before it walked the
canonical policies depth first: it zips ``enumerate_policies`` with a
product over the decision states' actions, reach-searches every policy on
its embedded rows and drops the non-canonical ones, and reuses a class's
gain from the canonical policy before. ``best``, which adds each row's
count, is that solver's ``_best``: the first best row in arrival order.

Every row's ``key`` is read off its policy by ``key``. Property tests
require the solver's rows and ``SolveResult``s to equal these.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from cmdpkit import chains
from cmdpkit.evaluation import ClassGain, PolicyAnalysis, analyse_policy
from cmdpkit.model import Chain, Mdp, Policy, Successors, Trajectory, induced_chain
from cmdpkit.solver import SolveResult, TableRow, enumerate_policies

ZERO = Fraction(0)


def key(mdp: Mdp, policy: Policy) -> tuple[int, ...]:
    """The policy's action index at each state with a choice, in state order."""
    return tuple(
        acts.index(policy.action_for(state))
        for state, acts in zip(mdp.states, mdp.actions) if len(acts) > 1
    )


def rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every policy, analysed on its own, in ``enumerate_policies`` order."""
    for policy in enumerate_policies(mdp):
        analysis = analyse_policy(mdp, policy)
        values = [analysis.values_at(i) for i in indices]
        yield TableRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=1,
        )


def best(
    rows: Iterable[TableRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> SolveResult:
    """The first row with the largest V[k] among those with W[k] - slack >= 0."""
    found: TableRow | None = None
    found_w: tuple[Fraction, ...] | None = None
    feasible = total = 0
    for row in rows:
        total += row.count
        w = row.W[k]
        if slack is not None:
            w = tuple(c - d for c, d in zip(w, slack))
        if any(c < 0 for c in w):
            continue
        feasible += row.count
        if found is None or row.V[k] > found.V[k]:
            found, found_w = row, w
    if found is None:
        return SolveResult(
            status="infeasible", policy=None, value=None, W_at_optimum=None,
            feasible_count=0, total_count=total,
        )
    return SolveResult(
        status="optimal", policy=found.policy, value=found.V[k],
        W_at_optimum=found_w, feasible_count=feasible, total_count=total,
    )


def solve(mdp: Mdp, x: str | None = None) -> SolveResult:
    """Best feasible policy from x over every policy."""
    start = mdp.initial_state if x is None else x
    return best(rows(mdp, [mdp.state_index(start)]), 0)


def class_gain(chain: Chain, cls: tuple[int, ...], values: Sequence[Fraction]) -> Fraction:
    """Stationary average of a per-state value over a recurrent class."""
    stationary = chains.stationary_distribution(chain, cls)
    return sum((p * values[s] for p, s in zip(stationary, cls)), ZERO)


def canonical(mdp: Mdp, indices: list[int]) -> Iterator[tuple[Policy, int]]:
    """Canonical policies, in ``enumerate_policies`` order, with multiplicities.

    R_p is the set of states policy p reaches from the start indices. The
    search that finds it reads only the rows of states in R_p, so R_p, and
    V and W at the starts, depend only on the actions p takes in R_p. p is
    canonical when it takes the first action at every state outside R_p;
    it stands for every policy that agrees with it on R_p (the product of
    the action counts outside R_p) and comes first among them.
    """
    start = set(indices)
    for policy in enumerate_policies(mdp):
        taken = [acts.index(a) for acts, (_, a) in zip(mdp.actions, policy.choice)]
        reach = set(start)
        frontier = list(start)
        while frontier:
            s = frontier.pop()
            for j, _ in mdp.successors[s][taken[s]]:
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
        outside = [s for s in range(len(taken)) if s not in reach]
        if not any(taken[s] for s in outside):
            yield policy, math.prod(len(mdp.actions[s]) for s in outside)


def analyse_policies(mdp: Mdp, policies: Iterable[Policy]) -> Iterator[PolicyAnalysis]:
    """Induced chain, decomposition, class gains and absorption of each policy.

    Yields one analysis per policy, in order. Each recurrent class gets one
    stationary vector, shared by the reward and the constraint gains. A
    class's vector and gains depend only on its members and the actions
    taken on them, so a class the previous policy also had, with the same
    actions on its members, reuses that policy's solve. Only the previous
    policy's classes are kept: memory does not grow with the policy count.
    """
    previous: dict[tuple, tuple[tuple[Fraction, ...], ClassGain]] = {}
    for policy in policies:
        chain = induced_chain(mdp, policy)
        decomposition = chains.decompose(chain)
        current: dict[tuple, tuple[tuple[Fraction, ...], ClassGain]] = {}
        for cls in decomposition.recurrent_classes:
            taken = tuple(
                mdp.actions[s].index(policy.action_for(mdp.states[s])) for s in cls
            )
            key = (cls, taken)
            solved = previous.get(key)
            if solved is None:
                solved = _class_solve(mdp, chain, cls, taken)
            current[key] = solved
        previous = current
        yield PolicyAnalysis(
            chain=chain,
            decomposition=decomposition,
            stationary=tuple(pi for pi, _ in current.values()),
            class_gains=tuple(gain for _, gain in current.values()),
            absorption=chains.absorption_map(chain, decomposition),
        )


def _class_solve(
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


def canonical_rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in ``enumerate_policies`` order."""
    weighted, policies = itertools.tee(canonical(mdp, indices))
    analyses = analyse_policies(mdp, (policy for policy, _ in policies))
    for (policy, count), analysis in zip(weighted, analyses):
        values = [analysis.values_at(i) for i in indices]
        yield TableRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=count,
        )


def enumerated_rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in ``enumerate_policies`` order."""
    censored = chains.censor(mdp)
    decision = len(censored.decision)
    counts = [len(mdp.actions[s]) for s in censored.decision]
    entries = [censored.entry[i] for i in indices]
    sources = {node for entry in entries for node, _ in entry if node < decision}
    previous: dict[tuple, chains.Gain] = {}
    choices = itertools.product(*(range(count) for count in counts))
    for policy, taken in zip(enumerate_policies(mdp), choices):
        rows = tuple(censored.rows[k][a] for k, a in enumerate(taken))
        reach = set(sources)
        frontier = list(sources)
        while frontier:
            for node, _ in rows[frontier.pop()]:
                if node < decision and node not in reach:
                    reach.add(node)
                    frontier.append(node)
        outside = [k for k in range(decision) if k not in reach]
        if any(taken[k] for k in outside):
            continue
        embedded = rows + censored.fixed_rows
        decomposition = chains.decompose(embedded)
        gains = []
        current: dict[tuple, chains.Gain] = {}
        for cls in decomposition.recurrent_classes:
            if cls[0] >= decision:
                gains.append(censored.fixed_gains[cls[0] - decision])
                continue
            solved = (cls, tuple(taken[k] for k in cls))
            gain = previous.get(solved)
            if gain is None:
                gain = chains.ratio_gain(
                    chains.stationary_distribution(embedded, cls),
                    [censored.excursions[k][a] for k, a in zip(*solved)],
                )
            current[solved] = gain
            gains.append(gain)
        previous = current
        absorption = chains.absorption_map(embedded, decomposition)
        values = [chains.mix(entry, absorption, gains) for entry in entries]
        yield TableRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in outside),
        )


def fraction_excursions(censored: chains.CensoredChain) -> chains.CensoredChain:
    """The censored chain with each excursion as a (reward, constraint, steps) triple."""
    def triple(totals: chains.Totals) -> tuple[Fraction, tuple[Fraction, ...], Fraction]:
        numerators, denominator = totals
        values = [Fraction(h, denominator) for h in numerators]
        return values[0], tuple(values[1:-1]), values[-1]

    return dataclasses.replace(censored, excursions=tuple(
        tuple(triple(totals) for totals in excursions) for excursions in censored.excursions
    ))


def _ratio_gain(
    censored: chains.CensoredChain,
    embedded: Chain,
    cls: tuple[int, ...],
    taken: tuple[int, ...],
    dim: int,
) -> chains.Gain:
    """Reward and constraint gains of a recurrent class of an embedded chain."""
    mu = chains.stationary_distribution(embedded, cls)
    reward = steps = ZERO
    constraint = [ZERO] * dim
    for m, k, a in zip(mu, cls, taken):
        r, c, t = censored.excursions[k][a]
        reward += m * r
        steps += m * t
        for i, x in enumerate(c):
            constraint[i] += m * x
    return reward / steps, tuple(x / steps for x in constraint)


def _mix(
    entry: Successors,
    absorption: tuple[tuple[Fraction, ...], ...],
    gains: list[chains.Gain],
    dim: int,
) -> chains.Gain:
    """V and W from a start state: its entry mix of absorption-mixed gains."""
    v = ZERO
    w = [ZERO] * dim
    for node, weight in entry:
        for p, (reward, constraint) in zip(absorption[node], gains):
            if p:
                p *= weight
                v += p * reward
                for k, g in enumerate(constraint):
                    w[k] += p * g
    return v, tuple(w)


def finite_horizon_averages(
    mdp: Mdp, policy: Policy, trajectory: Trajectory
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Time averages (V_T, W_T) of reward and constraint along a realized path."""
    if trajectory.horizon <= 0 or not trajectory.states:
        raise ValueError("trajectory horizon must be positive")
    total_r = Fraction(0)
    total_c = [Fraction(0)] * mdp.constraint_dim
    for state in trajectory.states:
        i = mdp.state_index(state)
        j = mdp.actions[i].index(policy.action_for(state))
        total_r += mdp.rewards[i][j]
        for k in range(mdp.constraint_dim):
            total_c[k] += mdp.constraints[i][j][k]
    horizon = Fraction(len(trajectory.states))
    return total_r / horizon, tuple(c / horizon for c in total_c)
