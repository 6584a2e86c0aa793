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
``chains.ratio_gain`` and ``mix`` replaced them: ``Fraction`` sums over a
censored chain whose excursions are ``(reward, constraint, steps)``
``Fraction`` triples, as ``fraction_excursions`` rebuilds them.
``finite_horizon_averages`` is the time average of reward and constraint
along a realized path, which the simulation tests compare against.

``enumerated_rows`` is the pass the solver made before it walked the
canonical policies depth first: it zips ``enumerate_policies`` with a
product over the decision states' actions, reach-searches every policy on
its embedded rows and drops the non-canonical ones, and reuses a class's
gain from the canonical policy before. ``best``, which adds each row's
count, is that solver's ``_best``: the first best row in arrival order.

``leaf_rows`` is the pass the solver made before it eliminated each
decision state along the walk: the same walk, but at every leaf it builds
the policy's embedded chain from ``fraction_view``, the censored chain as
``Fraction`` rows, and decomposes it, solves each recurrent class's
stationary vector and the absorption map, and mixes the class gains at
each start with ``mix``.

Every row's ``key`` is read off its policy by ``key``. Property tests
require the solver's rows and ``SolveResult``s to equal these.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from cmdpkit import chains
from cmdpkit.evaluation import ClassGain, PolicyAnalysis, analyse_policy
from cmdpkit.model import Chain, Mdp, Policy, Successors, Trajectory, induced_chain
from cmdpkit.solver import SolveResult, TableRow, _check_cap, _options, enumerate_policies

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


@dataclass(frozen=True)
class FractionCensoredChain:
    """``chains.CensoredChain`` with ``Fraction`` rows, as the per-leaf pass read it.

    ``rows[k][a]`` and ``entry[s]`` are the hitting distributions over the
    nodes as ``(node, probability)`` pairs; ``excursions[k][a]`` are the
    totals ``([reward, *constraint, steps], denominator)`` of that action's
    row; ``fixed_rows[f]`` is the absorbing row of fixed class f's node and
    ``fixed_gains[f]`` its reward and constraint gains.
    """

    decision: tuple[int, ...]
    fixed: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[Successors, ...], ...]
    excursions: tuple[tuple[chains.Totals, ...], ...]
    fixed_rows: tuple[Successors, ...]
    fixed_gains: tuple[chains.Gain, ...]
    entry: tuple[Successors, ...]


def fraction_view(mdp: Mdp) -> FractionCensoredChain:
    """``chains.censor(mdp)`` as ``Fraction`` rows."""
    censored = chains.censor(mdp)
    decision = len(censored.decision)
    nodes = decision + len(censored.fixed)
    totals = range(nodes, nodes + 2 + mdp.constraint_dim)

    def hitting(row: chains.Row) -> Successors:
        numerators, denominator = row
        return tuple(
            (node, Fraction(numerators[node], denominator))
            for node in range(nodes) if node in numerators
        )

    def excursion(row: chains.Row) -> chains.Totals:
        numerators, denominator = row
        return tuple(numerators.get(c, 0) for c in totals), denominator

    def gain(sums: list[int]) -> chains.Gain:
        reward, *constraint, steps = sums
        return Fraction(reward, steps), tuple(Fraction(c, steps) for c in constraint)

    return FractionCensoredChain(
        decision=censored.decision,
        fixed=censored.fixed,
        rows=tuple(tuple(hitting(row) for row in rows) for rows in censored.rows),
        excursions=tuple(tuple(excursion(row) for row in rows) for rows in censored.rows),
        fixed_rows=tuple(((node, Fraction(1)),) for node in range(decision, nodes)),
        fixed_gains=tuple(gain(sums) for sums in censored.fixed_gains),
        entry=tuple(hitting(row) for row in censored.entry),
    )


def mix(
    entry: Successors, absorption: Sequence[Sequence[Fraction]], gains: Sequence[chains.Gain]
) -> chains.Gain:
    """V and W from a start: its entry distribution's mix of class gains.

    ``entry`` weighs rows of ``absorption``, whose entry c is the
    probability of absorption into the class with gains ``gains[c]``.
    """
    v = ZERO
    w = [ZERO] * len(gains[0][1])
    for node, weight in entry:
        for p, (reward, constraint) in zip(absorption[node], gains):
            if p:
                p *= weight
                v += p * reward
                for k, g in enumerate(constraint):
                    w[k] += p * g
    return v, tuple(w)


def leaf_rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy in depth-first order, each analysed at its leaf.

    The walk reads the embedded rows. It branches on the lowest-index
    decision node that the start entries or the rows fixed so far reach; a
    policy is complete when no such node is left, with action 0 elsewhere.
    Its embedded chain then has one row per decision node, the row of its
    action, and one absorbing row per fixed class; a class over decision
    nodes with stationary vector mu has gain sum(mu R) / sum(mu T), and a
    start reads its entry distribution's mix of the absorption-mixed gains.
    """
    _check_cap(mdp)
    censored = fraction_view(mdp)
    decision = len(censored.decision)
    counts = [len(mdp.actions[s]) for s in censored.decision]
    entries = [censored.entry[i] for i in indices]
    options = _options(mdp)
    # Each stack item: the actions fixed so far, by decision node, and the nodes
    # the starts and those actions reach. Only reached nodes are ever fixed.
    stack = [({}, {node for entry in entries for node, _ in entry if node < decision})]
    while stack:
        fixed, reached = stack.pop()
        if len(fixed) < len(reached):
            k = min(reached - fixed.keys())
            for a in reversed(range(counts[k])):
                targets = {node for node, _ in censored.rows[k][a] if node < decision}
                stack.append(({**fixed, k: a}, reached | targets))
            continue
        key = tuple(fixed.get(k, 0) for k in range(decision))
        embedded = tuple(censored.rows[k][a] for k, a in enumerate(key)) + censored.fixed_rows
        decomposition = chains.decompose(embedded)
        gains = [
            censored.fixed_gains[cls[0] - decision] if cls[0] >= decision else chains.ratio_gain(
                chains.stationary_distribution(embedded, cls),
                [censored.excursions[k][key[k]] for k in cls],
            )
            for cls in decomposition.recurrent_classes
        ]
        absorption = chains.absorption_map(embedded, decomposition)
        values = [mix(entry, absorption, gains) for entry in entries]
        action = dict(zip(censored.decision, key))
        yield TableRow(
            policy=Policy(choice=tuple(pairs[action.get(s, 0)] for s, pairs in enumerate(options))),
            key=key,
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in range(decision) if k not in fixed),
        )


def enumerated_rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in ``enumerate_policies`` order."""
    censored = fraction_view(mdp)
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
        values = [mix(entry, absorption, gains) for entry in entries]
        yield TableRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in outside),
        )


def fraction_excursions(censored: FractionCensoredChain) -> FractionCensoredChain:
    """The censored chain with each excursion as a (reward, constraint, steps) triple."""
    def triple(totals: chains.Totals) -> tuple[Fraction, tuple[Fraction, ...], Fraction]:
        numerators, denominator = totals
        values = [Fraction(h, denominator) for h in numerators]
        return values[0], tuple(values[1:-1]), values[-1]

    return dataclasses.replace(censored, excursions=tuple(
        tuple(triple(totals) for totals in excursions) for excursions in censored.excursions
    ))


def _ratio_gain(
    censored: FractionCensoredChain,
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
