"""Full-chain references for ``cmdpkit.solver``.

``rows`` is the pass the solver made before it analysed only canonical
policies: every policy ``enumerate_policies`` yields gets its own
``analysis_oracle.analyse_policy``, no class solve is reused from the
policy before, and each row counts once. ``best`` filters the rows the way
the solver's ``_best`` did then.

``canonical_rows`` is the pass the solver made before it censored each
policy's chain onto its decision states: ``canonical`` finds the canonical
policies by a reach search over the full chain, and ``analyse_policies``
analyses each one's full induced chain the ``analysis_oracle`` way,
reusing the class solves of the policy before. ``class_gain`` is the
stationary average of a per-state value over a recurrent class.

``_ratio_gain`` and ``_mix`` are the solver's gain and mixing steps before
``gain_oracle.ratio_gain`` and ``mix`` replaced them: ``Fraction`` sums over a
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

``integer_mix`` is the leaf's mixing step after the leaves stayed integers
and before ``chains.class_sums`` took its place: the start rows carried a
pseudo column whose coefficient gave the mix its denominator.

``fraction_rows``, ``fraction_mix`` and ``fraction_best`` are the walk,
its leaf's mixing step and its filter before the leaves stayed integers:
each leaf built its ``Policy`` and the ``Fraction``s of V and W at every
start, and the filter compared ``(-V, key)`` tuples and subtracted the
slack from every row's W. ``FractionRow`` is the row they passed, and
``materialise`` turns the solver's integer rows into it.

Every row's ``key`` is read off its policy by ``key``. Property tests
require the solver's rows, materialised, and ``SolveResult``s to equal
these.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

import gain_oracle
from analysis_oracle import FractionAnalysis, analyse_policy, class_solve, taken
from cmdpkit import chains
from cmdpkit.evaluation import ClassGain
from cmdpkit.model import Chain, Mdp, Policy, Successors, Trajectory, induced_chain
from cmdpkit.solver import (
    SolveResult,
    TableRow,
    _check_cap,
    _eliminated,
    _equation,
    _options,
    enumerate_policies,
)

ZERO = Fraction(0)


class FractionRow(NamedTuple):
    """One canonical policy with its V and W at each start state of a pass.

    ``key`` is the policy's action index at each decision state, in state
    order. ``V[k]`` and ``W[k]`` belong to the k-th start state asked for.
    ``count`` is the number of policies the row stands for: those that
    agree with ``policy`` on every state it reaches from the start states.
    """

    policy: Policy
    key: tuple[int, ...]
    V: tuple[Fraction, ...]
    W: tuple[tuple[Fraction, ...], ...]
    count: int


def materialise(mdp: Mdp, rows: Iterable[TableRow]) -> list[FractionRow]:
    """The solver's integer rows as ``FractionRow``s, in the same order.

    Each policy is read off its key: the key's action at each state with a
    choice, the first action elsewhere. V and W are the ratios of each
    start's integers to its denominator, which must be positive.
    """
    decision = [s for s, acts in enumerate(mdp.actions) if len(acts) > 1]
    materialised = []
    for row in rows:
        assert all(values[-1] > 0 for values in row.values)
        action = dict(zip(decision, row.key))
        materialised.append(FractionRow(
            policy=Policy(choice=tuple(
                (state, acts[action.get(s, 0)])
                for s, (state, acts) in enumerate(zip(mdp.states, mdp.actions))
            )),
            key=row.key,
            V=tuple(Fraction(v, d) for v, *_, d in row.values),
            W=tuple(tuple(Fraction(c, d) for c in w) for _, *w, d in row.values),
            count=row.count,
        ))
    return materialised


def policy_count(mdp: Mdp) -> int:
    """The number of deterministic stationary policies of a model."""
    return math.prod(len(acts) for acts in mdp.actions)


def key(mdp: Mdp, policy: Policy) -> tuple[int, ...]:
    """The policy's action index at each state with a choice, in state order."""
    return tuple(
        acts.index(policy.action_for(state))
        for state, acts in zip(mdp.states, mdp.actions) if len(acts) > 1
    )


def rows(mdp: Mdp, indices: list[int]) -> Iterator[FractionRow]:
    """Every policy, analysed on its own, in ``enumerate_policies`` order."""
    for policy in enumerate_policies(mdp):
        analysis = analyse_policy(mdp, policy)
        values = [analysis.values_at(i) for i in indices]
        yield FractionRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=1,
        )


def best(
    rows: Iterable[FractionRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> SolveResult:
    """The first row with the largest V[k] among those with W[k] - slack >= 0."""
    found: FractionRow | None = None
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


def analyse_policies(mdp: Mdp, policies: Iterable[Policy]) -> Iterator[FractionAnalysis]:
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
            key = (cls, taken(mdp, policy, cls))
            solved = previous.get(key)
            if solved is None:
                solved = class_solve(mdp, chain, *key)
            current[key] = solved
        previous = current
        yield FractionAnalysis(
            chain=chain,
            decomposition=decomposition,
            class_gains=tuple(gain for _, gain in current.values()),
            absorption=chains.absorption_map(chain, decomposition),
        )


def canonical_rows(mdp: Mdp, indices: list[int]) -> Iterator[FractionRow]:
    """Every canonical policy, analysed once, in ``enumerate_policies`` order."""
    weighted, policies = itertools.tee(canonical(mdp, indices))
    analyses = analyse_policies(mdp, (policy for policy, _ in policies))
    for (policy, count), analysis in zip(weighted, analyses):
        values = [analysis.values_at(i) for i in indices]
        yield FractionRow(
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
    """``chains.censor`` from every state as ``Fraction`` rows.

    Every state is a start, so ``entry[s]`` is state s's row and the
    decision nodes are every decision state of the model.
    """
    censored = chains.censor(mdp, range(mdp.num_states))
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


def leaf_rows(mdp: Mdp, indices: list[int]) -> Iterator[FractionRow]:
    """Every canonical policy in depth-first order, each analysed at its leaf.

    The walk reads the embedded rows. It branches on the lowest-index
    decision node that the start entries or the rows fixed so far reach; a
    policy is complete when no such node is left, with action 0 elsewhere.
    Its embedded chain then has one row per decision node, the row of its
    action, and one absorbing row per fixed class; a class over decision
    nodes with stationary vector mu has gain sum(mu R) / sum(mu T), and a
    start reads its entry distribution's mix of the absorption-mixed gains.
    """
    _check_cap(map(len, mdp.actions))
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
            censored.fixed_gains[cls[0] - decision] if cls[0] >= decision
            else gain_oracle.ratio_gain(
                chains.stationary_distribution(embedded, cls),
                [censored.excursions[k][key[k]] for k in cls],
            )
            for cls in decomposition.recurrent_classes
        ]
        absorption = chains.absorption_map(embedded, decomposition)
        values = [mix(entry, absorption, gains) for entry in entries]
        action = dict(zip(censored.decision, key))
        yield FractionRow(
            policy=Policy(choice=tuple(pairs[action.get(s, 0)] for s, pairs in enumerate(options))),
            key=key,
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in range(decision) if k not in fixed),
        )


def enumerated_rows(mdp: Mdp, indices: list[int]) -> Iterator[FractionRow]:
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
                gain = gain_oracle.ratio_gain(
                    chains.stationary_distribution(embedded, cls),
                    [censored.excursions[k][a] for k, a in zip(*solved)],
                )
            current[solved] = gain
            gains.append(gain)
        previous = current
        absorption = chains.absorption_map(embedded, decomposition)
        values = [mix(entry, absorption, gains) for entry in entries]
        yield FractionRow(
            policy=policy,
            key=key(mdp, policy),
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in outside),
        )


def fraction_mix(start: dict[int, int], gains: dict[int, list[int]], denominator: int) -> chains.Gain:
    """V and W of a start equation whose open columns are all classes.

    ``gains[c]`` is class column c's ``[reward, *constraint, steps]`` sums,
    whose ratios to the last entry are the gains; the start reaches class c
    with probability -start[c] / ``denominator``, and its totals columns
    are skipped. The sums are brought over one lcm of the step sums, so
    each value is one ``Fraction``.
    """
    classes = [(-p, gains[c]) for c, p in start.items() if c in gains]
    scale = lcm(*(sums[-1] for _, sums in classes))
    mixed = [0] * (len(classes[0][1]) - 1)
    for p, (*sums, steps) in classes:
        weight = p * (scale // steps)
        mixed = [total + weight * x for total, x in zip(mixed, sums)]
    denominator *= scale
    return Fraction(mixed[0], denominator), tuple(Fraction(x, denominator) for x in mixed[1:])


def integer_mix(start: dict[int, int], gains: dict[int, list[int]], denominator: int) -> tuple[int, ...]:
    """V and W of a start equation whose open columns are all classes.

    ``gains[c]`` is class column c's ``[reward, *constraint, steps]`` sums,
    whose ratios to the last entry are the gains; the start reaches class c
    with probability -start[c] / ``denominator``, and its totals columns
    are skipped. The sums are brought over one lcm of the step sums, and
    returned as ``(V, *W, d)`` integers over that one denominator. Every
    step sum and ``denominator`` is positive, because ``lp.eliminate``
    keeps each row a positive multiple of its rational row, so d is too.
    """
    classes = [(-p, gains[c]) for c, p in start.items() if c in gains]
    scale = lcm(*(sums[-1] for _, sums in classes))
    mixed = [0] * (len(classes[0][1]) - 1)
    for p, (*sums, steps) in classes:
        weight = p * (scale // steps)
        mixed = [total + weight * x for total, x in zip(mixed, sums)]
    return (*mixed, denominator * scale)


def fraction_rows(mdp: Mdp, indices: list[int]) -> Iterator[FractionRow]:
    """Every canonical policy, analysed once, in depth-first order.

    The walk runs on the censored chain (``chains.censor``), built once per
    pass, and carries, at each of its nodes, the integer equations that are
    still open: every action row of each decision node not yet fixed, and
    one row per start state, each over the open nodes and the classes with
    the totals collected on the way (``_equation``; a start row's
    denominator is the coefficient of one pseudo column after the totals).
    It branches on the lowest-index open decision node that a start row
    puts mass on. Fixing action a there takes its equation as the pivot: if
    its own column is present (self-mass below 1), ``lp.eliminate`` clears
    that column from the start rows and, unless that completes the policy,
    from every other open node's rows. If its own column has cleared
    (self-mass 1), the node closes a class: its gains are the ratios of its
    negated reward and constraint totals to its negated step total, and it
    stays an absorbing column. A policy is complete when no start row
    reaches an open node, with action 0 elsewhere; each start row is then a
    distribution over the classes (the fixed classes and the closed nodes),
    and V and W are its mix of their gains.
    """
    _check_cap(map(len, mdp.actions))
    # Censored from every state, so entry[i] is state i's row.
    censored = chains.censor(mdp, range(mdp.num_states))
    decision = len(censored.decision)
    nodes = decision + len(censored.fixed)
    totals = range(nodes, nodes + 2 + mdp.constraint_dim)
    pseudo = totals.stop
    counts = [len(mdp.actions[s]) for s in censored.decision]
    options = _options(mdp)
    # Each stack item: a walk node, as the actions fixed so far by decision
    # node, the action equations by node (read only for open nodes), the
    # start equations and the class sums by class column; then the open
    # node to fix and its action, or -1 at the root.
    root = ({}, [tuple(_equation(row, k) for row in actions)
                 for k, actions in enumerate(censored.rows)],
            [_equation(censored.entry[i], pseudo) for i in indices],
            dict(enumerate(censored.fixed_gains, decision)))
    stack = [(root, -1, 0)]
    while stack:
        (fixed, rows, starts, gains), k, a = stack.pop()
        pivot = None
        if k >= 0:
            fixed = {**fixed, k: a}
            if k in rows[k][a]:
                pivot = rows[k][a]
                starts = [_eliminated(start, pivot, k) if k in start else start
                          for start in starts]
            else:
                gains = {**gains, k: [-rows[k][a].get(c, 0) for c in totals]}
        reached = [c for start in starts for c in start if c < decision and c not in gains]
        if not reached:
            key = tuple(fixed.get(j, 0) for j in range(decision))
            action = dict(zip(censored.decision, key))
            values = [fraction_mix(start, gains, start[pseudo]) for start in starts]
            yield FractionRow(
                policy=Policy(choice=tuple(
                    pairs[action.get(s, 0)] for s, pairs in enumerate(options)
                )),
                key=key,
                V=tuple(v for v, _ in values),
                W=tuple(w for _, w in values),
                count=math.prod(counts[j] for j in range(decision) if j not in fixed),
            )
            continue
        if pivot is not None:
            rows = [
                actions if j in fixed else tuple(
                    _eliminated(r, pivot, k) if k in r else r for r in actions
                )
                for j, actions in enumerate(rows)
            ]
        walk = (fixed, rows, starts, gains)
        branch = min(reached)
        for b in reversed(range(counts[branch])):
            stack.append((walk, branch, b))


def fraction_best(
    rows: Iterable[FractionRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> tuple[SolveResult, FractionRow | None]:
    """The row with the largest V[k], then the smallest key, of W[k] - slack >= 0.

    Returns the result and that row (None when no row is feasible). The
    counts add every policy a row stands for. A canonical row has the V
    and W of the policies it stands for and the smallest key among them,
    so the best row holds the smallest best action tuple.
    """
    best: FractionRow | None = None
    best_w: tuple[Fraction, ...] | None = None
    feasible = total = 0
    for row in rows:
        total += row.count
        w = row.W[k]
        if slack is not None:
            w = tuple(c - d for c, d in zip(w, slack))
        if any(c < 0 for c in w):
            continue
        feasible += row.count
        if best is None or (-row.V[k], row.key) < (-best.V[k], best.key):
            best, best_w = row, w
    if best is None:
        return SolveResult(
            status="infeasible", policy=None, value=None, W_at_optimum=None,
            feasible_count=0, total_count=total,
        ), None
    return SolveResult(
        status="optimal", policy=best.policy, value=best.V[k],
        W_at_optimum=best_w, feasible_count=feasible, total_count=total,
    ), best


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
