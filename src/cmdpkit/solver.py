"""Exhaustive exact solver for the constrained average-reward problem.

maximize V(x) over deterministic stationary policies subject to W(x) >= 0
componentwise. Enumeration order is lexicographic in (state index, action
index) and ties are broken by that order, so every downstream audit is
reproducible.

Every policy is enumerated (``CMDPKIT_ENUM_CAP`` bounds their full
product), but only canonical ones are analysed: V and W at the start
states depend only on the actions at the states a policy reaches from
them, so a policy that takes the first action at every other state stands
for all policies that agree with it where it reaches. Each row carries
that multiplicity, so ``feasible_count`` and ``total_count`` still count
every policy, and the canonical policy comes first among those it stands
for, so the tie-break is unchanged.

Each pass first censors the model onto its decision states, the states
with a choice (``chains.censor``): the single-action states are
eliminated once, and every canonical policy is analysed on its embedded
chain, one row per decision state plus one absorbing row per fixed class
(a closed class of single-action states, whose gain is solved once). A
class of the embedded chain has the semi-Markov ratio gain: the
stationary average of the excursion reward over that of the excursion
length (Puterman 1994, ch. 11), and W the same with the constraint. A
single-action start state reads V and W as its hitting mix of the node
values. These are exactly the V and W of the policy's full chain. The
gain formula and the mixing step are ``chains.ratio_gain`` and
``chains.mix``, the ones ``evaluation`` uses on full chains, and each
embedded chain is decomposed once: its absorption solve reads the
decomposition's transient components.

``solve`` streams one pass over the canonical policies, analysing each
once and keeping only the best so far. A question that filters the
policies more than once (the audit, the residual report) keeps the pass in
one ``PolicyTable``, with V and W at every start state it needs; both
filter the rows with the same ``_best``.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from cmdpkit import chains
from cmdpkit.model import InputError, Mdp, Policy

ENUM_CAP_ENV = "CMDPKIT_ENUM_CAP"
DEFAULT_ENUM_CAP = 1 << 20


class EnumerationCapExceeded(InputError, RuntimeError):
    """Raised when the policy space is larger than the configured cap."""


def enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise EnumerationCapExceeded(
            f"{ENUM_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap <= 0:
        raise EnumerationCapExceeded(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def policy_count(mdp: Mdp) -> int:
    count = 1
    for acts in mdp.actions:
        count *= len(acts)
    return count


def _choice_summary(mdp: Mdp) -> str:
    """The states with a choice, by action count: "20 states with 2 actions"."""
    states_with = collections.Counter(len(acts) for acts in mdp.actions if len(acts) > 1)
    return ", ".join(
        f"{states} state{'s' if states > 1 else ''} with {count} actions"
        for count, states in sorted(states_with.items())
    )


def enumerate_policies(mdp: Mdp) -> Iterator[Policy]:
    """All deterministic stationary policies in lexicographic order.

    The cap is checked before the first policy is built; the error names
    the states with a choice and their action counts.
    """
    cap = enumeration_cap()
    total = policy_count(mdp)
    if total > cap:
        raise EnumerationCapExceeded(
            f"{total} policies ({_choice_summary(mdp)}) exceed the cap of {cap}; "
            f"raise {ENUM_CAP_ENV} to proceed"
        )
    # Policies share their (state, action) pairs, so a table of them stays small.
    options = [
        tuple((state, action) for action in actions)
        for state, actions in zip(mdp.states, mdp.actions)
    ]
    for choice in itertools.product(*options):
        yield Policy(choice=choice)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a constrained solve from one start state."""

    status: str  # "optimal" | "infeasible"
    policy: Policy | None
    value: Fraction | None
    W_at_optimum: tuple[Fraction, ...] | None
    feasible_count: int
    total_count: int


@dataclass(frozen=True)
class TableRow:
    """One canonical policy with its V and W at each start state of a pass.

    ``V[k]`` and ``W[k]`` belong to the k-th start state asked for.
    ``count`` is the number of policies the row stands for: those that
    agree with ``policy`` on every state it reaches from the start states.
    """

    policy: Policy
    V: tuple[Fraction, ...]
    W: tuple[tuple[Fraction, ...], ...]
    count: int


def _rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in ``enumerate_policies`` order.

    The analysis runs on the censored chain (``chains.censor``), built once
    per pass: policy p's embedded chain has one row per decision state, the
    embedded row of p's action there, and one absorbing row per fixed
    class. Its recurrent classes over the decision states are those of p's
    chain restricted to them; a class with stationary vector mu has gain
    sum(mu R) / sum(mu T) (renewal reward: mu weighs the visits to the
    decision states, R and T are the reward and steps an action's
    excursion adds), and W is C over T the same way. A class whose members
    and actions the policy before also had reuses that policy's gain.
    Absorption mixes the gains at each node, and a start state reads its
    entry distribution's mix of node values.

    R_p, the states p reaches from the starts, is read off the embedded
    rows too: its decision states are those the embedded chain reaches
    from the starts' entry nodes.
    """
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
            key = (cls, tuple(taken[k] for k in cls))
            gain = previous.get(key)
            if gain is None:
                gain = chains.ratio_gain(
                    chains.stationary_distribution(embedded, cls),
                    [censored.excursions[k][a] for k, a in zip(*key)],
                )
            current[key] = gain
            gains.append(gain)
        previous = current
        absorption = chains.absorption_map(embedded, decomposition)
        values = [chains.mix(entry, absorption, gains) for entry in entries]
        yield TableRow(
            policy=policy,
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in outside),
        )


def _best(
    rows: Iterable[TableRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> tuple[SolveResult, TableRow | None]:
    """The first row with the largest V[k] among those with W[k] - slack >= 0.

    Returns the result and that row (None when no row is feasible). The
    counts add every policy a row stands for. A canonical row has the V
    and W of the policies it stands for and precedes them, so the first
    best row is also the first best policy.
    """
    best: TableRow | None = None
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
        if best is None or row.V[k] > best.V[k]:
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


class PolicyTable:
    """Every canonical policy, analysed once, with V and W at given states.

    A policy is canonical for the union of its reach sets from all the
    table's states, so every column is exact. Rows are in
    ``enumerate_policies`` order (same cap check), so filters that keep
    the first best row keep the solver's lexicographic tie-break. Memory
    grows with canonical policies times states, so only questions that
    filter the rows more than once build a table.
    """

    def __init__(self, mdp: Mdp, states: tuple[str, ...]):
        self.states = tuple(states)
        self._column = {state: k for k, state in enumerate(self.states)}
        self.rows = tuple(_rows(mdp, [mdp.state_index(s) for s in self.states]))

    def column(self, state: str) -> int:
        """Position of a start state in the rows' V and W."""
        try:
            return self._column[state]
        except KeyError:
            raise KeyError(f"state {state!r} is not a start state of this table") from None

    def solve(
        self, x: str, slack: tuple[Fraction, ...] | None = None
    ) -> SolveResult:
        """``solve(mdp, x)``, or with every constraint shifted by -slack.

        A uniform shift moves every W by exactly -slack, because stationary
        vectors and absorption rows each sum to 1, and leaves V alone; so
        the shifted problem needs no model of its own.
        """
        return _best(self.rows, self.column(x), slack)[0]


def solve(mdp: Mdp, x: str | None = None) -> SolveResult:
    """Best feasible policy from x (default: the model's initial state).

    Among policies with W(x) >= 0 componentwise, returns one maximizing
    V(x); ties keep the lexicographically first policy. Infeasibility is a
    status, not an error. The policies are streamed: memory does not grow
    with their number.
    """
    start = mdp.initial_state if x is None else x
    return _best(_rows(mdp, [mdp.state_index(start)]), 0)[0]
