"""Exhaustive exact solver for the constrained average-reward problem.

maximize V(x) over deterministic stationary policies subject to W(x) >= 0
componentwise. Ties go to the smallest action tuple, in (state index,
action index) order, so every downstream audit is reproducible.

Only canonical policies are analysed: V and W at the start states depend
only on the actions at the states a policy reaches from them, so a policy
that takes the first action at every other state stands for all policies
that agree with it where it reaches. A depth-first walk generates them,
and each row carries that multiplicity, so ``feasible_count`` and
``total_count`` still count every policy (``CMDPKIT_ENUM_CAP`` bounds
their full product).

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


def _check_cap(mdp: Mdp) -> None:
    """Raise EnumerationCapExceeded, naming the states with a choice, if past the cap."""
    cap = enumeration_cap()
    total = policy_count(mdp)
    if total > cap:
        states_with = collections.Counter(len(acts) for acts in mdp.actions if len(acts) > 1)
        choices = ", ".join(
            f"{states} state{'s' if states > 1 else ''} with {count} actions"
            for count, states in sorted(states_with.items())
        )
        raise EnumerationCapExceeded(
            f"{total} policies ({choices}) exceed the cap of {cap}; "
            f"raise {ENUM_CAP_ENV} to proceed"
        )


def _options(mdp: Mdp) -> list[tuple[tuple[str, str], ...]]:
    """Each state's (state, action) pairs, which every policy shares."""
    return [
        tuple((state, action) for action in actions)
        for state, actions in zip(mdp.states, mdp.actions)
    ]


def enumerate_policies(mdp: Mdp) -> Iterator[Policy]:
    """All deterministic stationary policies in lexicographic order, once the cap is checked."""
    _check_cap(mdp)
    for choice in itertools.product(*_options(mdp)):
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


def _rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in depth-first order.

    The analysis runs on the censored chain (``chains.censor``), built once
    per pass: policy p's embedded chain has one row per decision state, the
    embedded row of p's action there, and one absorbing row per fixed
    class. Its recurrent classes over the decision states are those of p's
    chain restricted to them; a class with stationary vector mu has gain
    sum(mu R) / sum(mu T) (renewal reward: mu weighs the visits to the
    decision states, R and T are the reward and steps an action's
    excursion adds), and W is C over T the same way. Absorption mixes the
    gains at each node, and a start state reads its entry distribution's
    mix of node values.

    The walk reads the embedded rows too. It branches on the lowest-index
    decision node that the start entries or the rows fixed so far reach; a
    policy is complete when no such node is left, with action 0 elsewhere.
    """
    _check_cap(mdp)
    censored = chains.censor(mdp)
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
        values = [chains.mix(entry, absorption, gains) for entry in entries]
        action = dict(zip(censored.decision, key))
        yield TableRow(
            policy=Policy(choice=tuple(pairs[action.get(s, 0)] for s, pairs in enumerate(options))),
            key=key,
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=math.prod(counts[k] for k in range(decision) if k not in fixed),
        )


def _best(
    rows: Iterable[TableRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> tuple[SolveResult, TableRow | None]:
    """The row with the largest V[k], then the smallest key, of W[k] - slack >= 0.

    Returns the result and that row (None when no row is feasible). The
    counts add every policy a row stands for. A canonical row has the V
    and W of the policies it stands for and the smallest key among them,
    so the best row holds the smallest best action tuple.
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


class PolicyTable:
    """Every canonical policy, analysed once, with V and W at given states.

    A policy is canonical for the union of its reach sets from all the
    table's states, so every column is exact. Rows are sorted by key,
    which is the order ``enumerate_policies`` yields their policies in.
    Memory grows with canonical policies times states, so only questions
    that filter the rows more than once build a table.
    """

    def __init__(self, mdp: Mdp, states: tuple[str, ...]):
        self.states = tuple(states)
        self._column = {state: k for k, state in enumerate(self.states)}
        rows = _rows(mdp, [mdp.state_index(s) for s in self.states])
        self.rows = tuple(sorted(rows, key=lambda row: row.key))

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
    V(x); ties keep the policy with the smallest action tuple. Infeasibility
    is a status, not an error. The policies are streamed: memory does not
    grow with their number.
    """
    start = mdp.initial_state if x is None else x
    return _best(_rows(mdp, [mdp.state_index(start)]), 0)[0]
