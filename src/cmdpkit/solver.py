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
eliminated once, leaving integer rows over the decision states and the
fixed classes (closed classes of single-action states, whose gain is
solved once), each with the reward, constraint and step totals it
collects until the next node. The walk holds each row as one integer
equation and eliminates each decision state as it fixes its action (the
stochastic complement taken one state at a time; Meyer 1989, SIAM Review
31(2); Grassmann, Taksar & Heyman 1985, Oper. Res. 33(5)): the node's
equation is the pivot, and ``lp.eliminate``, the package's one exact row
update, clears the node's column from the equations still open, totals
included. A node whose own column has cleared (its self-loop has mass 1)
closes a recurrent class of the policy's chain; its gain is the
semi-Markov ratio of the summed reward to the summed steps (Puterman
1994, ch. 11), W the same with the constraint, and the node stays as an
absorbing column. When no open node is left to reach, each start
equation is a distribution over the classes, and V and W are its mix of
the class gains. These are exactly the V and W of the policy's full
chain, with no decomposition, stationary or absorption solve per policy.

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
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from cmdpkit import chains
from cmdpkit.lp import eliminate
from cmdpkit.model import InputError, Mdp, Policy, UnknownStateError

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


class SolveResult(NamedTuple):
    """Outcome of a constrained solve from one start state."""

    status: str  # "optimal" | "infeasible"
    policy: Policy | None
    value: Fraction | None
    W_at_optimum: tuple[Fraction, ...] | None
    feasible_count: int
    total_count: int


class TableRow(NamedTuple):
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


def _equation(row: chains.Row, column: int) -> dict[int, int]:
    """x_column = ``row`` as one integer equation: (D - q) x_column - sum N_c x_c.

    q is the row's mass on ``column``; a column whose coefficient is 0 is
    absent, so the equation of a row with self-mass 1 lacks its own column.
    """
    numerators, denominator = row
    equation = {c: -x for c, x in numerators.items()}
    own = denominator - numerators.get(column, 0)
    if own:
        equation[column] = own
    else:
        del equation[column]
    return equation


def _eliminated(row: dict[int, int], pivot: dict[int, int], k: int) -> dict[int, int]:
    row = dict(row)
    eliminate(row, pivot, k)
    return row


def _mix(start: dict[int, int], gains: dict[int, list[int]], denominator: int) -> chains.Gain:
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


def _rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
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
    _check_cap(mdp)
    censored = chains.censor(mdp)
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
            values = [_mix(start, gains, start[pseudo]) for start in starts]
            yield TableRow(
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
        self.constraint_dim = mdp.constraint_dim
        self._column = {state: k for k, state in enumerate(self.states)}
        rows = _rows(mdp, [mdp.state_index(s) for s in self.states])
        self.rows = tuple(sorted(rows, key=lambda row: row.key))

    def column(self, state: str) -> int:
        """Position of a start state in the rows' V and W.

        A state outside the table raises ``UnknownStateError``, an
        ``InputError``.
        """
        try:
            return self._column[state]
        except KeyError:
            raise UnknownStateError(
                f"state {state!r} is not a start state of this table"
            ) from None

    def solve(
        self, x: str, slack: tuple[Fraction, ...] | None = None
    ) -> SolveResult:
        """``solve(mdp, x)``, or with every constraint shifted by -slack.

        A uniform shift moves every W by exactly -slack, because stationary
        vectors and absorption rows each sum to 1, and leaves V alone; so
        the shifted problem needs no model of its own. A slack with other
        than ``constraint_dim`` components raises InputError.
        """
        if slack is not None and len(slack) != self.constraint_dim:
            raise InputError(
                f"slack has {len(slack)} components, but constraint_dim is "
                f"{self.constraint_dim}"
            )
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
