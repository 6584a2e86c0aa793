"""Exhaustive exact solver for the constrained average-reward problem.

maximize V(x) over deterministic stationary policies subject to W(x) >= 0
componentwise. Ties go to the smallest action tuple, in (state index,
action index) order, so every downstream audit is reproducible.

Only canonical policies are analysed: V and W at the start states depend
only on the actions at the states a policy reaches from them, so a policy
that takes the first action at every other state stands for all policies
that agree with it where it reaches. A depth-first walk generates them,
and each row carries that multiplicity, so ``feasible_count`` and
``total_count`` still count every policy. ``CMDPKIT_ENUM_CAP`` bounds the
walk: the product of the action counts of the decision states in the
start states' closure; ``enumerate_policies``, which yields every policy,
bounds the full product.

Each pass first censors the model onto its decision states, the states
with a choice (``chains.censor``), over only the closure of its start
states under every action: the single-action states there are eliminated
once, leaving integer rows over the closure's decision states and fixed
classes (closed classes of single-action states, whose gain is solved
once), each with the reward, constraint and step totals it collects until
the next node. A decision state outside the closure is never reached: it
takes its first action and multiplies every count. The walk holds each row
as one integer equation and eliminates each decision state as it fixes its
action (the stochastic complement taken one state at a time; Meyer 1989,
SIAM Review 31(2); Grassmann, Taksar & Heyman 1985, Oper. Res. 33(5)): the
node's equation is the pivot, and ``lp.eliminate``, the package's one
exact row update, clears the node's column from the equations still open,
totals included. A node whose own column has cleared (its self-loop has
mass 1) closes a recurrent class of the policy's chain; its gain is the
semi-Markov ratio of the summed reward to the summed steps (Puterman 1994,
ch. 11), W the same with the constraint, and the node stays as an
absorbing column. When no open node is left to reach, each start equation
is a distribution over the classes, and V and W are its mix of the class
gains. These are exactly the V and W of the policy's full chain, with no
decomposition, stationary or absorption solve per policy.

Each leaf stays in integers: at each start it keeps V and W as one
integer mix ``(V, *W, d)``, the ``chains.class_sums`` of the class sums
weighed by the start's absorption distribution, so d, the class mass
weighted by the step sums, is positive; the start rows need no column of
their own to carry it. A leaf builds no ``Policy`` and no ``Fraction``.
``solve`` streams one pass over the canonical policies, analysing each
once and keeping only the best so far; the filter compares values
crosswise and tests feasibility on numerators, and only the row that
answers gets its ``Policy`` and, by ``chains.gain``, its ``Fraction``s. A
question that filters the policies more than once (the audit) keeps the
pass in one ``PolicyTable``, with V and W at every start state it needs;
both filter the rows with the same ``_best``.
"""

import itertools
import math
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Iterator, NamedTuple

from cmdpkit import chains
from cmdpkit.lp import eliminate
from cmdpkit.model import (
    EnumerationCapExceeded, InputError, Mdp, Policy, UnknownStateError, _check_cap,
)

# The public names, the cap's exception among them: it lives in ``model``
# with the other input limits, and still resolves here.
__all__ = ["EnumerationCapExceeded", "PolicyTable", "SolveResult", "enumerate_policies", "solve"]


def _options(mdp: Mdp) -> list[tuple[tuple[str, str], ...]]:
    """Each state's (state, action) pairs, which every policy shares."""
    return [
        tuple((state, action) for action in actions)
        for state, actions in zip(mdp.states, mdp.actions)
    ]


def enumerate_policies(mdp: Mdp) -> Iterator[Policy]:
    """All deterministic stationary policies in lexicographic order.

    The cap is checked first, on the product of every state's action count.
    """
    _check_cap(map(len, mdp.actions))
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
    order; the policy takes the first action everywhere else. ``values[k]``
    belongs to the k-th start state asked for: the integers ``(V, *W, d)``,
    whose ratios to the positive d are V and W there (``chains.gain``).
    They are ``chains.class_sums`` over the classes the start is absorbed
    into, so d is the class mass weighted by the classes' step sums, up to
    a positive factor: only the ratios are promised. ``count`` is the
    number of policies the row stands for: those that agree with the row's
    policy on every state it reaches from the start states.
    """

    key: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]
    count: int


def _policy(options: list[tuple[tuple[str, str], ...]], key: tuple[int, ...]) -> Policy:
    """The policy of a row's ``key``, over ``_options``' pairs."""
    actions = iter(key)
    return Policy(choice=tuple(
        pairs[next(actions)] if len(pairs) > 1 else pairs[0] for pairs in options
    ))


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


def _rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every canonical policy, analysed once, in depth-first order.

    The walk runs on the censored chain (``chains.censor``), built once per
    pass, and carries, at each of its nodes, the integer equations that are
    still open: every action row of each decision node not yet fixed, and
    one row per start state, each over the open nodes and the classes with
    the totals collected on the way (``_equation``; a start row is its
    entry row negated, with no column of its own).
    It branches on the lowest-index open decision node that a start row
    puts mass on. Fixing action a there takes its equation as the pivot: if
    its own column is present (self-mass below 1), ``lp.eliminate`` clears
    that column from the start rows and, unless that completes the policy,
    from every other open node's rows. If its own column has cleared
    (self-mass 1), the node closes a class: its gains are the ratios of its
    negated reward and constraint totals to its negated step total, and it
    stays an absorbing column. A policy is complete when no start row
    reaches an open node, with action 0 elsewhere. Each start row's class
    entries (the fixed classes and the closed nodes) are then minus a
    positive multiple of its absorption distribution, because
    ``lp.eliminate`` keeps every row a positive multiple of its rational
    row; so V and W are ``chains.class_sums`` of the class sums weighed by
    those negated entries, kept as integers, whose step sum d is positive.
    The leaf yields its key, its count and those mixes, and nothing else.
    The censored chain covers only the closure of the start states, so the
    key has action 0 at every decision state outside it, and the count
    multiplies their action counts. The cap bounds the walk: the product of
    the action counts of the closure's decision states, checked before the
    first step.
    """
    censored = chains.censor(mdp, indices)
    counts = [len(mdp.actions[s]) for s in censored.decision]
    _check_cap(counts)
    decision = len(censored.decision)
    nodes = decision + len(censored.fixed)
    totals = range(nodes, nodes + 2 + mdp.constraint_dim)
    # The key runs over every decision state of the model, by its node in
    # the censored chain, or -1 outside the closure, which is never fixed.
    node = {s: k for k, s in enumerate(censored.decision)}
    slots = [node.get(s, -1) for s, acts in enumerate(mdp.actions) if len(acts) > 1]
    unreached = math.prod(
        len(acts) for s, acts in enumerate(mdp.actions) if len(acts) > 1 and s not in node
    )
    # Each stack item: a walk node, as the actions fixed so far by decision
    # node, the action equations by node (read only for open nodes), the
    # start equations and the class sums by class column; then the open
    # node to fix and its action, or -1 at the root.
    root = ({}, [tuple(_equation(row, k) for row in actions)
                 for k, actions in enumerate(censored.rows)],
            [{c: -x for c, x in row[0].items()} for row in censored.entry],
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
            yield TableRow(
                tuple(fixed.get(j, 0) for j in slots),
                tuple(tuple(chains.class_sums(
                    [-start[c] for c in start if c in gains],
                    [(gains[c], gains[c][-1]) for c in start if c in gains],
                )) for start in starts),
                unreached * math.prod(counts[j] for j in range(decision) if j not in fixed),
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
    rows: Iterable[TableRow],
    k: int,
    slack: tuple[Rational, ...] | None,
    policy: Callable[[tuple[int, ...]], Policy],
) -> tuple[SolveResult, TableRow | None]:
    """The row with the largest V[k], then the smallest key, of W[k] - slack >= 0.

    Returns the result and that row (None when no row is feasible). The
    scan stays in integers: over one row's d, W >= p/q is W q >= p d, and
    V is compared crosswise. Only the best row gets ``Fraction``s and, by
    ``policy``, its ``Policy``. The counts add every policy a row stands
    for. A canonical row has the V and W of the policies it stands for and
    the smallest key among them, so the best row holds the smallest best
    action tuple.
    """
    floors = itertools.repeat((0, 1)) if slack is None else [
        (c.numerator, c.denominator) for c in slack
    ]
    best: TableRow | None = None
    best_v = best_d = 0
    feasible = total = 0
    for row in rows:
        total += row.count
        v, *w, d = row.values[k]
        if any(c * q < p * d for c, (p, q) in zip(w, floors)):
            continue
        feasible += row.count
        gap = 1 if best is None else v * best_d - best_v * d
        if gap > 0 or (gap == 0 and row.key < best.key):
            best, best_v, best_d = row, v, d
    if best is None:
        return SolveResult(
            status="infeasible", policy=None, value=None, W_at_optimum=None,
            feasible_count=0, total_count=total,
        ), None
    value, w = chains.gain(best.values[k])
    if slack is not None:
        w = tuple(c - s for c, s in zip(w, slack))
    return SolveResult(
        status="optimal", policy=policy(best.key), value=value,
        W_at_optimum=w, feasible_count=feasible, total_count=total,
    ), best


class PolicyTable:
    """Every canonical policy, analysed once, with V and W at given states.

    A policy is canonical for the union of its reach sets from all the
    table's states, so every column is exact. Rows are sorted by key,
    which is the order ``enumerate_policies`` yields their policies in,
    and hold integers; a row's ``Policy`` is built the first time the row
    answers a query (``policy``). Memory grows with canonical policies
    times states, so only questions that filter the rows more than once
    build a table.
    """

    def __init__(self, mdp: Mdp, states: tuple[str, ...]):
        self.states = tuple(states)
        self.constraint_dim = mdp.constraint_dim
        self._column = {state: k for k, state in enumerate(self.states)}
        self._options = _options(mdp)
        self._policies: dict[tuple[int, ...], Policy] = {}
        rows = _rows(mdp, [mdp.state_index(s) for s in self.states])
        self.rows = tuple(sorted(rows, key=lambda row: row.key))

    def column(self, state: str) -> int:
        """Position of a start state in the rows' values.

        A state outside the table raises ``UnknownStateError``, an
        ``InputError``.
        """
        try:
            return self._column[state]
        except KeyError:
            raise UnknownStateError(
                f"state {state!r} is not a start state of this table"
            ) from None

    def policy(self, key: tuple[int, ...]) -> Policy:
        """The policy of the row with ``key``, built once per table."""
        policy = self._policies.get(key)
        if policy is None:
            policy = self._policies[key] = _policy(self._options, key)
        return policy

    def solve(
        self, x: str, slack: tuple[Rational, ...] | None = None
    ) -> SolveResult:
        """``solve(mdp, x)``, or with every constraint shifted by -slack.

        A uniform shift moves every W by exactly -slack, because stationary
        vectors and absorption rows each sum to 1, and leaves V alone; so
        the shifted problem needs no model of its own. A slack with other
        than ``constraint_dim`` components, or with a component that is not
        a ``numbers.Rational``, raises InputError.
        """
        if slack is not None:
            if len(slack) != self.constraint_dim:
                raise InputError(
                    f"slack has {len(slack)} components, but constraint_dim is "
                    f"{self.constraint_dim}"
                )
            for component in slack:
                if not isinstance(component, Rational):
                    raise InputError(f"slack component {component!r} is not rational")
        return _best(self.rows, self.column(x), slack, self.policy)[0]


def solve(mdp: Mdp, x: str | None = None) -> SolveResult:
    """Best feasible policy from x (default: the model's initial state).

    Among policies with W(x) >= 0 componentwise, returns one maximizing
    V(x); ties keep the policy with the smallest action tuple. Infeasibility
    is a status, not an error. The policies are streamed: memory does not
    grow with their number, and only the answer's ``Policy`` is built.
    """
    start = mdp.initial_state if x is None else x
    rows = _rows(mdp, [mdp.state_index(start)])
    return _best(rows, 0, None, lambda key: _policy(_options(mdp), key))[0]
