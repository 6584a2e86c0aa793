"""Structural analysis of policy-induced Markov chains.

A chain is a tuple of sparse successor rows (``model.Chain``), one per
state: the ``(index, probability)`` pairs with positive probability, as
``model.induced_chain`` hands them out from the model's compiled rows.
Nothing here scans a dense transition row.

Recurrent classes are the closed strongly connected components of the
support graph; everything else is transient. Stationary distributions and
absorption probabilities are exact rationals from sparse elimination:

- the invariant vector of a class comes from one sparse solve of the
  class's size, so periodic classes are handled through their unique
  invariant (Cesaro frequency) vector with no aperiodicity requirement;
- absorption probabilities are solved along the DAG of strongly connected
  transient components, sink components first (Tarjan order), so each
  component is a small system of its own and a singleton needs only back
  substitution. One decomposition feeds that solve: ``closed_classes``
  keeps the transient components its one Tarjan pass finds, and the DAG
  solve runs no search of its own;
- ``censor`` eliminates a model's single-action states once, for every
  policy: the same DAG solve (``_solve_along_dag``, shared with
  ``absorption_map``) gives each eliminated state and each decision
  state's action its integer row over the decision states and the fixed
  classes (closed classes made only of single-action states): the hitting
  distribution, then the expected reward, constraint and step totals until
  the hit. The solver's walk turns each row into one integer equation and
  eliminates its decision states from them by ``lp.eliminate``, one at a
  time (the stochastic complement; Meyer 1989, SIAM Review 31(2)); a fixed
  class is an absorbing column with its gain solved once;
- one gain formula serves the full chains and the fixed classes:
  ``class_sums`` weighs a class's members' integer totals by its
  stationary vector, and ``ratio_gain`` divides the reward and constraint
  sums by the step sum, which is the stationary average on a full chain,
  where every step has T = 1.

The elimination runs on integers only. Each equation is scaled by the
lcm of the denominators in its row, so every coefficient is an integer;
``_sparse_solve`` updates rows by ``lp.eliminate``, the fraction-free
step the simplex and the solver's walk use too, and returns numerators
over one common denominator. Each system has a unique solution, so the values do not
depend on the pivot order. ``Fraction``s appear only at the boundary:
reading the chain's probabilities and building the returned vectors;
``censor`` returns its rows as integers.

All functions are pure over immutable inputs and keep no state between
calls; callers that need a chain's analysis more than once hold on to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple, Sequence

from cmdpkit.lp import eliminate
from cmdpkit.model import (
    Chain,
    InputError,
    Mdp,
    Policy,
    Successors,
    induced_chain,
    int_max_str_digits,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class ChainDecomposition(NamedTuple):
    """Partition of the state indices of a chain.

    ``recurrent_classes`` are sorted by smallest member index, members
    ascending; together with ``transient_states`` they partition the full
    index set. ``transient_components`` are the strongly connected
    components of the transient states, members ascending, sink first
    (Tarjan order): every edge out of a component reaches an earlier one
    or a recurrent class.
    """

    recurrent_classes: tuple[tuple[int, ...], ...]
    transient_states: tuple[int, ...]
    transient_components: tuple[tuple[int, ...], ...]


def _strongly_connected_components(adjacency: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Iterative Tarjan on an adjacency list, deterministic output order."""
    n = len(adjacency)
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    found: set[int] = set()
    scc_queue: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for source in range(n):
        if source in found:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                counter += 1
                preorder[v] = counter
            descend = False
            for w in adjacency[v]:
                if w not in preorder:
                    stack.append(w)
                    descend = True
                    break
            if descend:
                continue
            lowlink[v] = preorder[v]
            for w in adjacency[v]:
                if w not in found:
                    if preorder[w] > preorder[v]:
                        lowlink[v] = min(lowlink[v], lowlink[w])
                    else:
                        lowlink[v] = min(lowlink[v], preorder[w])
            stack.pop()
            if lowlink[v] == preorder[v]:
                found.add(v)
                component = [v]
                while scc_queue and preorder[scc_queue[-1]] > preorder[v]:
                    k = scc_queue.pop()
                    found.add(k)
                    component.append(k)
                components.append(sorted(component))
            else:
                scc_queue.append(v)
    return components


def support_adjacency(chain: Chain) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(j for j, _ in row) for row in chain)


def union_adjacency(mdp: Mdp) -> tuple[tuple[int, ...], ...]:
    """Successors of each state under any of its actions, ascending."""
    return tuple(
        tuple(sorted({j for row in rows for j, _ in row}))
        for rows in mdp.successors
    )


def closed_classes(adjacency: tuple[tuple[int, ...], ...]) -> ChainDecomposition:
    """Closed SCCs of an adjacency structure, rest transient."""
    recurrent: list[tuple[int, ...]] = []
    transient: list[tuple[int, ...]] = []
    for component in _strongly_connected_components(adjacency):
        members = set(component)
        closed = all(
            target in members for v in component for target in adjacency[v]
        )
        (recurrent if closed else transient).append(tuple(component))
    recurrent.sort(key=lambda cls: cls[0])
    return ChainDecomposition(
        recurrent_classes=tuple(recurrent),
        transient_states=tuple(sorted(s for component in transient for s in component)),
        transient_components=tuple(transient),
    )


def decompose(chain: Chain) -> ChainDecomposition:
    """Recurrent classes and transient states of a chain."""
    return closed_classes(support_adjacency(chain))


def _sparse_solve(
    rows: list[dict[int, int]], rhs: list[list[int]]
) -> tuple[list[list[int]], int]:
    """Exact solve of A X = rhs over the integers, A as sparse rows {column: coefficient}.

    Returns ``(numerators, denominator)``: X[i][k] = numerators[i][k] /
    denominator, with one positive common denominator.

    The unknowns are the columns 0..len(rows)-1; right-hand side k is
    stored in its row under the key ``~k``. Each column is pivoted on the
    open row holding it with the fewest stored entries, right-hand sides
    included, ties to the lower row index, which keeps fill-in low; every
    other open row holding the column is updated by ``lp.eliminate``. Back
    substitution keeps one common denominator, the lcm of those of the
    unknowns solved so far, each in lowest terms, and rescales the
    numerators already found when it grows. The solution is unique, so the
    returned values do not depend on the pivot order. ``rows`` is
    consumed. Raises ValueError on a singular system.
    """
    n = len(rows)
    width = len(rhs[0]) if rhs else 0
    for row, targets in zip(rows, rhs):
        for k, t in enumerate(targets):
            if t:
                row[~k] = t
    open_rows = list(range(n))
    order: list[tuple[int, int]] = []
    for col in range(n):
        candidates = [r for r in open_rows if col in rows[r]]
        if not candidates:
            raise ValueError("singular linear system")
        pivot = min(candidates, key=lambda r: (len(rows[r]), r))
        open_rows.remove(pivot)
        for r in candidates:
            if r != pivot:
                eliminate(rows[r], rows[pivot], col)
        order.append((col, pivot))

    numerators: list[list[int]] = [[] for _ in range(n)]
    denominator = 1
    for col, pivot in reversed(order):
        row = rows[pivot]
        values = [denominator * row.get(~k, 0) for k in range(width)]
        for c, v in row.items():
            if c > col:
                for k, x in enumerate(numerators[c]):
                    if x:
                        values[k] -= v * x
        # X[col] = values / (denominator * head); reduce, then widen the
        # common denominator to the lcm of the old one and this one's.
        own = denominator * row[col]
        g = gcd(own, *values)
        if own < 0:
            g = -g
        own //= g
        widened = lcm(denominator, own)
        if widened != denominator:
            grow = widened // denominator
            for solved in numerators:
                for k, x in enumerate(solved):
                    solved[k] = x * grow
            denominator = widened
        spread = denominator // own
        numerators[col] = [v // g * spread for v in values]
    return numerators, denominator


def stationary_distribution(chain: Chain, cls: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Unique invariant vector of a recurrent class, aligned with ``cls``.

    The class must be closed and strongly connected under the chain;
    all returned entries are positive and sum to exactly 1.
    """
    position = {s: i for i, s in enumerate(cls)}
    support = [chain[s] for s in cls]
    for s, row in zip(cls, support):
        for j, _ in row:
            if j not in position:
                raise ValueError(f"class is not closed: state {s} leaks to {j}")
    decomposition = closed_classes(
        tuple(tuple(position[j] for j, _ in row) for row in support)
    )
    if len(decomposition.recurrent_classes) != 1 or decomposition.transient_states:
        raise ValueError("class is not strongly connected")

    k = len(cls)
    if k == 1:
        return (Fraction(1),)
    # p (M - I) = 0 has rank k - 1: fix p[0] and drop the equation of
    # column 0. Row and unknown i - 1 belong to column and member i. Member
    # i's row of M is scaled by D[i], the lcm of its denominators, so the
    # unknowns are q[i] = p[i] / D[i] and every coefficient is an integer;
    # with q[0] = 1 the weights are D[i] q[i].
    scales = [lcm(*(p.denominator for _, p in entries)) for entries in support]
    rows: list[dict[int, int]] = [{} for _ in range(k - 1)]
    rhs = [[0] for _ in range(k - 1)]
    for i, entries in enumerate(support):
        d = scales[i]
        for j, p in entries:
            column = position[j]
            if column == 0:
                continue
            coefficient = p.numerator * (d // p.denominator)
            if i == 0:
                rhs[column - 1][0] -= coefficient
            else:
                rows[column - 1][i - 1] = coefficient
    for i, row in enumerate(rows):
        diagonal = row.get(i, 0) - scales[i + 1]
        if diagonal:
            row[i] = diagonal
        else:
            del row[i]
    numerators, denominator = _sparse_solve(rows, rhs)
    weights = [scales[0] * denominator] + [
        d * x[0] for d, x in zip(scales[1:], numerators)
    ]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _solve_along_dag(
    chain: Sequence[Successors],
    components: Sequence[tuple[int, ...]],
    solved: list[tuple[list[int], int]],
    width: int,
    constants: dict[int, tuple[list[int], int]],
) -> None:
    """Solve h(s) = constant(s) + sum_j p(s, j) h(j) for every transient s.

    Every vector is ``width`` integer numerators over one positive
    denominator. ``components`` are the transient strongly connected
    components, sink first (``ChainDecomposition.transient_components``),
    so the states a component leaks to are solved before it. ``solved[j]``
    holds h(j) for every other state that a transient row reaches, and
    ``constants`` the constant term of the states that have one (zero for
    the others). Each first-step equation is scaled by the lcm of the
    denominators in its row, so the right-hand sides are integers; a
    singleton component needs only back substitution, a larger one is a
    sparse solve of its own size. ``solved`` receives every transient
    state's h in lowest terms.
    """
    for component in components:
        members = {s: m for m, s in enumerate(component)}
        # (I - Q) h = constant + one-step mass into solved states, each
        # equation scaled by the lcm of the denominators in its row.
        coefficients: list[dict[int, int]] = []
        rhs: list[list[int]] = []
        for m, s in enumerate(component):
            entries = chain[s]
            constant = constants.get(s)
            d = lcm(constant[1] if constant else 1, *(
                p.denominator if j in members else p.denominator * solved[j][1]
                for j, p in entries
            ))
            coefficient = {m: d}
            if constant:
                mass = [x * (d // constant[1]) for x in constant[0]]
            else:
                mass = [0] * width
            for j, p in entries:
                if j in members:
                    other = members[j]
                    coefficient[other] = (
                        coefficient.get(other, 0) - p.numerator * (d // p.denominator)
                    )
                else:
                    numerators, denominator = solved[j]
                    weight = p.numerator * (d // (p.denominator * denominator))
                    for k, h in enumerate(numerators):
                        if h:
                            mass[k] += weight * h
            coefficients.append(coefficient)
            rhs.append(mass)
        if len(component) == 1:
            numerators, denominator = rhs, coefficients[0][0]
        else:
            numerators, denominator = _sparse_solve(coefficients, rhs)
        for s, row in zip(component, numerators):
            g = gcd(denominator, *row)
            solved[s] = ([h // g for h in row], denominator // g)


def absorption_map(
    chain: Chain, decomposition: ChainDecomposition | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Hitting probabilities rows[state][class] of every recurrent class.

    The rows are dense over the classes, which are in the order of
    ``decompose(chain)``, computed here unless the caller passes it.
    Transient states are solved along the DAG of the decomposition's
    transient components, sink first (``_solve_along_dag`` with no
    constant term). Solved rows are held as integer numerators over a
    denominator and become Fractions on return. Every row sums to exactly 1.
    """
    if decomposition is None:
        decomposition = decompose(chain)
    classes = decomposition.recurrent_classes
    transient = decomposition.transient_states
    width = len(classes)
    solved: list[tuple[list[int], int]] = [([], 1)] * len(chain)
    for c, cls in enumerate(classes):
        unit = ([1 if k == c else 0 for k in range(width)], 1)
        for s in cls:
            solved[s] = unit
    _solve_along_dag(chain, decomposition.transient_components, solved, width, {})

    rows: list[tuple[Fraction, ...]] = [()] * len(chain)
    for c, cls in enumerate(classes):
        unit = tuple(Fraction(1) if k == c else ZERO for k in range(width))
        for s in cls:
            rows[s] = unit
    for s in transient:
        numerators, denominator = solved[s]
        rows[s] = tuple(Fraction(h, denominator) for h in numerators)
    return tuple(rows)


Gain = tuple[Fraction, tuple[Fraction, ...]]
Totals = tuple[Sequence[int], int]
Row = tuple[dict[int, int], int]


def step_totals(mdp: Mdp, s: int, a: int) -> tuple[list[int], int]:
    """Action a at state s as ``[reward, *constraint, 1]`` over one denominator."""
    values = (mdp.rewards[s][a], *mdp.constraints[s][a], ONE)
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def class_sums(pi: Sequence[Fraction], totals: Sequence[Totals]) -> list[int]:
    """``[sum(pi R), *sum(pi C), sum(pi T)]`` of a recurrent class, as integers.

    ``pi`` is the class's stationary vector and ``totals[m]`` member m's
    ``[reward, *constraint, steps]`` as integer numerators over one
    positive denominator: the totals of one excursion of a censored chain
    (Puterman 1994, ch. 11), or of one step of a full chain, where every
    T is 1. The weights are brought over one lcm, so the sums are integer
    dot products, all scaled by the same positive factor: only their ratios
    to the step sum, the class's gains, are meaningful.
    """
    scale = lcm(*(p.denominator * d for p, (_, d) in zip(pi, totals)))
    sums = [0] * len(totals[0][0])
    for p, (numerators, d) in zip(pi, totals):
        weight = p.numerator * (scale // (p.denominator * d))
        sums = [total + weight * x for total, x in zip(sums, numerators)]
    return sums


def ratio_gain(pi: Sequence[Fraction], totals: Sequence[Totals]) -> Gain:
    """Reward and constraint gains sum(pi R) / sum(pi T) of a recurrent class.

    The sums are ``class_sums(pi, totals)``; on a full chain every T is 1
    and the gains are plain stationary averages.
    """
    reward, *constraint, steps = class_sums(pi, totals)
    return Fraction(reward, steps), tuple(Fraction(c, steps) for c in constraint)


class CensoredChain(NamedTuple):
    """A model's chain censored onto its decision states, for every policy.

    States with one action have the same row under every policy, so they
    are eliminated once per model (the stochastic complement; Meyer 1989).
    Nodes ``0 .. len(decision) - 1`` are the decision states, the states
    with at least two actions, ascending; node ``len(decision) + f`` stands
    for ``fixed[f]``, a closed class made only of single-action states,
    which every policy has. Every other single-action state is left, almost
    surely, for a decision state or a fixed class.

    Every row is a ``Row``: integer numerators by column over one positive
    denominator, in lowest terms, zero entries absent, never mutated.
    Columns ``0 .. nodes - 1`` are the nodes and the next ``2 +
    constraint_dim`` the totals, reward, constraint vector and steps, where
    ``nodes = len(decision) + len(fixed)``. ``rows[k][a]`` is action a at
    ``decision[k]``: the distribution of the first node entered after the
    step, passing only through eliminated states, then the expected totals
    up to that entry, the step itself included. ``entry[s]`` is the same
    for every state s, from s itself: a decision state or a fixed-class
    state enters its own node at once, with zero totals. ``fixed_gains[f]``
    is ``class_sums`` of ``fixed[f]``: its reward and constraint gains are
    the ratios of the first entries to the last.
    """

    decision: tuple[int, ...]
    fixed: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[Row, ...], ...]
    fixed_gains: tuple[list[int], ...]
    entry: tuple[Row, ...]


def censor(mdp: Mdp) -> CensoredChain:
    """Eliminate every single-action state once: one pass for all policies.

    One graph holds the single-action states with their rows, the decision
    states with no successors, and one more state per decision state's
    action with that action's row. Its one decomposition gives the fixed
    classes, its recurrent classes of single-action states, each with one
    stationary solve and ``class_sums``, and the DAG of its transient
    components: the other single-action states and the actions, which are
    sources and so solved last. One ``_solve_along_dag`` over
    ``len(decision) + len(fixed) + 2 + constraint_dim`` columns gives each
    its row: a node is a unit vector with zero totals, and a transient
    state adds its reward, its constraint vector and one step as the
    constant term.
    """
    n = mdp.num_states
    decision = tuple(s for s in range(n) if len(mdp.actions[s]) > 1)
    chain = [rows[0] if len(rows) == 1 else () for rows in mdp.successors]
    # The (state, action) whose row and totals each graph state carries.
    origin = [(s, 0) for s in range(n)]
    actions: list[range] = []
    for s in decision:
        actions.append(range(len(chain), len(chain) + len(mdp.successors[s])))
        chain.extend(mdp.successors[s])
        origin.extend((s, a) for a in range(len(mdp.successors[s])))
    decomposition = closed_classes(support_adjacency(chain))
    fixed = tuple(
        cls for cls in decomposition.recurrent_classes if len(mdp.actions[cls[0]]) == 1
    )

    nodes = len(decision) + len(fixed)
    width = nodes + 2 + mdp.constraint_dim
    solved: list[tuple[list[int], int]] = [([], 1)] * len(chain)
    for node, members in enumerate([(s,) for s in decision] + list(fixed)):
        unit = ([1 if k == node else 0 for k in range(width)], 1)
        for s in members:
            solved[s] = unit
    constants: dict[int, tuple[list[int], int]] = {}
    for t in decomposition.transient_states:
        numerators, d = step_totals(mdp, *origin[t])
        constants[t] = ([0] * nodes + numerators, d)
    _solve_along_dag(chain, decomposition.transient_components, solved, width, constants)

    def row(t: int) -> Row:
        numerators, denominator = solved[t]
        return {c: x for c, x in enumerate(numerators) if x}, denominator

    return CensoredChain(
        decision=decision,
        fixed=fixed,
        rows=tuple(tuple(row(t) for t in ts) for ts in actions),
        fixed_gains=tuple(
            class_sums(
                stationary_distribution(chain, cls), [step_totals(mdp, s, 0) for s in cls]
            )
            for cls in fixed
        ),
        entry=tuple(row(s) for s in range(n)),
    )


MAX_TIME = 10_000


class TimeLimitError(InputError):
    """Raised when a requested time exceeds ``MAX_TIME`` or the size bound."""


def max_denominator_bits() -> int:
    """Size bound on the denominators of an exact time-t distribution.

    The bound in bits equals the interpreter's limit on decimal digits in
    an int-to-str conversion (``model.int_max_str_digits()``: 4300 when the
    limit is off, or on Python 3.10, which has none). A number below 2**b
    has at most 0.302 b + 1 decimal digits, so the distribution, and the
    residual slack formed from it with a few products and one quotient,
    still print.
    """
    return int_max_str_digits()


def forward_distributions(
    chain: Chain, start: int, horizon: int
) -> Iterator[dict[int, Fraction]]:
    """Exact distributions of X_0 .. X_horizon given X_0 = start.

    One forward sweep over the successor rows of the occupied states,
    yielding the sparse distribution {state: positive mass} at t = 0, 1,
    .., horizon; callers must not modify it. Raises TimeLimitError as soon
    as a denominator exceeds ``max_denominator_bits()``.
    """
    bound = max_denominator_bits()
    current = {start: Fraction(1)}
    yield current
    for t in range(1, horizon + 1):
        following: dict[int, Fraction] = {}
        for i, mass in current.items():
            for j, p in chain[i]:
                following[j] = following.get(j, ZERO) + mass * p
        if max(m.denominator.bit_length() for m in following.values()) > bound:
            raise TimeLimitError(
                f"the exact distribution at time {t} has a denominator above "
                f"{bound} bits; ask for an earlier time"
            )
        current = following
        yield current


def state_distribution_at(chain: Chain, start: int, t: int) -> tuple[Fraction, ...]:
    """Exact distribution of X_t given X_0 = start, dense over the states.

    Computed by t forward steps (``forward_distributions``). Times above
    ``MAX_TIME``, and times whose distribution outgrows
    ``max_denominator_bits()``, raise TimeLimitError.
    """
    if t < 0:
        raise InputError("time must be nonnegative")
    if t > MAX_TIME:
        raise TimeLimitError(f"time {t} exceeds the limit of {MAX_TIME} steps")
    for current in forward_distributions(chain, start, t):
        pass
    return tuple(current.get(j, ZERO) for j in range(len(chain)))


def reachable_states(mdp: Mdp, policy: Policy | None, x: str) -> tuple[str, ...]:
    """States reachable from x, in model order.

    Under a policy: all states with positive probability at some time.
    With ``policy=None``: the closure over every action of every state
    (the weakly reachable closure used by certificate search). Finite-state
    reachability saturates at t <= number of states - 1.
    """
    start = mdp.state_index(x)
    if policy is None:
        adjacency = union_adjacency(mdp)
    else:
        adjacency = support_adjacency(induced_chain(mdp, policy))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for j in adjacency[s]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return tuple(mdp.states[i] for i in sorted(seen))
