"""Structural analysis of policy-induced Markov chains.

A chain is a tuple of sparse successor rows (``model.Chain``), one per
state: the ``(index, probability)`` pairs with positive probability, as
``model.induced_chain`` shares them from the model's own rows
(``Mdp.successors``). Nothing here scans a dense transition row.

Recurrent classes are the closed strongly connected components of the
support graph; everything else is transient. Class visits, stationary
distributions and absorption probabilities are exact, from sparse
elimination:

- a class's visit counts come from one sparse solve of the class's size:
  the expected visits to each member in one excursion from its first, as
  integers over one scale (``class_visits``). They need no aperiodicity,
  and the same solve checks that the class is strongly connected. The
  invariant (Cesaro frequency) vector, ``stationary_distribution``, is
  those counts normalised;
- absorption probabilities are solved along the DAG of strongly connected
  transient components, sink components first (Tarjan order), so each
  component is a small system of its own and a singleton is one back
  substitution, with no system built. One decomposition feeds that solve:
  ``closed_classes`` keeps the transient components its one Tarjan pass
  finds, and the DAG solve runs no search of its own;
- ``censor`` eliminates the single-action states that the start states
  reach under some policy once, for every policy: the same DAG solve
  (``_solve_along_dag``, shared with ``absorption_map`` and
  ``evaluation.analyse_policy``) gives each eliminated state and each
  reached decision state's action its integer row over those decision
  states and the fixed classes (closed classes made only of
  single-action states): the hitting distribution, then the expected
  reward, constraint and step totals until the hit. The solver's
  walk turns each row into one integer equation and eliminates its
  decision states from them by ``lp.eliminate``, one at a time (the
  stochastic complement; Meyer 1989, SIAM Review 31(2)); a fixed class is
  an absorbing column with its gain solved once. States that no start
  reaches are not solved at all;
- one gain formula serves the full chains, the fixed classes, the
  solver walk's leaves and ``simulate``'s averages: ``class_sums`` weighs
  integer ``[reward, *constraint, steps]`` totals by integer weights (a
  class's members' totals by its visit counts, the classes' sums by a
  start's absorption distribution, the visited states' one-step totals
  by their visits), and a gain is the ratio of a reward or constraint sum
  to the step sum (renewal-reward: what one excursion collects over its
  length). On a full chain every step has T = 1, and the ratio is the
  stationary average. ``gain`` is the formula's one reader: the only code
  that turns such sums into ``Fraction``s.

The elimination runs on integers only. Each equation is scaled by the
lcm of the denominators in its row, so every coefficient is an integer;
``_sparse_solve`` updates rows by ``lp.eliminate``, the fraction-free
step the simplex and the solver's walk use too, and returns numerators
over one common denominator. Each system has a unique solution, so the values do not
depend on the pivot order. ``Fraction``s appear only at the boundary:
reading the chain's probabilities, building the returned vectors and
``gain``; ``censor`` builds none and returns its rows and class sums as
integers.

All functions are pure over immutable inputs and keep no state between
calls; callers that need a chain's analysis more than once hold on to it.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from cmdpkit.lp import eliminate
from cmdpkit.model import (
    MAX_TIME,
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


def _strongly_connected_components(
    adjacency: Sequence[Sequence[int]], sources: Iterable[int] | None = None
) -> list[list[int]]:
    """Iterative Tarjan on an adjacency list, deterministic output order.

    Components come in the order they close, each sorted. The search
    starts from ``sources`` in order (every node when None), so only the
    nodes they reach get a component and only their adjacency is read.
    Every frame of the depth-first search holds an iterator over its
    node's successors, so each edge is read once.
    """
    n = len(adjacency)
    preorder = [0] * n  # 0: not reached yet
    lowlink = [0] * n
    found = [False] * n
    scc_queue: list[int] = []  # reached, left and not yet in a component
    components: list[list[int]] = []
    counter = 0
    for source in range(n) if sources is None else sources:
        if preorder[source]:
            continue
        counter += 1
        preorder[source] = lowlink[source] = counter
        frames = [(source, iter(adjacency[source]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if not preorder[w]:
                    counter += 1
                    preorder[w] = lowlink[w] = counter
                    frames.append((w, iter(adjacency[w])))
                    break
                if not found[w]:
                    lowlink[v] = min(lowlink[v], preorder[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == preorder[v]:
                    component = [v]
                    while scc_queue and preorder[scc_queue[-1]] > preorder[v]:
                        component.append(scc_queue.pop())
                    for k in component:
                        found[k] = True
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


def closed_classes(
    adjacency: Sequence[Sequence[int]], sources: Iterable[int] | None = None
) -> ChainDecomposition:
    """Closed SCCs of an adjacency structure, rest transient.

    With ``sources``, only the nodes they reach are partitioned.
    """
    recurrent: list[tuple[int, ...]] = []
    transient: list[tuple[int, ...]] = []
    for component in _strongly_connected_components(adjacency, sources):
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


def decompose(chain: Chain, sources: Iterable[int] | None = None) -> ChainDecomposition:
    """Recurrent classes and transient states of a chain.

    With ``sources``, only the states they reach are partitioned.
    """
    return closed_classes(support_adjacency(chain), sources)


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


def class_visits(chain: Chain, cls: tuple[int, ...]) -> list[int]:
    """Expected visits to each member of a recurrent class in one excursion from ``cls[0]``.

    Positive integers aligned with ``cls``, all over one positive scale:
    ``visits[m] / visits[0]`` is the expected number of visits to member m
    between two visits to member 0 (Puterman 1994, App. A), so they are
    the class's invariant vector up to that scale.

    The class must be closed and strongly connected under the chain.
    Closure is checked on the rows, strong connectivity by the solve
    itself, with no search: with member 0's visits fixed, the system is I
    - Q over the other members, Q the chain among them. On a closed set
    their rows leak only to member 0, so the system is nonsingular iff
    every member reaches member 0, and a member's visits are 0 exactly
    when member 0 does not reach it. A singular system or a zero count
    therefore raises.
    """
    position = {s: i for i, s in enumerate(cls)}
    support = [chain[s] for s in cls]
    for s, row in zip(cls, support):
        for j, _ in row:
            if j not in position:
                raise ValueError(f"class is not closed: state {s} leaks to {j}")

    k = len(cls)
    if k == 1:
        return [1]
    # p (M - I) = 0 has rank k - 1: fix p[0] and drop the equation of
    # column 0. Row and unknown i - 1 belong to column and member i. Member
    # i's row of M is scaled by D[i], the lcm of its denominators, so the
    # unknowns are q[i] = p[i] / D[i] and every coefficient is an integer;
    # with q[0] = 1 the visits are D[i] q[i].
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
    try:
        numerators, denominator = _sparse_solve(rows, rhs)
    except ValueError:
        raise ValueError("class is not strongly connected") from None
    visits = [scales[0] * denominator] + [d * x[0] for d, x in zip(scales[1:], numerators)]
    if not all(visits):
        raise ValueError("class is not strongly connected")
    return visits


def stationary_distribution(chain: Chain, cls: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Unique invariant vector of a recurrent class, aligned with ``cls``.

    ``class_visits`` normalised: every entry is positive and they sum to
    exactly 1. Periodic classes get their unique invariant (Cesaro
    frequency) vector. Raises ValueError, as ``class_visits`` does, when
    the class is not closed or not strongly connected.
    """
    visits = class_visits(chain, cls)
    total = sum(visits)
    return tuple(Fraction(v, total) for v in visits)


def _first_step(
    entries: Successors,
    constant: tuple[list[int], int] | None,
    inside: Container[int],
    solved: list[tuple[list[int], int]],
    width: int,
) -> tuple[int, list[int], list[tuple[int, int]]]:
    """One first-step equation, scaled by the lcm d of its row's denominators.

    Returns d, the constant plus the one-step mass into the solved states,
    as ``width`` integers over d, and the integer weights p d of the
    states in ``inside``, as ``(state, weight)`` pairs.
    """
    d = lcm(constant[1] if constant else 1, *(
        p.denominator if j in inside else p.denominator * solved[j][1] for j, p in entries
    ))
    if constant:
        mass = [x * (d // constant[1]) for x in constant[0]]
    else:
        mass = [0] * width
    within = []
    for j, p in entries:
        if j in inside:
            within.append((j, p.numerator * (d // p.denominator)))
            continue
        numerators, denominator = solved[j]
        weight = p.numerator * (d // (p.denominator * denominator))
        for k, h in enumerate(numerators):
            if h:
                mass[k] += weight * h
    return d, mass, within


def _solve_along_dag(
    chain: Sequence[Successors],
    groups: Iterable[Iterable[int]],
    components: Sequence[tuple[int, ...]],
    width: int,
    constants: dict[int, tuple[list[int], int]],
) -> list[tuple[list[int], int]]:
    """Solve h(s) = constant(s) + sum_j p(s, j) h(j) for every transient s.

    Every vector is ``width`` integer numerators over one positive
    denominator. Column k is a node: every state of ``groups[k]`` has the
    unit vector of column k as its h, and no other state outside the
    transient components is read. ``components`` are the transient
    strongly connected components, sink first
    (``ChainDecomposition.transient_components``), so the states a
    component leaks to are solved before it, and ``constants`` holds the
    constant term of the states that have one (zero for the others). Each
    first-step equation is scaled by the lcm of the denominators in its row
    (``_first_step``), so the right-hand sides are integers. A singleton
    component is one back substitution, h = (constant + sum over j != s of
    p_j h_j) / (1 - p_self) over that lcm; a larger one is a sparse solve
    of its own size. Returns h by state index: the node states' unit
    vectors, shared by the members of a group, and every transient state's
    h in lowest terms.
    """
    solved: list[tuple[list[int], int]] = [([], 1)] * len(chain)
    for column, members in enumerate(groups):
        unit = ([1 if k == column else 0 for k in range(width)], 1)
        for s in members:
            solved[s] = unit
    for component in components:
        if len(component) == 1:
            s = component[0]
            d, mass, loop = _first_step(chain[s], constants.get(s), component, solved, width)
            own = d - sum(x for _, x in loop)
            g = gcd(own, *mass)
            solved[s] = ([h // g for h in mass], own // g)
            continue
        members = {s: m for m, s in enumerate(component)}
        # (I - Q) h = constant + one-step mass into solved states.
        coefficients: list[dict[int, int]] = []
        rhs: list[list[int]] = []
        for m, s in enumerate(component):
            d, mass, within = _first_step(chain[s], constants.get(s), members, solved, width)
            coefficient = {m: d}
            for j, x in within:
                other = members[j]
                coefficient[other] = coefficient.get(other, 0) - x
            coefficients.append(coefficient)
            rhs.append(mass)
        numerators, denominator = _sparse_solve(coefficients, rhs)
        for s, row in zip(component, numerators):
            g = gcd(denominator, *row)
            solved[s] = ([h // g for h in row], denominator // g)
    return solved


def absorption_map(
    chain: Chain, decomposition: ChainDecomposition | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Hitting probabilities rows[state][class] of every recurrent class.

    The rows are dense over the classes, which are in the order of
    ``decompose(chain)``, computed here unless the caller passes it.
    Transient states are solved along the DAG of the decomposition's
    transient components, sink first (``_solve_along_dag`` with the classes
    as its columns and no constant term). Solved rows are held as integer
    numerators over a denominator and become Fractions on return, the
    classes' unit rows shared by their members. Every row sums to exactly 1.
    """
    if decomposition is None:
        decomposition = decompose(chain)
    classes = decomposition.recurrent_classes
    width = len(classes)
    solved = _solve_along_dag(chain, classes, decomposition.transient_components, width, {})

    rows: list[tuple[Fraction, ...]] = [()] * len(chain)
    for c, cls in enumerate(classes):
        unit = tuple(ONE if k == c else ZERO for k in range(width))
        for s in cls:
            rows[s] = unit
    for s in decomposition.transient_states:
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


def class_sums(visits: Sequence[int], totals: Sequence[Totals]) -> list[int]:
    """``[sum(v R), *sum(v C), sum(v T)]`` of a recurrent class, as integers.

    ``visits`` are the class's ``class_visits`` and ``totals[m]`` member
    m's ``[reward, *constraint, steps]`` as integer numerators over one
    positive denominator: the totals of one excursion of a censored chain
    (Puterman 1994, ch. 11), or of one step of a full chain, where every T
    is 1. The totals are brought over the lcm of their denominators, so the
    sums are integer dot products, all scaled by the same positive factor:
    only their ratios to the step sum, the class's gains, are meaningful.
    """
    scale = lcm(*(d for _, d in totals))
    sums = [0] * len(totals[0][0])
    for v, (numerators, d) in zip(visits, totals):
        weight = v * (scale // d)
        sums = [total + weight * x for total, x in zip(sums, numerators)]
    return sums


def gain(sums: Sequence[int]) -> Gain:
    """The reward and constraint gains of integer ``[reward, *constraint, steps]`` sums.

    Each gain is the ratio of its sum to the positive step sum: a class's
    ``class_sums``, a mix of them, or a ``solver.TableRow``'s ``(V, *W,
    d)``. This is the one place such sums become ``Fraction``s.
    """
    reward, *constraint, steps = sums
    return Fraction(reward, steps), tuple(Fraction(c, steps) for c in constraint)


class CensoredChain(NamedTuple):
    """A model's chain censored onto its decision states, for every policy.

    Only the states some policy reaches from the start states are kept:
    their closure over every action (``_closure``). States with one action
    have the same row under every policy, so they are eliminated once per
    pass (the stochastic complement; Meyer 1989). Nodes ``0 ..
    len(decision) - 1`` are the decision states of the closure, the states
    with at least two actions, ascending; node ``len(decision) + f`` stands
    for ``fixed[f]``, a closed class of the closure made only of
    single-action states, which every policy has. Every other single-action
    state of the closure is left, almost surely, for a decision state or a
    fixed class.

    Every row is a ``Row``: integer numerators by column over one positive
    denominator, in lowest terms, zero entries absent, never mutated.
    Columns ``0 .. nodes - 1`` are the nodes and the next ``2 +
    constraint_dim`` the totals, reward, constraint vector and steps, where
    ``nodes = len(decision) + len(fixed)``. ``rows[k][a]`` is action a at
    ``decision[k]``: the distribution of the first node entered after the
    step, passing only through eliminated states, then the expected totals
    up to that entry, the step itself included. ``entry[i]`` is the same
    for the i-th start state, from that state itself: a decision state or
    a fixed-class state enters its own node at once, with zero totals.
    ``fixed_gains[f]`` is ``class_sums`` of ``fixed[f]``, weighed by its
    ``class_visits``: its reward and constraint gains are the ratios of the
    first entries to the last.
    """

    decision: tuple[int, ...]
    fixed: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[Row, ...], ...]
    fixed_gains: tuple[list[int], ...]
    entry: tuple[Row, ...]


def _closure(successors: Sequence[Sequence[Successors]], starts: Iterable[int]) -> list[int]:
    """The states reachable from ``starts`` along any of the rows, ascending.

    ``successors[s]`` holds state s's rows: every action's in a model, or
    the one row of a policy's chain. The starts are in their own closure.
    """
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        for row in successors[frontier.pop()]:
            for j, _ in row:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return sorted(seen)


def censor(mdp: Mdp, starts: Sequence[int]) -> CensoredChain:
    """Eliminate the single-action states the starts reach: one pass for all policies.

    Only the closure of ``starts`` over every action is censored; no policy
    reaches a state outside it from a start, so nothing outside is solved.
    One graph holds the closure's single-action states with their rows, its
    decision states with no successors, and one more node per decision
    state's action with that action's row. One decomposition, searched from
    those nodes only, gives the fixed classes, its recurrent classes of
    single-action states, each with one ``class_visits`` solve and
    ``class_sums``, and the DAG of its transient components: the other
    single-action states and the actions, which are sources and so solved
    last. One ``_solve_along_dag`` over ``len(decision) + len(fixed) + 2 +
    constraint_dim`` columns gives each its row: a node is a unit vector
    with zero totals, and a transient state adds its reward, its constraint
    vector and one step as the constant term. ``entry`` holds one row per
    start, in the order of ``starts``. No ``Fraction`` is built: the
    model's probabilities and totals are read as numerators and
    denominators.
    """
    closure = _closure(mdp.successors, starts)
    n = mdp.num_states
    chain: list[Successors] = [()] * n
    decision = []
    for s in closure:
        rows = mdp.successors[s]
        if len(rows) == 1:
            chain[s] = rows[0]
        else:
            decision.append(s)
    # The (state, action) whose row and totals each graph state carries.
    origin = [(s, 0) for s in range(n)]
    actions: list[range] = []
    for s in decision:
        actions.append(range(len(chain), len(chain) + len(mdp.successors[s])))
        chain.extend(mdp.successors[s])
        origin.extend((s, a) for a in range(len(mdp.successors[s])))
    # A state outside the closure has an empty row, so only the closure's
    # rows are read, and the search starts from the closure only.
    decomposition = closed_classes(
        support_adjacency(chain), closure + list(range(n, len(chain)))
    )
    fixed = tuple(
        cls for cls in decomposition.recurrent_classes if len(mdp.actions[cls[0]]) == 1
    )

    nodes = len(decision) + len(fixed)
    constants: dict[int, tuple[list[int], int]] = {}
    for t in decomposition.transient_states:
        numerators, d = step_totals(mdp, *origin[t])
        constants[t] = ([0] * nodes + numerators, d)
    solved = _solve_along_dag(
        chain, [(s,) for s in decision] + list(fixed), decomposition.transient_components,
        nodes + 2 + mdp.constraint_dim, constants,
    )

    def row(t: int) -> Row:
        numerators, denominator = solved[t]
        return {c: x for c, x in enumerate(numerators) if x}, denominator

    return CensoredChain(
        decision=tuple(decision),
        fixed=fixed,
        rows=tuple(tuple(row(t) for t in ts) for ts in actions),
        fixed_gains=tuple(
            class_sums(class_visits(chain, cls), [step_totals(mdp, s, 0) for s in cls])
            for cls in fixed
        ),
        entry=tuple(row(s) for s in starts),
    )


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
        successors = mdp.successors
    else:
        successors = [(row,) for row in induced_chain(mdp, policy)]
    return tuple(mdp.states[i] for i in _closure(successors, (start,)))
