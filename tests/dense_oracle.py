"""Dense reference for ``cmdpkit.chains`` and the ``cmdpkit.model`` kernel readers.

The solves are the Gauss-Jordan elimination the package used before it
switched to sparse elimination along the SCC DAG. They update whole rows,
zeros included, and solve the full transient block at once, so they share
no elimination logic with the code under test.

The chains are the dense matrices the package used before it held each
model's kernel as sparse successor rows only: ``dense_kernel`` expands
``mdp.successors`` into dense rows over all states, ``dense_chain`` picks
rows of it and every support here is a ``p > 0`` scan over a dense row.
Only ``closed_classes`` (Tarjan on an adjacency list) is shared with the
code under test. Property tests require the two to agree exactly.

``validate`` and ``serialize_instance`` are the model checks and the
document rendering the package ran on the dense kernel, kept as oracles
for the ones that read the successor rows. ``sparse_kernel`` is the one
way test code turns dense rows into a model's ``successors``.

``sparse_solve`` is the rational sparse elimination ``chains._sparse_solve``
used before it became fraction-free over the integers, on ``Fraction``
rows, kept as a second reference for the integer solve.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterator

from cmdpkit.chains import closed_classes
from cmdpkit.model import (
    Chain,
    Mdp,
    Policy,
    Successors,
    ValidationReport,
    Violation,
    format_rational,
    validate_policy,
)

Matrix = tuple[tuple[Fraction, ...], ...]
Kernel = tuple[Matrix, ...]

ZERO = Fraction(0)


def dense_row(row: Successors, size: int) -> tuple[Fraction, ...]:
    dense = [ZERO] * size
    for k, p in row:
        dense[k] = p
    return tuple(dense)


def dense_kernel(mdp: Mdp) -> Kernel:
    """``kernel[i][j]``: the row of action j at state i over all states."""
    return tuple(
        tuple(dense_row(row, len(mdp.states)) for row in rows)
        for rows in mdp.successors
    )


def sparse_kernel(kernel) -> tuple[tuple[Successors, ...], ...]:
    """Successor rows of dense rows: every nonzero entry, negative ones too."""
    return tuple(
        tuple(tuple((k, p) for k, p in enumerate(row) if p != 0) for row in rows)
        for rows in kernel
    )


def document_kernel(doc: dict) -> Kernel:
    """Dense rows of an instance document's ``transitions``, as parsed before."""
    index = {sdoc["id"]: i for i, sdoc in enumerate(doc["states"])}
    kernel = []
    for sdoc in doc["states"]:
        rows = []
        for adoc in sdoc["actions"]:
            row = [ZERO] * len(index)
            for target, prob in adoc["transitions"].items():
                row[index[target]] = Fraction(prob)
            rows.append(tuple(row))
        kernel.append(tuple(rows))
    return tuple(kernel)


def dense_chain(mdp: Mdp, policy: Policy) -> Matrix:
    """Square stochastic matrix of the policy-induced chain, dense rows."""
    validate_policy(mdp, policy)
    rows = []
    for i, state in enumerate(mdp.states):
        j = mdp.actions[i].index(policy.action_for(state))
        rows.append(dense_row(mdp.successors[i][j], mdp.num_states))
    return tuple(rows)


def sparse(matrix: Matrix) -> Chain:
    """Successor rows of a dense matrix: the form ``cmdpkit.chains`` reads."""
    return tuple(tuple((j, p) for j, p in enumerate(row) if p > 0) for row in matrix)


def support_adjacency(matrix: Matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(j for j, p in enumerate(row) if p > 0) for row in matrix
    )


def union_adjacency(mdp: Mdp) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted({j for row in rows for j, p in enumerate(row) if p > 0}))
        for rows in dense_kernel(mdp)
    )


def decompose(matrix: Matrix):
    return closed_classes(support_adjacency(matrix))


def forward_distributions(
    matrix: Matrix, start: int, horizon: int
) -> Iterator[dict[int, Fraction]]:
    """{state: positive mass} at t = 0 .. horizon by dense vector products."""
    n = len(matrix)
    current = [Fraction(0)] * n
    current[start] = Fraction(1)
    for t in range(horizon + 1):
        if t:
            current = [
                sum((current[i] * matrix[i][j] for i in range(n)), Fraction(0))
                for j in range(n)
            ]
        yield {s: mass for s, mass in enumerate(current) if mass}


def reachable_states(mdp: Mdp, policy: Policy | None, x: str) -> tuple[str, ...]:
    """States with positive mass at some t < n under the policy, or in the
    all-actions closure when ``policy`` is None."""
    if policy is None:
        adjacency = union_adjacency(mdp)
    else:
        adjacency = support_adjacency(dense_chain(mdp, policy))
    seen = {mdp.state_index(x)}
    for _ in range(mdp.num_states):
        seen |= {j for s in seen for j in adjacency[s]}
    return tuple(mdp.states[i] for i in sorted(seen))


def values_at(mdp: Mdp, policy: Policy, s: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """V and W from state index s: class gains mixed by absorption."""
    matrix = dense_chain(mdp, policy)
    classes = decompose(matrix).recurrent_classes
    row = absorption_probs(matrix)[s]
    v = Fraction(0)
    w = [Fraction(0)] * mdp.constraint_dim
    for prob, cls in zip(row, classes):
        for p, state in zip(stationary_distribution(matrix, cls), cls):
            j = mdp.actions[state].index(policy.action_for(mdp.states[state]))
            v += prob * p * mdp.rewards[state][j]
            for k, c in enumerate(mdp.constraints[state][j]):
                w[k] += prob * p * c
    return v, tuple(w)


def solve_linear(a: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan solve of a X = rhs for multiple right-hand columns.

    Raises ValueError on a singular system.
    """
    n = len(a)
    width = len(rhs[0]) if rhs else 0
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:n + width] for row in aug]


def sparse_solve(
    rows: list[dict[int, Fraction]], rhs: list[list[Fraction]]
) -> list[list[Fraction]]:
    """Exact solve of A X = rhs, A given as sparse rows {column: coefficient}.

    The unknowns are the columns 0..len(rows)-1. Each column is pivoted on
    the remaining row with the fewest nonzeros, which keeps fill-in low;
    forward elimination is followed by back substitution. ``rows`` and
    ``rhs`` are consumed. Raises ValueError on a singular system.
    """
    n = len(rows)
    holders: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    order: list[tuple[int, int]] = []
    for col in range(n):
        candidates = holders[col]
        if not candidates:
            raise ValueError("singular linear system")
        pivot = min(candidates, key=lambda r: (len(rows[r]), r))
        candidates.discard(pivot)
        pivot_row = rows[pivot]
        for c in pivot_row:
            holders[c].discard(pivot)
        pivot_rhs = rhs[pivot]
        head = pivot_row[col]
        for r in candidates:
            row = rows[r]
            factor = row.pop(col) / head
            for c, v in pivot_row.items():
                if c == col:
                    continue
                updated = row.get(c, ZERO) - factor * v
                if updated:
                    if c not in row:
                        holders[c].add(r)
                    row[c] = updated
                elif c in row:
                    del row[c]
                    holders[c].discard(r)
            target = rhs[r]
            for k, v in enumerate(pivot_rhs):
                if v:
                    target[k] -= factor * v
        order.append((col, pivot))

    solution: list[list[Fraction]] = [[] for _ in range(n)]
    for col, pivot in reversed(order):
        row = rows[pivot]
        values = rhs[pivot]
        for c, v in row.items():
            if c != col:
                for k, x in enumerate(solution[c]):
                    if x:
                        values[k] -= v * x
        head = row[col]
        solution[col] = [v / head for v in values]
    return solution


def stationary_distribution(matrix: Matrix, cls: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Invariant vector of a closed, strongly connected class."""
    members = set(cls)
    for s in cls:
        for j, p in enumerate(matrix[s]):
            if p > 0 and j not in members:
                raise ValueError(f"class is not closed: state {s} leaks to {j}")
    decomposition = closed_classes(
        tuple(
            tuple(cls.index(j) for j, p in enumerate(matrix[s]) if p > 0)
            for s in cls
        )
    )
    if len(decomposition.recurrent_classes) != 1 or decomposition.transient_states:
        raise ValueError("class is not strongly connected")

    k = len(cls)
    # p (M - I) = 0 with one equation replaced by the normalization sum p = 1.
    a = [[matrix[cls[j]][cls[i]] - (1 if i == j else 0) for j in range(k)]
         for i in range(k)]
    a[0] = [Fraction(1)] * k
    rhs = [[Fraction(1)] if i == 0 else [Fraction(0)] for i in range(k)]
    solution = solve_linear(a, rhs)
    return tuple(row[0] for row in solution)


def absorption_probs(matrix: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Hitting probabilities of every recurrent class from every state."""
    decomposition = decompose(matrix)
    classes = decomposition.recurrent_classes
    transient = decomposition.transient_states
    n = len(matrix)
    class_of = {}
    for c, cls in enumerate(classes):
        for s in cls:
            class_of[s] = c

    rows: list[list[Fraction]] = [[Fraction(0)] * len(classes) for _ in range(n)]
    for s in range(n):
        if s in class_of:
            rows[s][class_of[s]] = Fraction(1)

    if transient:
        # First-step equations: (I - Q) h_C = one-step mass into C.
        a = [[(1 if i == j else 0) - matrix[s][sp]
              for j, sp in enumerate(transient)]
             for i, s in enumerate(transient)]
        rhs = []
        for s in transient:
            entry = [Fraction(0)] * len(classes)
            for sp, p in enumerate(matrix[s]):
                if p > 0 and sp in class_of:
                    entry[class_of[sp]] += p
            rhs.append(entry)
        solution = solve_linear([[Fraction(x) for x in row] for row in a], rhs)
        for i, s in enumerate(transient):
            rows[s] = solution[i]

    return tuple(tuple(row) for row in rows)


def validate(mdp: Mdp) -> ValidationReport:
    """``model.validate`` as it ran on the dense kernel.

    Defined on models whose successor rows name each state at most once;
    the sparse-only ``row-shape`` cases have no dense form.
    """
    kernel = dense_kernel(mdp)
    violations: list[Violation] = []

    def add(kind: str, state: str | None, action: str | None, message: str) -> None:
        violations.append(Violation(kind, state, action, message))

    labels = list(mdp.states)
    if len(set(labels)) != len(labels):
        dupes = sorted({s for s in labels if labels.count(s) > 1})
        add("duplicate-state", None, None, f"duplicate state labels: {dupes}")
    if mdp.initial_state not in set(labels):
        add("initial-state", None, None,
            f"initial state {mdp.initial_state!r} is not a model state")

    n = mdp.constraint_dim
    if n < 0:
        add("constraint-dim", None, None, f"constraint_dim must be >= 0, got {n}")

    per_state = (
        ("actions", mdp.actions), ("kernel", kernel),
        ("rewards", mdp.rewards), ("constraints", mdp.constraints),
    )
    for name, entries in per_state:
        if len(entries) != len(mdp.states):
            add("state-shape", None, None,
                f"{name} has {len(entries)} entries for {len(mdp.states)} states")
    aligned = min(len(entries) for _, entries in per_state)

    for i, state in enumerate(mdp.states[:aligned]):
        acts = mdp.actions[i]
        if not acts:
            add("no-actions", state, None, f"state {state!r} has no actions")
        if len(set(acts)) != len(acts):
            add("duplicate-action", state, None,
                f"state {state!r} has duplicate action labels")
        rows, constraints = kernel[i], mdp.constraints[i]
        for name, entries in (
            ("kernel rows", rows), ("rewards", mdp.rewards[i]),
            ("constraint vectors", constraints),
        ):
            if len(entries) != len(acts):
                add("action-shape", state, None,
                    f"state {state!r} has {len(acts)} actions but "
                    f"{len(entries)} {name}")
        for j, action in enumerate(acts):
            row = rows[j] if j < len(rows) else None
            if row is not None and len(row) != len(mdp.states):
                add("row-shape", state, action,
                    f"kernel row of ({state!r}, {action!r}) has length {len(row)}")
            elif row is not None:
                negatives = [mdp.states[k] for k, p in enumerate(row) if p < 0]
                if negatives:
                    add("row-negative", state, action,
                        f"negative transition probability at ({state!r}, {action!r}) "
                        f"towards {negatives}")
                total = sum(row, Fraction(0))
                if total != 1:
                    add("row-sum", state, action,
                        f"kernel row of ({state!r}, {action!r}) sums to "
                        f"{format_rational(total)}, not 1")
            if j < len(constraints) and len(constraints[j]) != n:
                add("constraint-length", state, action,
                    f"constraint vector of ({state!r}, {action!r}) has length "
                    f"{len(constraints[j])}, expected {n}")

    return ValidationReport(violations=tuple(violations))


def serialize_instance(mdp: Mdp) -> dict:
    """``model.serialize_instance`` as it ran on the dense kernel."""
    kernel = dense_kernel(mdp)
    states = []
    for i, state in enumerate(mdp.states):
        action_docs = []
        for j, action in enumerate(mdp.actions[i]):
            transitions = {
                mdp.states[k]: format_rational(p)
                for k, p in enumerate(kernel[i][j])
                if p != 0
            }
            action_docs.append({
                "id": action,
                "reward": format_rational(mdp.rewards[i][j]),
                "constraint": [format_rational(c) for c in mdp.constraints[i][j]],
                "transitions": transitions,
            })
        states.append({"id": state, "actions": action_docs})
    return {
        "constraint_dim": mdp.constraint_dim,
        "initial_state": mdp.initial_state,
        "states": states,
    }


def instance_to_json(mdp: Mdp) -> str:
    return json.dumps(serialize_instance(mdp), indent=2, sort_keys=True) + "\n"
