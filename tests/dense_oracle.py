"""Dense Gauss-Jordan reference for the exact solves in ``cmdpkit.chains``.

This is the elimination the package used before it switched to sparse
elimination along the SCC DAG. It updates whole rows, zeros included, and
solves the full transient block at once, so it shares no elimination logic
with the code under test. Property tests require the two to agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

from cmdpkit.chains import Matrix, closed_classes, decompose


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
