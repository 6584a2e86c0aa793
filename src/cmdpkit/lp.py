"""Exact linear feasibility via an integer-preserving phase-1 simplex.

Finds a point satisfying a mix of equalities and inequalities over
variables that are either free or sign-constrained. Free variables are
split into differences of nonnegatives, every row receives an artificial
variable, and the artificial mass is minimized with Bland's rule, which
both prevents cycling and makes the returned point deterministic.

Artificial columns are never stored. They take the highest column indices,
row r's artificial starts basic in row r, and ``basis`` keeps the indices
of those still basic, since the ratio test breaks ties on them. Bland's
rule enters the least column that prices negative, so until only
artificials do, the pivots are those of the full tableau. There the loop
stops, and the answer is the full tableau's:

- if the phase-1 objective is 0, every further pivot of the full tableau
  would be degenerate (a positive step would push the objective below 0),
  so the basic point it ends on is this one;
- if it is positive, the basis is optimal for the problem with the
  nonbasic artificials fixed at 0. Any feasible point would give that
  problem objective 0, so the system is infeasible and the answer is None.

The tableau holds integers only, and each row keeps a positive scale of
its own: it is stored as the true row times a positive factor. A row
starts as the constraint times the lcm of its denominators, sign-normalized
so its right-hand side is >= 0. The reduced-cost row is formed from these
rows, weighted so that row r's artificial costs 1/scale_r, which amounts
to rescaling that artificial's column by the positive row factor; then
every row, the reduced-cost row included, is divided by the gcd of its
entries, so that each starts primitive. A pivot updates every row that
holds the entering column by ``eliminate``, the fraction-free step it
shares with ``chains._sparse_solve`` and the solver's canonical walk
(``solver._rows``): each row stays a primitive positive multiple of the
rational row, a row without the column is left as it is, and a row can
clear completely. Positive row factors change neither the
sign of a reduced cost nor a ratio rhs_r / a_r, in which a row's factor
cancels, and positive column factors rescale every ratio of one test
alike. So Bland's rule takes the pivots, with the same ties, that a
rational tableau would take, and a basic value is rhs_r / a_r read off
one row; basic artificials are 0 and not read.

Rows are sparse, ``{column: coefficient}`` with the right-hand side under
the key ``RHS``, so zero entries are never touched. The minus column of a
free variable is always the negation of its plus column, in every row and
in the reduced costs, so only the plus column is stored: Bland's scan and
the ratio test read the minus column as the plus column with the sign
flipped, and the layout and column indices they compare are those of the
full split.

Coefficients, bounds and the returned point are Fractions; there is no
tolerance anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple

ZERO = Fraction(0)

EQ = "=="
LE = "<="
GE = ">="

RHS = -1  # the key of a row's right-hand side


class LinearConstraint(NamedTuple):
    coeffs: tuple[tuple[int, Fraction], ...]
    sense: str
    rhs: Fraction

    @staticmethod
    def of(coeffs: Mapping[int, Fraction], sense: str, rhs: Fraction) -> "LinearConstraint":
        if sense not in (EQ, LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        return LinearConstraint(
            coeffs=tuple(sorted((i, Fraction(c)) for i, c in coeffs.items() if c != 0)),
            sense=sense,
            rhs=Fraction(rhs),
        )


def eliminate(row: dict[int, int], pivot_row: dict[int, int], column: int) -> None:
    """Clear ``column`` from ``row`` with ``pivot_row``, fraction-free, in place.

    The one exact row update of the package (Edmonds 1967; Bareiss 1968),
    shared by the simplex, ``chains._sparse_solve`` and the solver's
    canonical walk, which eliminates each decision state as it fixes its
    action (``solver._rows``). With p the pivot
    entry, f the row's entry in ``column`` and g = gcd(p, f), the row
    becomes (p/g) row - (f/g) pivot_row, the signs taken so that the row's
    factor is positive; ``column`` cancels and its entry is deleted, as is
    every other entry that becomes 0, so the row may clear completely.
    The row is then divided by the gcd of its entries, right-hand sides
    included, which callers store in the row under negative keys. The
    result is a positive multiple of the rational update: an entry is zero
    exactly when the rational update's is, so the pivots a caller takes
    are those of a rational elimination. ``pivot_row`` is not changed.
    """
    head, entry = pivot_row[column], row[column]
    g = gcd(head, entry)
    scale, factor = head // g, entry // g
    if scale < 0:
        scale, factor = -scale, -factor
    if scale != 1:
        for c in row:
            row[c] *= scale
    for c, v in pivot_row.items():
        updated = row.get(c, 0) - factor * v
        if updated:
            row[c] = updated
        else:
            del row[c]
    content = gcd(*row.values())
    if content > 1:
        for c in row:
            row[c] //= content


def _pivot(rows: list[dict[int, int]], leave: int, column: int) -> None:
    """Clear stored ``column`` from every row but ``leave``, in place.

    Pivoting on a free variable's minus column clears its plus column; the
    pivot entry is then negative, and ``eliminate`` flips both factors'
    signs.
    """
    pivot_row = rows[leave]
    for row in rows:
        if column in row and row is not pivot_row:
            eliminate(row, pivot_row, column)


def find_feasible_point(
    num_vars: int,
    constraints: list[LinearConstraint],
    nonnegative: frozenset[int] | set[int],
) -> list[Fraction] | None:
    """A point satisfying all constraints, or None when the system is infeasible."""
    nonneg = frozenset(nonnegative)
    if not nonneg.issubset(range(num_vars)):
        raise ValueError("nonnegative indices out of range")

    # Column layout: nonnegative vars get one column, free vars a +/- pair,
    # of which only the + column is stored.
    col_of: list[int] = []
    free: set[int] = set()
    n_struct = 0
    for i in range(num_vars):
        col_of.append(n_struct)
        if i in nonneg:
            n_struct += 1
        else:
            free.add(n_struct)
            n_struct += 2

    # Integer rows over structural and slack / surplus columns, and the rhs.
    # Each row is scaled by the lcm of its denominators and sign-normalized
    # so every rhs is >= 0. Row r's artificial, index artificial_start + r,
    # is never stored; ``basis`` holds that index while it is basic.
    m = len(constraints)
    artificial_start = n_struct + sum(1 for c in constraints if c.sense != EQ)
    rows: list[dict[int, int]] = []
    scales: list[int] = []
    slack = n_struct
    for constraint in constraints:
        if constraint.sense not in (EQ, LE, GE):
            raise ValueError(f"unknown sense {constraint.sense!r}")
        values: dict[int, Fraction] = {}
        for i, coeff in constraint.coeffs:
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
            values[col_of[i]] = values.get(col_of[i], ZERO) + coeff
        if constraint.sense != EQ:
            values[slack] = Fraction(1 if constraint.sense == LE else -1)
            slack += 1
        values[RHS] = constraint.rhs
        scale = lcm(*(v.denominator for v in values.values()))
        sign = -1 if constraint.rhs < 0 else 1
        rows.append({
            c: sign * v.numerator * (scale // v.denominator) for c, v in values.items() if v
        })
        scales.append(scale)
    basis = list(range(artificial_start, artificial_start + m))

    # Reduced costs of the phase-1 objective, the artificials' sum in the
    # unscaled rows (so row r's artificial costs 1/scale_r), with the
    # negated objective under RHS: lcm(scales) times the true row. The
    # reduced-cost row is the last row and is never a pivot row. Only then
    # is each row divided by its content, so that every row starts primitive.
    weights = [lcm(*scales) // s for s in scales]
    red: dict[int, int] = {}
    for w, row in zip(weights, rows):
        for c, v in row.items():
            red[c] = red.get(c, 0) - w * v
    rows.append({c: v for c, v in red.items() if v})
    for row in rows:
        content = gcd(*row.values())
        if content > 1:
            for c in row:
                row[c] //= content
    red = rows[m]

    while True:
        # Bland: the least stored column with a negative reduced cost, a
        # free variable's minus column when its plus column's is positive.
        # None left means the phase-1 optimum (see the module docstring).
        enter = min(
            (c if v < 0 else c + 1 for c, v in red.items() if c != RHS and (v < 0 or c in free)),
            default=None,
        )
        if enter is None:
            break
        column, sign = (enter - 1, -1) if enter - 1 in free else (enter, 1)
        leave = None
        for r in range(m):
            a = sign * rows[r].get(column, 0)
            if a <= 0:
                continue
            # Least rhs / coefficient, compared crosswise; ties go to the
            # least basic index. A row's own scale cancels in its ratio.
            b = rows[r].get(RHS, 0)
            if leave is not None:
                diff = b * best_a - best_b * a
                if diff > 0 or (diff == 0 and basis[r] > basis[leave]):
                    continue
            leave, best_b, best_a = r, b, a
        if leave is None:
            # Phase-1 objective is bounded below by zero, so this is unreachable
            # for well-formed input; guard against it anyway.
            raise ArithmeticError("phase-1 simplex detected an unbounded direction")
        _pivot(rows, leave, column)
        basis[leave] = enter

    if red.get(RHS):  # a positive phase-1 objective
        return None

    column_values: dict[int, Fraction] = {}
    for r, b in enumerate(basis):
        if b >= artificial_start:
            continue
        if b - 1 in free:
            column_values[b] = Fraction(rows[r].get(RHS, 0), -rows[r][b - 1])
        else:
            column_values[b] = Fraction(rows[r].get(RHS, 0), rows[r][b])
    return [
        column_values.get(c, ZERO) - column_values.get(c + 1, ZERO)
        if c in free else column_values.get(c, ZERO)
        for c in col_of
    ]
