"""Exact linear feasibility via an integer-preserving phase-1 simplex.

Finds a point satisfying a mix of equalities and inequalities over
variables that are either free or sign-constrained. Free variables are
split into differences of nonnegatives, every row receives an artificial
variable, and the artificial mass is minimized with Bland's rule, which
both prevents cycling and makes the returned point deterministic.

The tableau holds integers only (Edmonds 1967; Bareiss 1968). Each row is
scaled, with its right-hand side, by the lcm of its denominators, and its
artificial keeps the coefficient 1, which amounts to rescaling that
artificial's column by the positive row factor. After every pivot the
tableau is the true one times the last pivot element, and each update
divides exactly. Positive row and column scalings change neither the sign
of a reduced cost nor the order of a ratio test, so Bland's rule takes the
pivots a rational tableau would take, and the structural values, which no
column scaling touches, come out the same.

Coefficients, bounds and the returned point are Fractions; there is no
tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

ZERO = Fraction(0)

EQ = "=="
LE = "<="
GE = ">="


@dataclass(frozen=True)
class LinearConstraint:
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


def find_feasible_point(
    num_vars: int,
    constraints: list[LinearConstraint],
    nonnegative: frozenset[int] | set[int],
) -> list[Fraction] | None:
    """A point satisfying all constraints, or None when the system is infeasible."""
    nonneg = frozenset(nonnegative)
    if not nonneg.issubset(range(num_vars)):
        raise ValueError("nonnegative indices out of range")

    # Column layout: nonnegative vars get one column, free vars a +/- pair.
    col_of: list[tuple[int, ...]] = []
    n_struct = 0
    for i in range(num_vars):
        if i in nonneg:
            col_of.append((n_struct,))
            n_struct += 1
        else:
            col_of.append((n_struct, n_struct + 1))
            n_struct += 2

    # Integer rows: structural, slack / surplus and artificial columns, then
    # the rhs. Each row is scaled by the lcm of its denominators and
    # sign-normalized so every rhs is >= 0; its artificial has coefficient 1.
    m = len(constraints)
    artificial_start = n_struct + sum(1 for c in constraints if c.sense != EQ)
    rows: list[list[int]] = []
    scales: list[int] = []
    slack = n_struct
    for r, constraint in enumerate(constraints):
        values = [ZERO] * artificial_start
        for i, coeff in constraint.coeffs:
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
            cols = col_of[i]
            values[cols[0]] += coeff
            if len(cols) == 2:
                values[cols[1]] -= coeff
        if constraint.sense != EQ:
            values[slack] = 1 if constraint.sense == LE else -1
            slack += 1
        values.append(constraint.rhs)
        scale = lcm(*(v.denominator for v in values))
        sign = -1 if constraint.rhs < 0 else 1
        *row, b = (sign * v.numerator * (scale // v.denominator) for v in values)
        rows.append(row + [int(k == r) for k in range(m)] + [b])
        scales.append(scale)
    basis = list(range(artificial_start, artificial_start + m))

    # Reduced costs of the phase-1 objective, the artificials' sum in the
    # unscaled rows (so row r's artificial costs 1/scale_r), held as
    # d * lcm(scales) times their true values: the pivot update keeps them
    # integers like any other row.
    weights = [lcm(*scales) // s for s in scales]
    red = [-sum(w * row[j] for w, row in zip(weights, rows)) for j in range(artificial_start)]
    red += [0] * (m + 1)

    # After each pivot the tableau is d times the rational one, d being the
    # last pivot element; the updates divide exactly (Sylvester's identity).
    d = 1
    while True:
        enter = next((j for j in range(artificial_start + m) if red[j] < 0), None)
        if enter is None:
            break
        candidates = [r for r, row in enumerate(rows) if row[enter] > 0]
        if not candidates:
            # Phase-1 objective is bounded below by zero, so this is unreachable
            # for well-formed input; guard against it anyway.
            raise ArithmeticError("phase-1 simplex detected an unbounded direction")
        leave = candidates[0]
        for r in candidates[1:]:
            # Least rhs / coefficient, compared crosswise; ties go to the
            # least basic index.
            diff = rows[r][-1] * rows[leave][enter] - rows[leave][-1] * rows[r][enter]
            if diff < 0 or (diff == 0 and basis[r] < basis[leave]):
                leave = r
        pivot_row = rows[leave]
        pivot = pivot_row[enter]
        for r, row in enumerate(rows):
            factor = row[enter]
            if r != leave and factor:
                rows[r] = [(pivot * x - factor * y) // d for x, y in zip(row, pivot_row)]
            elif r != leave and pivot != d:
                rows[r] = [pivot * x // d for x in row]
        factor = red[enter]
        red = [(pivot * x - factor * y) // d for x, y in zip(red, pivot_row)]
        basis[leave] = enter
        d = pivot

    if any(rows[r][-1] for r, b in enumerate(basis) if b >= artificial_start):
        return None

    column_values = [ZERO] * (artificial_start + m)
    for r, b in enumerate(basis):
        column_values[b] = Fraction(rows[r][-1], d)
    point = []
    for i in range(num_vars):
        cols = col_of[i]
        if len(cols) == 1:
            point.append(column_values[cols[0]])
        else:
            point.append(column_values[cols[0]] - column_values[cols[1]])
    return point
