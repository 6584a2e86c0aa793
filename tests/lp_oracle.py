"""Earlier phase-1 simplices and a rational free phase: the references for ``cmdpkit.lp``.

``split_find_feasible_point`` is the integer simplex ``cmdpkit.lp`` ran
before it solved out the free variables: every free variable is split
into a difference of nonnegatives, every row starts on an artificial and
Bland's rule runs on the whole system. Solving out a free variable by one
of its equations is an equivalence, so it must give the same verdict on
every system, and, where every variable is sign-constrained, the same
point.

``find_feasible_point`` and ``bareiss_find_feasible_point`` are two
earlier phase-1 simplices, each behind ``free_phase``, the free phase of
``cmdpkit.lp`` in ``Fraction``s: the same pivot rows, rows the phase
updates handed on as their primitive integers, and back substitution in
the reverse order. The first keeps every tableau entry as a ``Fraction``,
normalizes the pivot row and updates the reduced costs by subtracting
rows, so it shares no arithmetic with the code under test. The second is
the integer simplex that replaced it and was in turn replaced by per-row
scales: dense rows, one Bareiss scale for the whole tableau, every row
rescaled at every pivot. Property tests require both to return the point
``cmdpkit.lp`` returns, or ``None``.

``checked_eliminate`` is ``cmdpkit.lp.eliminate``, the row update of both
the simplex and the sparse solve, with each update checked against the
rational one; tests patch it in where a caller looks ``eliminate`` up.

``from_rationals`` brings a rational constraint to the ``lp.Constraint``
form, integers over the lcm of its denominators, as the certificate
search once did for its class-gain rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from cmdpkit import lp
from cmdpkit.lp import EQ, GE, LE, RHS, _pivot

# One rational constraint: a map from variable index to coefficient, the
# sense and the right-hand side, the form ``from_rationals`` converts.
Constraint = tuple[dict[int, Fraction], str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def from_rationals(coefficients, sense: str, rhs) -> lp.Constraint:
    """The constraint with rational coefficients and rhs, over the lcm of their denominators."""
    scale = lcm(rhs.denominator, *(v.denominator for v in coefficients.values()))
    return (
        {i: v.numerator * (scale // v.denominator) for i, v in coefficients.items()},
        sense, rhs.numerator * (scale // rhs.denominator), scale,
    )

_eliminate = lp.eliminate


def checked_eliminate(row: dict[int, int], pivot_row: dict[int, int], column: int) -> None:
    """``lp.eliminate``, checked against the rational row update.

    The row must become a positive multiple of row - (f/p) pivot_row, f
    and p the two rows' entries in ``column``, with ``column`` cleared and
    no common factor, or empty when that update is all zero; the pivot row
    must be left as it is.
    """
    old, pivot = dict(row), dict(pivot_row)
    _eliminate(row, pivot_row, column)
    assert pivot_row == pivot
    ratio = Fraction(old[column], pivot[column])
    expected = {c: old.get(c, 0) - ratio * pivot.get(c, 0) for c in old | pivot}
    assert column not in row
    assert set(row) <= set(expected)
    assert gcd(*row.values()) <= 1
    if not row:
        # A row can clear completely.
        assert not any(expected.values())
        return
    key = next(iter(row))
    multiple = row[key] / expected[key]
    assert multiple > 0
    assert all(row.get(c, 0) == multiple * v for c, v in expected.items())


def fraction_phase1(
    num_vars: int,
    constraints: list[Constraint],
    nonnegative: frozenset[int] | set[int],
    entered: list[int] | None = None,
) -> list[Fraction] | None:
    """A point satisfying all constraints, or None when the system is infeasible.

    Each entering column is appended to ``entered`` when it is given.
    """
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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    senses: list[str] = []
    for coefficients, sense, b in constraints:
        row = [ZERO] * n_struct
        for i, coeff in coefficients.items():
            cols = col_of[i]
            row[cols[0]] += coeff
            if len(cols) == 2:
                row[cols[1]] -= coeff
        rows.append(row)
        rhs.append(Fraction(b))
        senses.append(sense)

    # Slack / surplus columns, then sign-normalize so every rhs is >= 0.
    n_slack = sum(1 for s in senses if s != EQ)
    slack_base = n_struct
    k = 0
    for r, sense in enumerate(senses):
        rows[r].extend([ZERO] * n_slack)
        if sense != EQ:
            rows[r][slack_base + k] = ONE if sense == LE else -ONE
            k += 1
    for r in range(len(rows)):
        if rhs[r] < 0:
            rows[r] = [-x for x in rows[r]]
            rhs[r] = -rhs[r]

    m = len(rows)
    n_total = n_struct + n_slack + m
    for r in range(m):
        rows[r].extend(ONE if i == r else ZERO for i in range(m))
    basis = [n_struct + n_slack + r for r in range(m)]
    artificial_start = n_struct + n_slack

    # Reduced-cost row for minimizing the sum of artificials.
    red = [ZERO] * n_total
    for j in range(artificial_start, n_total):
        red[j] = ONE
    for r in range(m):
        red = [c - a for c, a in zip(red, rows[r])]

    while True:
        enter = next((j for j in range(n_total) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for r in range(m):
            coeff = rows[r][enter]
            if coeff > 0:
                ratio = rhs[r] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            # Phase-1 objective is bounded below by zero, so this is unreachable
            # for well-formed input; guard against it anyway.
            raise ArithmeticError("phase-1 simplex detected an unbounded direction")
        if entered is not None:
            entered.append(enter)
        pivot = rows[leave][enter]
        rows[leave] = [x / pivot for x in rows[leave]]
        rhs[leave] = rhs[leave] / pivot
        for r in range(m):
            if r != leave and rows[r][enter] != 0:
                factor = rows[r][enter]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[leave])]
                rhs[r] = rhs[r] - factor * rhs[leave]
        if red[enter] != 0:
            factor = red[enter]
            red = [x - factor * y for x, y in zip(red, rows[leave])]
        basis[leave] = enter

    artificial_mass = sum(
        (rhs[r] for r in range(m) if basis[r] >= artificial_start), ZERO
    )
    if artificial_mass != 0:
        return None

    column_values = [ZERO] * n_total
    for r, b in enumerate(basis):
        column_values[b] = rhs[r]
    point = []
    for i in range(num_vars):
        cols = col_of[i]
        if len(cols) == 1:
            point.append(column_values[cols[0]])
        else:
            point.append(column_values[cols[0]] - column_values[cols[1]])
    return point


def bareiss_phase1(
    num_vars: int,
    constraints: list[Constraint],
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
    artificial_start = n_struct + sum(1 for _, sense, _ in constraints if sense != EQ)
    rows: list[list[int]] = []
    scales: list[int] = []
    slack = n_struct
    for r, (coefficients, sense, b) in enumerate(constraints):
        values = [ZERO] * artificial_start
        for i, coeff in coefficients.items():
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
            cols = col_of[i]
            values[cols[0]] += coeff
            if len(cols) == 2:
                values[cols[1]] -= coeff
        if sense != EQ:
            values[slack] = 1 if sense == LE else -1
            slack += 1
        values.append(b)
        scale = lcm(*(v.denominator for v in values))
        sign = -1 if b < 0 else 1
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


def primitive(row: dict[int, Fraction]) -> dict[int, Fraction]:
    """The positive multiple of ``row`` whose entries are coprime integers."""
    scale = lcm(*(v.denominator for v in row.values()))
    content = gcd(*(v.numerator * (scale // v.denominator) for v in row.values())) or 1
    return {c: v * scale / content for c, v in row.items()}


def free_phase(num_vars, constraints, nonnegative):
    """``cmdpkit.lp``'s free phase on rational rows.

    Each constraint becomes an equality over columns 0..num_vars-1 and one
    slack / surplus column per inequality after them, sign-normalized so
    its rhs is >= 0, as a dict with the rhs under ``RHS``. Each free
    variable, in index order, is solved for on the row that holds it with
    the fewest nonzero entries, ties to the lower row, and subtracted out
    of the other rows that hold it; that row leaves. Every row it updated
    becomes its primitive integers, signed so its rhs is >= 0.

    Returns the number of columns, the rows left as ``(coefficients,
    EQ, rhs)`` constraints and the ``(column, row)`` pairs solved.
    """
    columns = num_vars
    rows = []
    for coefficients, sense, rhs in constraints:
        row = {i: Fraction(v) for i, v in coefficients.items() if v}
        if sense != EQ:
            row[columns] = Fraction(1 if sense == LE else -1)
            columns += 1
        if rhs:
            row[RHS] = Fraction(rhs)
        if rhs < 0:
            row = {c: -v for c, v in row.items()}
        rows.append(row)
    touched = [False] * len(rows)
    solved = []
    for column in range(num_vars):
        holding = [r for r, row in enumerate(rows) if column in row]
        if column in nonnegative or not holding:
            continue
        leave = min(holding, key=lambda r: (len(rows[r]), r))
        pivot = rows[leave]
        for r in holding:
            if r != leave:
                ratio = rows[r][column] / pivot[column]
                updated = {c: rows[r].get(c, 0) - ratio * pivot.get(c, 0) for c in rows[r] | pivot}
                rows[r] = {c: v for c, v in updated.items() if v}
                touched[r] = True
        solved.append((column, rows.pop(leave)))
        del touched[leave]
    left = []
    for row, changed in zip(rows, touched):
        if changed:
            row = primitive(row)
            if row.get(RHS, 0) < 0:
                row = {c: -v for c, v in row.items()}
        rhs = row.pop(RHS, ZERO)
        left.append((row, EQ, rhs))
    return columns, left, solved


def with_free_phase(phase1):
    """``phase1`` on the rows ``free_phase`` leaves, every column nonnegative,
    then each solved variable from its row, the last solved first."""
    def find(num_vars, constraints, nonnegative, **kwargs):
        if not frozenset(nonnegative).issubset(range(num_vars)):
            raise ValueError("nonnegative indices out of range")
        columns, rows, solved = free_phase(num_vars, constraints, nonnegative)
        point = phase1(columns, rows, set(range(columns)), **kwargs)
        if point is None:
            return None
        for column, row in reversed(solved):
            point[column] = (row.get(RHS, ZERO) - sum(
                (v * point[c] for c, v in row.items() if c not in (column, RHS)), ZERO
            )) / row[column]
        return point[:num_vars]
    return find


find_feasible_point = with_free_phase(fraction_phase1)
bareiss_find_feasible_point = with_free_phase(bareiss_phase1)


def split_find_feasible_point(
    num_vars: int,
    constraints: list[lp.Constraint],
    nonnegative: frozenset[int] | set[int],
) -> list[Fraction] | None:
    """A point satisfying all constraints, or None when the system is infeasible.

    Each constraint is a ``(coefficients, sense, rhs, scale)`` tuple: a
    map from variable index to integer coefficient, one of ``EQ``, ``LE``
    and ``GE``, the integer right-hand side and the positive int scale that
    all of them are over. A sense outside those three, an index outside
    ``range(num_vars)`` or a scale that is not a positive int raises
    ValueError.
    """
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

    # Integer rows over structural and slack / surplus columns, and the rhs,
    # each over its constraint's scale and sign-normalized so every rhs is
    # >= 0; a slack or surplus of the rational row is 1, so the scale here.
    # Row r's artificial, index artificial_start + r, is never stored;
    # ``basis`` holds that index while it is basic.
    m = len(constraints)
    artificial_start = n_struct + sum(1 for _, sense, _, _ in constraints if sense != EQ)
    rows: list[dict[int, int]] = []
    scales: list[int] = []
    slack = n_struct
    for coefficients, sense, rhs, scale in constraints:
        if sense not in (EQ, LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        if type(scale) is not int or scale < 1:
            raise ValueError(f"row scale {scale!r} is not a positive int")
        for i in coefficients:
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
        sign = -1 if rhs < 0 else 1
        row = {col_of[i]: sign * v for i, v in coefficients.items() if v}
        if sense != EQ:
            row[slack] = sign * scale if sense == LE else -sign * scale
            slack += 1
        if rhs:
            row[RHS] = sign * rhs
        rows.append(row)
        scales.append(scale)
    basis = list(range(artificial_start, artificial_start + m))

    # Reduced costs of the phase-1 objective, the artificials' sum in the
    # unscaled rows (so row r's artificial costs 1/scale_r), with the
    # negated objective under RHS: lcm(scales) times the true row. The
    # reduced-cost row is the last row and is never a pivot row. Only then
    # is each row divided by its content, so that every row starts primitive.
    common = lcm(*scales)
    red: dict[int, int] = {}
    for scale, row in zip(scales, rows):
        w = common // scale
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
