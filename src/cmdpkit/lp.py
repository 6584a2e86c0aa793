"""Exact linear feasibility: free variables solved out, then an integer phase 1.

Finds a point satisfying a mix of equalities and inequalities over
variables that are either free or sign-constrained, in three phases.

- Free phase. ``_eliminate_forward``, the package's one sparse
  elimination, which ``chains._sparse_solve`` runs too: each free
  variable, in index order, is pivoted in on the open row holding it with
  the fewest stored entries, ties to the lower row, and that row leaves.
  Solving an equation for a variable is an equivalence, so the rows left
  are feasible exactly when the system is. A free variable no open row
  holds is 0.
- Bland phase. The rows left hold only sign-constrained and slack /
  surplus columns. Each gets an artificial, and the artificial mass is
  minimized with Bland's rule, which prevents cycling and fixes the point.
- Back substitution. ``_back_substitute``, shared with
  ``chains._sparse_solve`` as well: the free variables, last solved
  first, from their rows, with the basic values as known numerators, in
  integers over one common denominator; one ``Fraction`` is built per
  returned coordinate.

Artificial columns are never stored. They take the highest column indices,
row r's starts basic in row r, and ``basis`` keeps those still basic,
since the ratio test breaks ties on them. Bland's rule enters the least
column that prices negative, so until only artificials do, the pivots are
those of the full tableau. There the loop stops, and the answer is the
full tableau's: at phase-1 objective 0 its further pivots are degenerate,
so its point is this one; at a positive objective the basis is optimal
with the nonbasic artificials fixed at 0, so the system is infeasible.

The tableau holds integers only: each row is stored as its true row times
a positive factor of its own, starting as the constraint's integers,
sign-normalized so its right-hand side is >= 0 and made primitive. A
pivot of either phase updates each row holding the entering column by
``eliminate``, the fraction-free step shared with the solver's walk; a
row stays a primitive positive multiple of the rational row, and a row
can clear completely. The free phase updates exactly the rows that hold
a free variable, so each row's scale is fixed before it: a row holding
one is sign-normalized again after the phase, and it enters the Bland
phase as its primitive integers over scale 1; an untouched row keeps its
constraint's scale. The reduced costs weigh each row's artificial by one
over its scale, which amounts to a positive factor on the artificial's
column. Positive row and column factors change neither the sign of a
reduced cost nor the order of the ratios rhs_r / a_r, so Bland's rule
takes the pivots, ties included, of a rational tableau of the rows left.
A system with no free variable therefore takes the tableau, pivots and
point of a phase 1 on its constraints alone; where free values are left
open, the point is one of many, fixed by these rules.

Rows are sparse, ``{column: coefficient}`` with the right-hand side under
the key ``RHS``. Variable i is column i; slack / surplus columns follow.

Each constraint is a ``(coefficients, sense, rhs, scale)`` tuple, in the
form of ``chains.Row``: integer coefficients by variable index and an
integer right-hand side over one positive int scale, so the rational
constraint is sum(coefficients[i] / scale * x[i]) sense rhs / scale. Any
positive multiple of a row's integers and scale is the same constraint and
takes the same pivots. The certificate search builds its rows this way
from a model's numerators and denominators and from integer class sums.
No ``Fraction`` is built before the returned point, and there is no
tolerance anywhere.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

EQ = "=="
LE = "<="
GE = ">="

RHS = -1  # the key of a row's right-hand side


# One constraint: sum of coefficients[i] * x[i], sense, right-hand side,
# the coefficients and the right-hand side integers over the positive scale.
Constraint = tuple[Mapping[int, int], str, int, int]


def eliminate(row: dict[int, int], pivot_row: dict[int, int], column: int) -> None:
    """Clear ``column`` from ``row`` with ``pivot_row``, fraction-free, in place.

    The one exact row update of the package (Edmonds 1967; Bareiss 1968),
    shared by ``_pivot``, which both phases of the simplex and, through
    ``_eliminate_forward``, ``chains._sparse_solve`` pivot with, and the
    solver's canonical walk, which eliminates each decision state as it
    fixes its action (``solver._rows``). With p the pivot
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
    """Clear stored ``column`` from every row but ``leave``, in place."""
    pivot_row = rows[leave]
    for row in rows:
        if column in row and row is not pivot_row:
            eliminate(row, pivot_row, column)


def _eliminate_forward(
    rows: list[dict[int, int]], columns: Iterable[int]
) -> list[tuple[int, int]]:
    """Pivot each of ``columns``, in order, in place; the pivots as ``(column, row)``.

    Each column is pivoted in through ``_pivot`` on the open row holding it
    with the fewest stored entries, right-hand sides included, ties to the
    lower row, which keeps fill-in low; that row then leaves. A column no
    open row holds is skipped. The row dicts are updated, the list is not.
    """
    open_rows = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    for column in columns:
        holding = [r for r in open_rows if column in rows[r]]
        if not holding:
            continue
        held = [rows[r] for r in holding]
        sizes = [len(row) for row in held]
        # ``holding`` ascends, so the first of the fewest is the lower row.
        at = sizes.index(min(sizes))
        _pivot(held, at, column)
        leave = holding[at]
        open_rows.remove(leave)
        pivots.append((column, leave))
    return pivots


def _back_substitute(
    rows: list[dict[int, int]],
    pivots: list[tuple[int, int]],
    width: int,
    numerators: dict[int, list[int]],
    denominator: int,
) -> int:
    """Solve the pivot columns of ``_eliminate_forward``, last first; the new denominator.

    ``numerators`` maps each column known so far to its ``width`` values
    over the positive ``denominator`` (a column it lacks is 0); right-hand
    side k is stored in each row under ``~k``. Each pivot column is solved
    from its row and added, with the common denominator widened to the lcm
    of its own and the new value's in lowest terms, and every numerator is
    rescaled in place when it grows.
    """
    ks = range(width)
    for column, r in reversed(pivots):
        row = rows[r]
        values = [denominator * row.get(~k, 0) for k in ks]
        for c, v in row.items():
            known = numerators.get(c)
            if known:
                for k in ks:
                    x = known[k]
                    if x:
                        values[k] -= v * x
        own = denominator * row[column]
        g = gcd(own, *values)
        if own < 0:
            g = -g
        own //= g
        widened = lcm(denominator, own)
        if widened != denominator:
            grow = widened // denominator
            for known in numerators.values():
                for k in ks:
                    known[k] *= grow
            denominator = widened
        spread = denominator // own
        for k in ks:
            values[k] = values[k] // g * spread
        numerators[column] = values
    return denominator


def find_feasible_point(
    num_vars: int,
    constraints: list[Constraint],
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

    # Integer rows over the variables' and the slack / surplus columns, and
    # the rhs, each over its constraint's scale, sign-normalized so every
    # rhs is >= 0 and divided by its content; a slack or surplus of the
    # rational row is 1, so the scale here. The true row is the stored one
    # times content / scale, kept as the pair ``weights``.
    artificial_start = num_vars + sum(1 for _, sense, _, _ in constraints if sense != EQ)
    rows: list[dict[int, int]] = []
    weights: list[tuple[int, int]] = []
    slack = num_vars
    for coefficients, sense, rhs, scale in constraints:
        if sense not in (EQ, LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        if type(scale) is not int or scale < 1:
            raise ValueError(f"row scale {scale!r} is not a positive int")
        for i in coefficients:
            if not 0 <= i < num_vars:
                raise ValueError(f"variable index {i} out of range")
        sign = -1 if rhs < 0 else 1
        row = {i: sign * v for i, v in coefficients.items() if v}
        # The free phase updates a row exactly when it holds a free
        # variable, and such a row enters the Bland phase over scale 1.
        holds_free = not nonneg.issuperset(row)
        if sense != EQ:
            row[slack] = sign * scale if sense == LE else -sign * scale
            slack += 1
        if rhs:
            row[RHS] = sign * rhs
        content = gcd(*row.values())
        if content > 1:
            for c in row:
                row[c] //= content
        rows.append(row)
        weights.append((1, 1) if holds_free else (content, scale))

    # Free phase: each free variable leaves with its pivot row, kept in
    # ``free_rows`` for back substitution; the rows left, in order, go on.
    pivots = _eliminate_forward(rows, (i for i in range(num_vars) if i not in nonneg))
    left = {r for _, r in pivots}
    weights = [w for r, w in enumerate(weights) if r not in left]
    free_rows, rows = rows, [row for r, row in enumerate(rows) if r not in left]
    for row in rows:
        if row.get(RHS, 0) < 0:
            for c in row:
                row[c] = -row[c]

    # Reduced costs of the phase-1 objective, the artificials' sum in the
    # true rows (each stored row times its content / scale), with the
    # negated objective under RHS: a positive multiple of the true row,
    # divided by its content. It is the last row and is never a pivot row.
    # Row r's artificial, index artificial_start + r, is never stored;
    # ``basis`` holds that index while it is basic.
    m = len(rows)
    common = lcm(*(scale for _, scale in weights))
    red: dict[int, int] = {}
    for (content, scale), row in zip(weights, rows):
        w = common // scale * content
        for c, v in row.items():
            red[c] = red.get(c, 0) - w * v
    red = {c: v for c, v in red.items() if v}
    content = gcd(*red.values())
    if content > 1:
        for c in red:
            red[c] //= content
    rows.append(red)
    basis = list(range(artificial_start, artificial_start + m))

    while True:
        # Bland: the least column with a negative reduced cost. None left
        # means the phase-1 optimum (see the module docstring).
        enter = min((c for c, v in red.items() if v < 0 and c != RHS), default=None)
        if enter is None:
            break
        leave = None
        for r in range(m):
            a = rows[r].get(enter, 0)
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
        _pivot(rows, leave, enter)
        basis[leave] = enter

    if red.get(RHS):  # a positive phase-1 objective
        return None

    # Basic values rhs_r / a_r, a_r > 0, as numerators over the lcm of the
    # a_r; then the free variables by back substitution.
    basic = [(b, row) for b, row in zip(basis, rows) if b < artificial_start]
    denominator = lcm(*(row[b] for b, row in basic))
    numerators = {b: [row.get(RHS, 0) * (denominator // row[b])] for b, row in basic}
    denominator = _back_substitute(free_rows, pivots, 1, numerators, denominator)
    return [Fraction(numerators.get(i, (0,))[0], denominator) for i in range(num_vars)]
