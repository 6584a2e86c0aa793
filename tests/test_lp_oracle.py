"""The integer simplex against its references.

``lp_oracle.find_feasible_point`` keeps a ``Fraction`` tableau and
``lp_oracle.bareiss_find_feasible_point`` one Bareiss scale for a dense
integer tableau, each after the free phase in ``Fraction``s; ``cmdpkit.lp``
keeps sparse rows, each with its own positive scale, and must take the
same free pivots and the same Bland pivots, so all three return the same
point, or ``None``, on every system. ``lp_oracle.split_find_feasible_point``,
the simplex that split every free variable instead, must give the same
verdict, and the same point where every variable is sign-constrained;
every returned point satisfies each row exactly. ``cmdpkit.lp`` reads each
constraint as integers over a positive scale (``lp_oracle.from_rationals`` of the
rational row the oracles read), and any positive multiple of a row's
integers and scale must give the same point. Certificate searches must not
tell them apart either: their integer rows are brought back to rationals
for the oracles. The pivot itself is checked row by row, through
``lp_oracle.checked_eliminate``, against the rational row update: each
touched row becomes a positive multiple of it with no common factor, or
empty when the update is all zero, and every other row is left as it is.
``cmdpkit.lp`` stores no artificial column and stops when no stored
column prices negative, where the oracles go on to enter artificials; two
pinned systems reach that point.
"""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lp_oracle
from cmdpkit import lp
from cmdpkit.certificate import find_certificate
from cmdpkit.lp import EQ, GE, LE, find_feasible_point
from cmdpkit.solver import solve
from randmdp import examples, lazy_variant, random_decomposable, random_mdp, random_policy
from test_censor_oracle import recording_fractions

ORACLES = (lp_oracle.find_feasible_point, lp_oracle.bareiss_find_feasible_point)

F = Fraction


@st.composite
def coefficients(draw):
    """A small integer, now and then rescaled by k/1009 for a large denominator."""
    value = F(draw(st.integers(-5, 5)))
    if draw(st.booleans()):
        value *= F(draw(st.integers(1, 1008)), 1009)
    return value


@st.composite
def systems(draw):
    num_vars = draw(st.integers(0, 10))
    nonneg = draw(st.sets(st.integers(0, num_vars - 1))) if num_vars else set()
    # Anchored systems hold a known point, so feasible ones are common too.
    target = [
        F(draw(st.integers(0 if i in nonneg else -4, 4))) for i in range(num_vars)
    ] if draw(st.booleans()) else None
    # The tie stratum: zero-rhs rows, and rows repeated at a k/1009
    # multiple, so that ratio ties between rows of different scales reach
    # the least-basic-index tie-break.
    ties = draw(st.booleans())
    constraints = []
    for _ in range(draw(st.integers(0, 12))):
        coeffs = {
            i: draw(coefficients()) for i in range(num_vars) if draw(st.booleans())
        }
        sense = draw(st.sampled_from([EQ, LE, GE]))
        value = None if target is None else sum((c * target[i] for i, c in coeffs.items()), F(0))
        if ties and draw(st.booleans()):
            rhs = F(0)
            if value is not None:
                sense = EQ if value == 0 else GE if value > 0 else LE
        elif value is None:
            rhs = draw(coefficients())
        else:
            rhs = value + {EQ: 0, LE: 1, GE: -1}[sense] * draw(coefficients()) ** 2
        constraints.append((coeffs, sense, rhs))
        if ties and draw(st.booleans()):
            k = F(draw(st.integers(1, 1008)), 1009)
            constraints.append(({i: k * c for i, c in coeffs.items()}, sense, k * rhs))
    return num_vars, constraints, nonneg


def integer_rows(constraints):
    return [lp_oracle.from_rationals(*constraint) for constraint in constraints]


def assert_same_point(num_vars, constraints, nonneg):
    point = find_feasible_point(num_vars, integer_rows(constraints), nonneg)
    for oracle in ORACLES:
        assert point == oracle(num_vars, constraints, nonneg)
    if point is not None:
        assert all(type(v) is Fraction for v in point)
    return point


@settings(max_examples=examples(400), deadline=None)
@given(systems())
def test_point_equals_rational_oracle(system):
    assert_same_point(*system)


@settings(max_examples=examples(150), deadline=None)
@given(systems(), st.data())
def test_rows_at_any_positive_multiple_give_the_oracle_point(system, data):
    # The scale weighs each row's artificial, so it must travel with the
    # row: a multiple of the integers alone would change the constraint,
    # and of the integers and the scale together nothing at all.
    num_vars, constraints, nonneg = system
    multiples = st.one_of(st.integers(1, 12), st.integers(1, 2**64))
    rows = []
    for coefficients, sense, rhs, scale in integer_rows(constraints):
        k = data.draw(multiples)
        rows.append(({i: k * v for i, v in coefficients.items()}, sense, k * rhs, k * scale))
    assert find_feasible_point(num_vars, rows, nonneg) == lp_oracle.find_feasible_point(
        num_vars, constraints, nonneg
    )


@settings(max_examples=examples(300), deadline=None)
@given(systems(), st.booleans())
def test_verdict_equals_the_split_simplex_and_every_point_is_feasible(system, every_nonnegative):
    # Solving a free variable out by one of its equations is an
    # equivalence; with no free variable there is nothing to solve out.
    num_vars, constraints, nonneg = system
    if every_nonnegative:
        nonneg = set(range(num_vars))
    rows = integer_rows(constraints)
    point = find_feasible_point(num_vars, rows, nonneg)
    split = lp_oracle.split_find_feasible_point(num_vars, rows, nonneg)
    assert (point is None) == (split is None)
    if point is None:
        return
    assert all(point[i] >= 0 for i in nonneg)
    for coefficients, sense, rhs in constraints:
        value = sum((c * point[i] for i, c in coefficients.items()), F(0)) - rhs
        assert value == 0 if sense == EQ else value <= 0 if sense == LE else value >= 0
    if len(nonneg) == num_vars:
        assert point == split


@settings(max_examples=examples(150), deadline=None)
@given(systems())
def test_a_point_builds_one_fraction_per_coordinate(system):
    # Back substitution runs in integers over one common denominator, so
    # the returned coordinates are the only Fractions built.
    num_vars, constraints, nonneg = system
    rows = integer_rows(constraints)
    with recording_fractions() as built:
        point = find_feasible_point(num_vars, rows, nonneg)
    assert len(built) == (0 if point is None else num_vars)


lp_pivot = lp._pivot


def checked_pivot(rows, leave, column):
    """``lp._pivot`` on primitive rows: every row it updates is checked by
    ``lp_oracle.checked_eliminate``, and every other row is left as it is."""
    before = [dict(row) for row in rows]
    assert all(gcd(*row.values()) <= 1 for row in before)
    lp_pivot(rows, leave, column)
    for r, (old, new) in enumerate(zip(before, rows)):
        if r == leave or column not in old:
            assert new == old
        else:
            assert column not in new


@settings(max_examples=examples(150), deadline=None)
@given(systems())
@example((1, [({}, LE, F(0))], set()))  # empties the reduced costs
def test_pivot_keeps_rows_primitive_and_leaves_untouched_rows(system):
    num_vars, constraints, nonneg = system
    with mock.patch.object(lp, "_pivot", checked_pivot), \
            mock.patch.object(lp, "eliminate", lp_oracle.checked_eliminate):
        find_feasible_point(num_vars, integer_rows(constraints), nonneg)


@pytest.mark.parametrize("sense", [EQ, LE, GE])
@pytest.mark.parametrize("rhs", [-3, 0, F(5, 1009)])
def test_all_zero_rows_equal_oracle(sense, rhs):
    rows = [({}, sense, F(rhs)), ({0: 1}, EQ, F(2))]
    assert_same_point(2, rows, {1})
    assert_same_point(2, rows[:1], set())


def artificial_start(num_vars, constraints, nonneg):
    """The first artificial column of the full phase-1 tableau."""
    return (sum(1 if i in nonneg else 2 for i in range(num_vars))
            + sum(1 for _, sense, _ in constraints if sense != EQ))


# x >= 0 with 2x <= 1, x >= 0 and -2x >= 0: the full tableau reaches
# objective 0 at x = 0 and then enters an artificial.
FEASIBLE_THEN_ARTIFICIAL = (
    1,
    [({0: 2}, LE, F(1)), ({0: 1}, GE, F(0)), ({0: -2}, GE, F(0))],
    {0},
)
# x >= 0 with x >= 0, -2x >= 2 and 2x <= 0: only artificials price
# negative while the objective is still positive.
INFEASIBLE_AT_ARTIFICIAL = (
    1,
    [({0: 1}, GE, F(0)), ({0: -2}, GE, F(2)), ({0: 2}, LE, F(0))],
    {0},
)


@pytest.mark.parametrize("system, point", [
    (FEASIBLE_THEN_ARTIFICIAL, [F(0)]),
    (INFEASIBLE_AT_ARTIFICIAL, None),
])
def test_stops_where_only_artificials_price_negative(system, point):
    start = artificial_start(*system)
    entered = []
    assert lp_oracle.find_feasible_point(*system, entered=entered) == point
    first = next(k for k, column in enumerate(entered) if column >= start)
    pivots = []

    def recording_pivot(rows, leave, column):
        assert all(c < start for row in rows for c in row)
        pivots.append(column)
        lp_pivot(rows, leave, column)
        assert all(c < start for row in rows for c in row)

    with mock.patch.object(lp, "_pivot", recording_pivot):
        assert assert_same_point(*system) == point
    # Every variable is nonnegative, so a stored column is an entering one.
    assert pivots == entered[:first]


def test_empty_system_is_the_origin():
    assert assert_same_point(3, [], {0}) == [F(0)] * 3
    assert assert_same_point(0, [], set()) == []


@st.composite
def certificate_cases(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    if draw(st.booleans()):
        mdp = random_mdp(rng, max_states=5, constraint_dims=(0, 1, 2), max_policies=16)
    else:
        # Several classes reachable from the start: the class-gain stage.
        mdp = random_decomposable(rng)
    result = solve(mdp)
    if result.status == "optimal" and draw(st.booleans()):
        return mdp, result.policy
    return mdp, random_policy(rng, mdp)


def on_rationals(oracle):
    """``oracle`` on ``lp.Constraint`` rows, each brought back to its rational triple."""
    def find(num_vars, constraints, nonnegative):
        return oracle(num_vars, [
            ({i: F(v, scale) for i, v in coefficients.items()}, sense, F(rhs, scale))
            for coefficients, sense, rhs, scale in constraints
        ], nonnegative)
    return find


def assert_same_certificate(mdp, policy):
    found = find_certificate(mdp, mdp.initial_state, policy)
    for oracle in ORACLES:
        with mock.patch.object(lp, "find_feasible_point", on_rationals(oracle)):
            assert find_certificate(mdp, mdp.initial_state, policy) == found


@settings(max_examples=examples(100), deadline=None)
@given(certificate_cases())
def test_certificate_search_equals_search_on_oracle(case):
    assert_same_certificate(*case)


@settings(max_examples=examples(8), deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 1008))
def test_lazy_variant_certificate_search_equals_search_on_oracles(seed, k):
    # 16-24 states: one Bellman row per state and action of the closure.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=24, min_states=16, max_policies=16)
    mdp = lazy_variant(mdp, F(k, 1009))
    result = solve(mdp)
    assume(result.status == "optimal")
    assert_same_certificate(mdp, result.policy)
