"""The integer-preserving simplex against the rational reference.

``lp_oracle`` keeps a ``Fraction`` tableau; ``cmdpkit.lp`` keeps integers
and must take the same Bland pivots, so the two return the same point, or
both ``None``, on every system. Certificate searches must not tell the
two apart either.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracle
from cmdpkit import lp
from cmdpkit.certificate import find_certificate
from cmdpkit.lp import EQ, GE, LE, LinearConstraint, find_feasible_point
from cmdpkit.solver import solve
from randmdp import random_decomposable, random_mdp, random_policy

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
    num_vars = draw(st.integers(0, 6))
    nonneg = draw(st.sets(st.integers(0, num_vars - 1))) if num_vars else set()
    # Anchored systems hold a known point, so feasible ones are common too.
    target = [
        F(draw(st.integers(0 if i in nonneg else -4, 4))) for i in range(num_vars)
    ] if draw(st.booleans()) else None
    constraints = []
    for _ in range(draw(st.integers(0, 7))):
        coeffs = {
            i: draw(coefficients()) for i in range(num_vars) if draw(st.booleans())
        }
        sense = draw(st.sampled_from([EQ, LE, GE]))
        if target is None:
            rhs = draw(coefficients())
        else:
            rhs = sum((c * target[i] for i, c in coeffs.items()), F(0))
            rhs += {EQ: 0, LE: 1, GE: -1}[sense] * draw(coefficients()) ** 2
        constraints.append(LinearConstraint.of(coeffs, sense, rhs))
    return num_vars, constraints, nonneg


def assert_same_point(num_vars, constraints, nonneg):
    point = find_feasible_point(num_vars, constraints, nonneg)
    assert point == lp_oracle.find_feasible_point(num_vars, constraints, nonneg)
    if point is not None:
        assert all(type(v) is Fraction for v in point)
    return point


@settings(max_examples=400, deadline=None)
@given(systems())
def test_point_equals_rational_oracle(system):
    assert_same_point(*system)


@pytest.mark.parametrize("sense", [EQ, LE, GE])
@pytest.mark.parametrize("rhs", [-3, 0, F(5, 1009)])
def test_all_zero_rows_equal_oracle(sense, rhs):
    rows = [LinearConstraint.of({}, sense, F(rhs)), LinearConstraint.of({0: 1}, EQ, F(2))]
    assert_same_point(2, rows, {1})
    assert_same_point(2, rows[:1], set())


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


@settings(max_examples=100, deadline=None)
@given(certificate_cases())
def test_certificate_search_equals_search_on_oracle(case):
    mdp, policy = case
    found = find_certificate(mdp, mdp.initial_state, policy)
    with mock.patch.object(lp, "find_feasible_point", lp_oracle.find_feasible_point):
        assert find_certificate(mdp, mdp.initial_state, policy) == found
