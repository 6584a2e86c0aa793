import random
import re
from fractions import Fraction

import pytest

from cmdpkit.lp import EQ, GE, LE, find_feasible_point
from lp_oracle import from_rationals

F = Fraction


def c(coeffs, sense, rhs):
    return {i: F(v) for i, v in coeffs.items()}, sense, F(rhs)


def feasible_point(num_vars, constraints, nonnegative):
    """``find_feasible_point`` on rational ``(coefficients, sense, rhs)`` triples."""
    return find_feasible_point(
        num_vars, [from_rationals(*k) for k in constraints], nonnegative
    )


def satisfies(point, constraint):
    coeffs, sense, rhs = constraint
    total = sum((coeff * point[i] for i, coeff in coeffs.items()), F(0))
    if sense == EQ:
        return total == rhs
    if sense == LE:
        return total <= rhs
    return total >= rhs


def test_simple_equality():
    cons = [c({0: 1, 1: 1}, EQ, 1)]
    point = feasible_point(2, cons, {0, 1})
    assert point is not None
    assert all(satisfies(point, k) for k in cons)
    assert all(v >= 0 for v in point)


def test_contradictory_bounds_infeasible():
    cons = [c({0: 1}, GE, 1), c({0: 1}, LE, 0)]
    assert feasible_point(1, cons, {0}) is None


def test_free_variable_can_go_negative():
    cons = [c({0: 1}, EQ, -5)]
    point = feasible_point(1, cons, set())
    assert point == [F(-5)]


def test_nonnegative_variable_cannot():
    cons = [c({0: 1}, EQ, -5)]
    assert feasible_point(1, cons, {0}) is None


def test_mixed_system():
    # x - y >= 2, x + y == 4, y >= 0 free x
    cons = [c({0: 1, 1: -1}, GE, 2), c({0: 1, 1: 1}, EQ, 4)]
    point = feasible_point(2, cons, {1})
    assert point is not None
    assert all(satisfies(point, k) for k in cons)
    assert point[1] >= 0


def test_degenerate_rows():
    assert feasible_point(1, [c({}, EQ, 0)], set()) is not None
    assert feasible_point(1, [c({}, EQ, 1)], set()) is None
    assert feasible_point(1, [c({}, LE, 3)], set()) is not None
    assert feasible_point(1, [c({}, GE, 3)], set()) is None


def test_unconstrained_variables_default_to_zero():
    point = feasible_point(3, [c({0: 1}, EQ, 7)], set())
    assert point == [F(7), F(0), F(0)]


def test_deterministic_output():
    cons = [c({0: 1, 1: 2, 2: -1}, GE, 3), c({0: 1, 1: 1, 2: 1}, EQ, 5)]
    first = feasible_point(3, cons, {0, 1})
    second = feasible_point(3, cons, {0, 1})
    assert first == second


def test_random_systems_built_around_a_known_point():
    rng = random.Random(5150)
    for _ in range(60):
        num_vars = rng.randint(1, 6)
        nonneg = {i for i in range(num_vars) if rng.random() < 0.5}
        target = [
            F(rng.randint(0, 6)) if i in nonneg else F(rng.randint(-6, 6))
            for i in range(num_vars)
        ]
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {
                i: F(rng.randint(-4, 4)) for i in range(num_vars) if rng.random() < 0.7
            }
            value = sum((coeff * target[i] for i, coeff in coeffs.items()), F(0))
            sense = rng.choice([EQ, LE, GE])
            slack = F(rng.randint(0, 3))
            rhs = value + slack if sense == LE else value - slack if sense == GE else value
            cons.append((coeffs, sense, rhs))
        point = feasible_point(num_vars, cons, nonneg)
        assert point is not None  # target witnesses feasibility
        assert all(satisfies(point, k) for k in cons)
        assert all(point[i] >= 0 for i in nonneg)


def test_infeasible_random_systems_detected():
    rng = random.Random(6001)
    for _ in range(30):
        num_vars = rng.randint(1, 4)
        coeffs = {i: F(rng.randint(-3, 3)) for i in range(num_vars)}
        if all(v == 0 for v in coeffs.values()):
            coeffs[0] = F(1)
        cons = [(coeffs, GE, F(1)), (coeffs, LE, F(0))]
        assert feasible_point(num_vars, cons, set()) is None


def test_rejects_bad_sense_and_indices():
    for sense in ("!=", "<"):
        with pytest.raises(ValueError, match=f"unknown sense {sense!r}"):
            feasible_point(1, [c({0: 1}, sense, 1)], {0})
    with pytest.raises(ValueError):
        feasible_point(1, [], {3})
    for index in (-1, 2, 5):
        with pytest.raises(ValueError, match="out of range"):
            feasible_point(2, [c({index: 1}, EQ, 3)], set())
    # A row's integers are over its scale, which must be a positive int.
    for scale in (0, -2, F(2), 2.0, "2", None, True):
        with pytest.raises(ValueError, match=re.escape(f"row scale {scale!r} is not a positive int")):
            find_feasible_point(1, [({0: 2}, EQ, 3, scale)], {0})
    assert find_feasible_point(1, [({0: 2}, EQ, 3, 5)], {0}) == [F(3, 2)]
