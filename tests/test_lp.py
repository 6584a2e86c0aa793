import random
from fractions import Fraction

import pytest

from cmdpkit.lp import EQ, GE, LE, LinearConstraint, find_feasible_point

F = Fraction


def c(coeffs, sense, rhs):
    return LinearConstraint.of({i: F(v) for i, v in coeffs.items()}, sense, F(rhs))


def satisfies(point, constraint):
    total = sum((coeff * point[i] for i, coeff in constraint.coeffs), F(0))
    if constraint.sense == EQ:
        return total == constraint.rhs
    if constraint.sense == LE:
        return total <= constraint.rhs
    return total >= constraint.rhs


def test_simple_equality():
    cons = [c({0: 1, 1: 1}, EQ, 1)]
    point = find_feasible_point(2, cons, {0, 1})
    assert point is not None
    assert all(satisfies(point, k) for k in cons)
    assert all(v >= 0 for v in point)


def test_contradictory_bounds_infeasible():
    cons = [c({0: 1}, GE, 1), c({0: 1}, LE, 0)]
    assert find_feasible_point(1, cons, {0}) is None


def test_free_variable_can_go_negative():
    cons = [c({0: 1}, EQ, -5)]
    point = find_feasible_point(1, cons, set())
    assert point == [F(-5)]


def test_nonnegative_variable_cannot():
    cons = [c({0: 1}, EQ, -5)]
    assert find_feasible_point(1, cons, {0}) is None


def test_mixed_system():
    # x - y >= 2, x + y == 4, y >= 0 free x
    cons = [c({0: 1, 1: -1}, GE, 2), c({0: 1, 1: 1}, EQ, 4)]
    point = find_feasible_point(2, cons, {1})
    assert point is not None
    assert all(satisfies(point, k) for k in cons)
    assert point[1] >= 0


def test_degenerate_rows():
    assert find_feasible_point(1, [c({}, EQ, 0)], set()) is not None
    assert find_feasible_point(1, [c({}, EQ, 1)], set()) is None
    assert find_feasible_point(1, [c({}, LE, 3)], set()) is not None
    assert find_feasible_point(1, [c({}, GE, 3)], set()) is None


def test_unconstrained_variables_default_to_zero():
    point = find_feasible_point(3, [c({0: 1}, EQ, 7)], set())
    assert point == [F(7), F(0), F(0)]


def test_deterministic_output():
    cons = [c({0: 1, 1: 2, 2: -1}, GE, 3), c({0: 1, 1: 1, 2: 1}, EQ, 5)]
    first = find_feasible_point(3, cons, {0, 1})
    second = find_feasible_point(3, cons, {0, 1})
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
            cons.append(LinearConstraint.of(coeffs, sense, rhs))
        point = find_feasible_point(num_vars, cons, nonneg)
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
        cons = [
            LinearConstraint.of(coeffs, GE, F(1)),
            LinearConstraint.of(coeffs, LE, F(0)),
        ]
        assert find_feasible_point(num_vars, cons, set()) is None


@pytest.mark.parametrize("kind", [int, F])
def test_of_gives_fractions_without_zeros_in_index_order(kind):
    built = LinearConstraint.of({4: kind(-2), 1: kind(0), 0: kind(3)}, LE, kind(5))
    assert built == LinearConstraint(((0, F(3)), (4, F(-2))), LE, F(5))
    assert all(type(v) is Fraction for _, v in built.coeffs)
    assert type(built.rhs) is Fraction


def test_repeated_index_in_a_direct_constraint_is_summed():
    # Built directly, a constraint may name a variable twice; its entries add.
    direct = LinearConstraint(((0, F(1)), (1, F(2)), (0, F(1, 2))), EQ, F(3))
    merged = LinearConstraint.of({0: F(3, 2), 1: F(2)}, EQ, F(3))
    assert find_feasible_point(2, [direct], {0, 1}) == find_feasible_point(2, [merged], {0, 1})
    cancelled = LinearConstraint(((0, F(1)), (1, F(1)), (0, F(-1))), EQ, F(4))
    assert find_feasible_point(2, [cancelled], set()) == [F(0), F(4)]


def test_rejects_bad_sense_and_indices():
    with pytest.raises(ValueError):
        LinearConstraint.of({0: F(1)}, "!=", F(0))
    # Built directly, a constraint skips the check in ``of``.
    with pytest.raises(ValueError, match="unknown sense '<'"):
        find_feasible_point(1, [LinearConstraint(((0, F(1)),), "<", F(1))], {0})
    with pytest.raises(ValueError):
        find_feasible_point(1, [], {3})
    for index in (-1, 2, 5):
        with pytest.raises(ValueError, match="out of range"):
            find_feasible_point(2, [LinearConstraint.of({index: F(1)}, EQ, F(3))], set())
