"""Sparse elimination in cmdpkit.chains against the dense reference.

Chains mix random rows with lazy self-loops, which keeps states transient
while they cycle among themselves, so transient components with several
states occur alongside singletons. They are drawn as dense matrices for
the reference and handed to the code under test as successor rows. A
singleton transient component is solved by back substitution alone, so
``_sparse_solve`` runs once per larger component and never on a DAG.

``_sparse_solve`` is the LP's free phase on rows with their right-hand
sides under ``~k``, so its square systems are also checked against
``lp.find_feasible_point`` with every variable free.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import lp_oracle
from cmdpkit import chains, lp
from cmdpkit.chains import (
    _sparse_solve,
    _strongly_connected_components,
    absorption_map,
    decompose,
    stationary_distribution,
)
from randmdp import examples, random_row


def lazy_chain(rng, size):
    rows = []
    for i in range(size):
        row = random_row(rng, size)
        if rng.random() < 0.5:
            alpha = Fraction(rng.randint(1, 9), 10)
            row = tuple(
                (1 - alpha) * p + (alpha if j == i else 0) for j, p in enumerate(row)
            )
        rows.append(row)
    return tuple(rows)


@st.composite
def lazy_chains(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    return lazy_chain(rng, draw(st.integers(1, 24))), rng


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


def test_lazy_chains_have_multi_state_transient_components():
    rng = random.Random(0)
    sizes = []
    for _ in range(50):
        chain = lazy_chain(rng, 24)
        transient = decompose(dense_oracle.sparse(chain)).transient_states
        local = {s: i for i, s in enumerate(transient)}
        components = _strongly_connected_components(tuple(
            tuple(local[j] for j, p in enumerate(chain[s]) if p and j in local)
            for s in transient
        ))
        sizes.extend(len(c) for c in components)
    assert 1 in sizes
    assert max(sizes) > 1


@settings(max_examples=examples(150), deadline=None)
@given(lazy_chains())
def test_stationary_and_absorption_equal_dense(drawn):
    chain, _ = drawn
    rows = dense_oracle.sparse(chain)
    for cls in decompose(rows).recurrent_classes:
        pi = stationary_distribution(rows, cls)
        assert pi == dense_oracle.stationary_distribution(chain, cls)
        assert all_fractions(pi)
    probs = absorption_map(rows)
    assert probs == dense_oracle.absorption_probs(chain)
    assert all(all_fractions(row) for row in probs)


def closures(rows):
    """The closure of each state under the chain, once each.

    Each is closed, and strongly connected only when it is one class. A
    member that does not reach the first makes the class check's solve
    singular; when every member does, the members the first does not reach
    get weight 0.
    """
    successors = [(row,) for row in rows]
    return sorted({tuple(chains._closure(successors, (s,))) for s in range(len(rows))})


def class_check_outcome(solve, chain, cls):
    try:
        return solve(chain, cls)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=examples(150), deadline=None)
@given(lazy_chains())
def test_class_checks_equal_dense(drawn):
    chain, rng = drawn
    rows = dense_oracle.sparse(chain)
    classes = decompose(rows).recurrent_classes
    subset = tuple(sorted(rng.sample(range(len(chain)), rng.randint(1, len(chain)))))
    candidates = [subset, *closures(rows)]
    if len(classes) >= 2:
        union = tuple(sorted(classes[0] + classes[1]))
        candidates.append(union)
        with pytest.raises(ValueError, match="class is not strongly connected"):
            stationary_distribution(rows, union)
    for cls in candidates:
        assert class_check_outcome(stationary_distribution, rows, cls) == (
            class_check_outcome(dense_oracle.stationary_distribution, chain, cls)
        )


coefficients = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))

# Square systems A X = B: n rows of A and of B, with 0 to 3 columns in B.
square_systems = st.tuples(st.integers(1, 8), st.integers(0, 3)).flatmap(
    lambda size: st.tuples(
        st.lists(st.lists(coefficients, min_size=size[0], max_size=size[0]),
                 min_size=size[0], max_size=size[0]),
        st.lists(st.lists(coefficients, min_size=size[1], max_size=size[1]),
                 min_size=size[0], max_size=size[0]),
    )
)


def integer_rows(a, b):
    """``_sparse_solve``'s rows of [A B]: column k of B under ``~k``, zeros absent."""
    return [
        {**{c: x for c, x in enumerate(row) if x}, **{~k: t for k, t in enumerate(targets) if t}}
        for row, targets in zip(a, b)
    ]


@settings(max_examples=examples(300), deadline=None)
@given(square_systems)
def test_sparse_solve_equals_dense_or_both_singular(system):
    a, b = system
    dense_a = [[Fraction(x) for x in row] for row in a]
    rhs = [[Fraction(x) for x in row] for row in b]
    try:
        expected = dense_oracle.solve_linear(dense_a, rhs)
    except ValueError as exc:
        assert str(exc) == "singular linear system"
        expected = None
    fraction_rows = [{c: Fraction(x) for c, x in enumerate(row) if x} for row in a]
    rows = integer_rows(a, b)
    # Every row update of the integer solve is checked against the rational
    # one, patched in where the shared elimination looks ``eliminate`` up.
    checked = mock.patch.object(lp, "eliminate", lp_oracle.checked_eliminate)
    if expected is None:
        with pytest.raises(ValueError, match="singular linear system"):
            dense_oracle.sparse_solve(fraction_rows, [list(row) for row in rhs])
        with checked, pytest.raises(ValueError, match="singular linear system"):
            _sparse_solve(rows, len(b[0]))
    else:
        assert dense_oracle.sparse_solve(fraction_rows, [list(row) for row in rhs]) == expected
        with checked:
            numerators, denominator = _sparse_solve(rows, len(b[0]))
        assert type(denominator) is int and denominator > 0
        assert all(type(x) is int for row in numerators for x in row)
        assert [[Fraction(x, denominator) for x in row] for row in numerators] == expected


@settings(max_examples=examples(300), deadline=None)
@given(square_systems)
def test_sparse_solve_equals_the_lp_free_phase(system):
    # With every variable free and every row an equality, the LP runs its
    # free phase alone, so it must give each column of X.
    a, b = system
    try:
        numerators, denominator = _sparse_solve(integer_rows(a, b), len(b[0]))
    except ValueError as exc:
        assert str(exc) == "singular linear system"
        with pytest.raises(ValueError, match="singular linear system"):
            dense_oracle.solve_linear([[Fraction(x) for x in row] for row in a], [[] for _ in a])
        return
    for k, rhs in enumerate(zip(*b)):
        constraints = [(dict(enumerate(row)), lp.EQ, t, 1) for row, t in zip(a, rhs)]
        assert lp.find_feasible_point(len(a), constraints, set()) == [
            Fraction(row[k], denominator) for row in numerators
        ]


MERSENNE_61 = 2**61 - 1


def mix(row, i, alpha):
    """Row i of alpha I + (1 - alpha) P."""
    return tuple((1 - alpha) * p + (alpha if j == i else 0) for j, p in enumerate(row))


def sparse_chain(rng, size):
    """Random rows with supports of 1 to 6 states."""
    return tuple(
        random_row(rng, size, support=rng.sample(range(size), rng.randint(1, min(6, size))))
        for _ in range(size)
    )


def prime_lazy_chain(rng, size, prime):
    """A sparse chain whose rows are mostly mixed with a self-loop, each by
    its own weight k / prime, so members of one class carry different
    large denominators."""
    return tuple(
        mix(row, i, Fraction(rng.randint(1, prime - 1), prime)) if rng.random() < 0.7 else row
        for i, row in enumerate(sparse_chain(rng, size))
    )


primes = st.sampled_from([1009, MERSENNE_61])


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 24), primes)
def test_large_prime_denominators_equal_dense(seed, size, prime):
    chain = prime_lazy_chain(random.Random(seed), size, prime)
    rows = dense_oracle.sparse(chain)
    for cls in decompose(rows).recurrent_classes:
        pi = stationary_distribution(rows, cls)
        assert pi == dense_oracle.stationary_distribution(chain, cls)
        assert all_fractions(pi)
    probs = absorption_map(rows)
    assert probs == dense_oracle.absorption_probs(chain)
    assert all(all_fractions(row) for row in probs)


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 24), primes, st.data())
def test_lazy_variant_keeps_stationary_vectors_and_absorption(seed, size, prime, data):
    base = sparse_chain(random.Random(seed), size)
    alpha = Fraction(data.draw(st.integers(1, prime - 1)), prime)
    lazy = tuple(mix(row, i, alpha) for i, row in enumerate(base))
    base_rows, lazy_rows = dense_oracle.sparse(base), dense_oracle.sparse(lazy)
    decomposition = decompose(base_rows)
    assert decompose(lazy_rows) == decomposition
    for cls in decomposition.recurrent_classes:
        pi = stationary_distribution(lazy_rows, cls)
        assert pi == stationary_distribution(base_rows, cls)
        assert all_fractions(pi)
    probs = absorption_map(lazy_rows)
    assert probs == absorption_map(base_rows)
    assert all(all_fractions(row) for row in probs)


def dag_chain(rng, size, prime):
    """Rows that move only to later states, each mixed with a self-loop of its
    own weight k / prime; a state with no later state, and some others,
    absorb. Every transient component is a singleton."""
    rows = []
    for i in range(size):
        later = list(range(i + 1, size))
        if not later or rng.random() < 0.15:
            rows.append(tuple(Fraction(j == i) for j in range(size)))
            continue
        row = random_row(rng, size, support=rng.sample(later, rng.randint(1, min(4, len(later)))))
        rows.append(mix(row, i, Fraction(rng.randint(1, prime - 1), prime)))
    return tuple(rows)


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 24), primes)
def test_dag_chains_are_solved_by_back_substitution_alone(seed, size, prime):
    chain = dag_chain(random.Random(seed), size, prime)
    rows = dense_oracle.sparse(chain)
    decomposition = decompose(rows)
    assert all(len(component) == 1 for component in decomposition.transient_components)
    with mock.patch.object(chains, "_sparse_solve", wraps=_sparse_solve) as solve:
        probs = absorption_map(rows, decomposition)
    assert solve.call_count == 0
    assert probs == dense_oracle.absorption_probs(chain)
    assert all(all_fractions(row) for row in probs)


@settings(max_examples=examples(100), deadline=None)
@given(lazy_chains())
def test_sparse_solve_runs_once_per_larger_transient_component(drawn):
    chain, _ = drawn
    rows = dense_oracle.sparse(chain)
    decomposition = decompose(rows)
    with mock.patch.object(chains, "_sparse_solve", wraps=_sparse_solve) as solve:
        probs = absorption_map(rows, decomposition)
    assert [len(call.args[0]) for call in solve.call_args_list] == [
        len(component) for component in decomposition.transient_components
        if len(component) > 1
    ]
    assert probs == dense_oracle.absorption_probs(chain)
