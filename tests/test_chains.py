import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdpkit.chains import (
    MAX_TIME,
    TimeLimitError,
    absorption_map,
    decompose,
    forward_distributions,
    gain,
    max_denominator_bits,
    reachable_states,
    state_distribution_at,
    stationary_distribution,
)
from cmdpkit.model import DEFAULT_MAX_STR_DIGITS, induced_chain
from dense_oracle import sparse
from randmdp import examples, random_mdp, random_policy, random_row


def chain_of(rows):
    """Successor rows of a chain written as a dense matrix of literals."""
    return sparse(tuple(tuple(Fraction(x) for x in row) for row in rows))


CYCLE2 = chain_of([[0, 1], [1, 0]])


def test_gain_is_the_ratio_to_the_step_sum_in_fractions():
    for sums, expected in (
        ([3, 6], (Fraction(1, 2), ())),
        ([4, -2, 0, 8], (Fraction(1, 2), (Fraction(-1, 4), Fraction(0)))),
    ):
        reward, constraint = got = gain(sums)
        assert got == expected
        assert all(type(x) is Fraction for x in (reward, *constraint))
        assert type(constraint) is tuple


def test_decompose_haviv_structure(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    dec = decompose(chain)
    sizes = sorted(len(c) for c in dec.recurrent_classes)
    assert sizes == [5, 10, 20]
    transient = {haviv.states[s] for s in dec.transient_states}
    assert transient == {"x", "y"}
    # the 10-cycle is a class even though x never reaches it under action a
    labels = [{haviv.states[s] for s in c} for c in dec.recurrent_classes]
    assert {f"c3_{k}" for k in range(10)} in labels


def test_decompose_single_self_loop():
    dec = decompose(chain_of([[1]]))
    assert dec.recurrent_classes == ((0,),)
    assert dec.transient_states == ()


def test_decompose_two_state_swap_is_one_class():
    dec = decompose(CYCLE2)
    assert dec.recurrent_classes == ((0, 1),)
    assert dec.transient_states == ()


def test_stationary_uniform_on_cycles():
    five = chain_of([[1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)])
    assert stationary_distribution(five, tuple(range(5))) == (Fraction(1, 5),) * 5
    twenty = chain_of(
        [[1 if j == (i + 1) % 20 else 0 for j in range(20)] for i in range(20)]
    )
    pi = stationary_distribution(twenty, tuple(range(20)))
    assert pi == (Fraction(1, 20),) * 20


def test_stationary_two_state_chain():
    # stay probabilities 3/4 and 1/2; solving pi P = pi by hand gives (2/3, 1/3)
    chain = chain_of([["3/4", "1/4"], ["1/2", "1/2"]])
    assert stationary_distribution(chain, (0, 1)) == (Fraction(2, 3), Fraction(1, 3))


def test_stationary_rejects_open_or_disconnected_classes():
    open_chain = chain_of([["1/2", "1/2"], [0, 1]])
    with pytest.raises(ValueError):
        stationary_distribution(open_chain, (0,))
    disconnected = chain_of([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        stationary_distribution(disconnected, (0, 1))


def test_absorption_haviv_from_x(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    row = absorption_map(chain)[haviv.state_index("x")]
    assert row == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_absorption_inside_a_class_is_unit(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    row = absorption_map(chain)[haviv.state_index("c2_7")]
    assert row == (0, 1, 0)


def test_absorption_from_y_under_b(haviv, haviv_b):
    chain = induced_chain(haviv, haviv_b)
    row = absorption_map(chain)[haviv.state_index("y")]
    assert row == (0, 0, 1)


def test_reachable_under_policy_excludes_third_chain(haviv, haviv_a):
    reach = set(reachable_states(haviv, haviv_a, "x"))
    assert "x" in reach and "y" in reach
    assert all(f"c1_{k}" in reach for k in range(5))
    assert all(f"c2_{k}" in reach for k in range(20))
    assert not any(f"c3_{k}" in reach for k in range(10))


def test_reachable_all_policies_is_everything(haviv):
    assert reachable_states(haviv, None, "x") == haviv.states


def test_reachable_from_absorbing_state(haviv, haviv_a):
    assert reachable_states(haviv, haviv_a, "c1_0") == tuple(
        f"c1_{k}" for k in range(5)
    )


def test_distribution_at_one_step(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    d = state_distribution_at(chain, haviv.state_index("x"), 1)
    expected = {haviv.state_index("c1_0"): Fraction(1, 2),
                haviv.state_index("y"): Fraction(1, 2)}
    assert {i: p for i, p in enumerate(d) if p} == expected


def test_distribution_at_time_zero_is_unit_mass():
    d = state_distribution_at(CYCLE2, 1, 0)
    assert d == (0, 1)


def test_distribution_two_cycle_periodicity():
    assert state_distribution_at(CYCLE2, 0, 2) == (1, 0)
    assert state_distribution_at(CYCLE2, 0, 3) == (0, 1)


def test_distribution_rejects_negative_time():
    with pytest.raises(ValueError):
        state_distribution_at(CYCLE2, 0, -1)


def test_distribution_far_beyond_the_recursion_limit():
    assert state_distribution_at(CYCLE2, 0, MAX_TIME) == (1, 0)
    assert state_distribution_at(CYCLE2, 0, MAX_TIME - 1) == (0, 1)
    with pytest.raises(TimeLimitError):
        state_distribution_at(CYCLE2, 0, MAX_TIME + 1)


# ---------------------------------------------------------------------------
# properties on random chains

@st.composite
def stochastic_chains(draw):
    size = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 10**9))
    rng = random.Random(seed)
    return chain_of([random_row(rng, size) for _ in range(size)])


@settings(max_examples=examples(60), deadline=None)
@given(stochastic_chains())
def test_decomposition_partitions_states(chain):
    dec = decompose(chain)
    seen = sorted(s for cls in dec.recurrent_classes for s in cls)
    seen += list(dec.transient_states)
    assert sorted(seen) == list(range(len(chain)))


@settings(max_examples=examples(60), deadline=None)
@given(stochastic_chains())
def test_absorption_rows_sum_to_one(chain):
    for row in absorption_map(chain):
        assert sum(row, Fraction(0)) == 1
        assert all(p >= 0 for p in row)


@settings(max_examples=examples(60), deadline=None)
@given(stochastic_chains())
def test_stationary_is_invariant(chain):
    dec = decompose(chain)
    rows = [dict(row) for row in chain]
    for cls in dec.recurrent_classes:
        pi = stationary_distribution(chain, cls)
        assert sum(pi, Fraction(0)) == 1
        assert all(p > 0 for p in pi)
        for j, sj in enumerate(cls):
            assert pi[j] == sum(
                (pi[i] * rows[si].get(sj, 0) for i, si in enumerate(cls)), Fraction(0)
            )


@settings(max_examples=examples(40), deadline=None)
@given(stochastic_chains(), st.integers(0, 3), st.integers(0, 3))
def test_chapman_kolmogorov(chain, s, t):
    start = 0
    left = state_distribution_at(chain, start, s + t)
    mid = state_distribution_at(chain, start, s)
    composed = [Fraction(0)] * len(chain)
    for i, mass in enumerate(mid):
        if mass:
            step = state_distribution_at(chain, i, t)
            for j in range(len(chain)):
                composed[j] += mass * step[j]
    assert tuple(composed) == left


def test_forward_sweep_matches_single_times():
    rng = random.Random(17)
    for _ in range(10):
        mdp = random_mdp(rng, max_states=6)
        chain = induced_chain(mdp, random_policy(rng, mdp))
        sweep = list(forward_distributions(chain, 0, 8))
        assert len(sweep) == 9
        for t, current in enumerate(sweep):
            dense = state_distribution_at(chain, 0, t)
            assert current == {s: p for s, p in enumerate(dense) if p}


def test_size_bound_follows_the_int_string_limit():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    assert max_denominator_bits() == (limit or DEFAULT_MAX_STR_DIGITS)
    # time-t denominators: 3 for `chain`, 3**t for `mixing`
    chain = chain_of([["1/3", "2/3"], ["1/3", "2/3"]])
    mixing = chain_of([["1/3", "2/3"], ["2/3", "1/3"]])
    assert state_distribution_at(chain, 0, 5000) == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(TimeLimitError, match=f"above {max_denominator_bits()} bits"):
        state_distribution_at(mixing, 0, 5000)
    last = max_denominator_bits() * 100 // 159  # 3**last stays within the bound
    for p in state_distribution_at(mixing, 0, last):
        assert str(p)


def test_reachability_saturates_at_state_count():
    rng = random.Random(99)
    for _ in range(25):
        mdp = random_mdp(rng, max_states=6)
        policy = random_policy(rng, mdp)
        chain = induced_chain(mdp, policy)
        supports = set()
        for t in range(mdp.num_states):
            d = state_distribution_at(chain, 0, t)
            supports.update(i for i, p in enumerate(d) if p > 0)
        expected = tuple(mdp.states[i] for i in sorted(supports))
        assert reachable_states(mdp, policy, "s0") == expected
