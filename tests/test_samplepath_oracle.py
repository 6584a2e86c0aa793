"""The one-pass subchain questions against a brute-force reference.

The code under test checks the shared class structure and takes the
absorption ranges in one pass over the policies. The reference here
enumerates the policies once per question, decomposes each dense induced
chain, solves each absorption row densely (``dense_oracle``) and builds the
converted models entry by entry. Results must be equal, with every
analytic value a ``Fraction``, and non-decomposable models must fail with
the same message.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from cmdpkit import chains, instances, samplepath
from cmdpkit.samplepath import (
    ClassControl,
    ClassControllability,
    NotDecomposableError,
    controllable_classes,
    convert_to_expected,
    selective_convert,
    trans_policy_decomposition,
)
from cmdpkit.solver import enumerate_policies
from randmdp import examples, random_decomposable, random_mdp

ZERO = Fraction(0)


def union_chain(mdp):
    """A chain that moves along every action at once: the union support."""
    return tuple(
        tuple(sum(column, ZERO) / len(rows) for column in zip(*rows))
        for rows in dense_oracle.dense_kernel(mdp)
    )


def oracle_structure(mdp):
    union = dense_oracle.decompose(union_chain(mdp))
    expected = set(union.recurrent_classes)
    for policy in enumerate_policies(mdp):
        chain = dense_oracle.dense_chain(mdp, policy)
        got = set(dense_oracle.decompose(chain).recurrent_classes)
        if got != expected:
            differing = sorted(set().union(*(expected ^ got)))
            raise NotDecomposableError(
                "recurrent-class structure varies with the policy; "
                f"offending states: {[mdp.states[s] for s in differing]}"
            )
    return union


def oracle_controllability(mdp, x):
    union = oracle_structure(mdp)
    start = mdp.state_index(x)
    rows = [
        dense_oracle.absorption_probs(dense_oracle.dense_chain(mdp, policy))[start]
        for policy in enumerate_policies(mdp)
    ]
    return ClassControllability(
        classes=tuple(
            ClassControl(
                states=tuple(mdp.states[s] for s in cls),
                min_prob=min(row[c] for row in rows),
                max_prob=max(row[c] for row in rows),
            )
            for c, cls in enumerate(union.recurrent_classes)
        ),
        structure=union,
    )


def oracle_convert(mdp, classes):
    n = mdp.constraint_dim
    constraints = []
    for i in range(mdp.num_states):
        per_action = []
        for cvec in mdp.constraints[i]:
            vec = []
            for cls in classes:
                vec += [cvec[j] if i in cls else ZERO for j in range(n)]
            per_action.append(tuple(vec))
        constraints.append(tuple(per_action))
    return mdp._replace(constraints=tuple(constraints), constraint_dim=n * len(classes))


def outcome(question, *args):
    try:
        return question(*args)
    except NotDecomposableError as exc:
        return str(exc)


def assert_exact_model(mdp):
    assert all(
        type(c) is Fraction
        for per_action in mdp.constraints for cvec in per_action for c in cvec
    )


@st.composite
def models(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    if draw(st.booleans()):
        return random_decomposable(rng)
    return random_mdp(rng, max_states=6, constraint_dims=(1, 2), max_policies=12)


@settings(max_examples=examples(80), deadline=None)
@given(models())
def test_one_pass_questions_equal_brute_force(mdp):
    x = mdp.initial_state
    structure = outcome(oracle_structure, mdp)
    assert outcome(trans_policy_decomposition, mdp) == structure
    if isinstance(structure, str):
        for question in (controllable_classes, convert_to_expected, selective_convert):
            assert outcome(question, mdp, x) == structure
        return

    control = controllable_classes(mdp, x)
    assert control == oracle_controllability(mdp, x)
    for c in control.classes:
        assert type(c.min_prob) is Fraction and type(c.max_prob) is Fraction

    full = convert_to_expected(mdp, x)
    assert full == oracle_convert(mdp, structure.recurrent_classes)
    kept = tuple(
        cls for cls, c in zip(structure.recurrent_classes, control.classes)
        if c.min_prob != c.max_prob
    )
    selective = selective_convert(mdp, x)
    assert selective == oracle_convert(mdp, kept)
    assert_exact_model(full)
    assert_exact_model(selective)


@settings(max_examples=examples(40), deadline=None)
@given(models())
def test_subchain_questions_solve_no_stationary_vector(mdp):
    x = mdp.initial_state
    structure = outcome(oracle_structure, mdp)
    if isinstance(structure, str):
        expected = (structure, structure)
    else:
        control = oracle_controllability(mdp, x)
        expected = (control, oracle_convert(mdp, control.controllable_members))
    unused = AssertionError("class solves are not needed here")
    with mock.patch.object(chains, "class_visits", side_effect=unused):
        got = (outcome(controllable_classes, mdp, x), outcome(selective_convert, mdp, x))
    assert got == expected


def test_subchain_questions_build_no_policy_and_induce_no_chain(monkeypatch):
    # Each policy's chain is a tuple of the model's successor rows, taken
    # from their product in enumeration order: no Policy is enumerated and
    # no chain is induced from one.
    rng = random.Random(23)
    mdps = [build() for build in instances.BUNDLED.values()]
    mdps += [random_decomposable(rng) for _ in range(20)]
    mdps += [random_mdp(rng, max_states=6, constraint_dims=(1, 2), max_policies=12)
             for _ in range(10)]

    def answers(mdp):
        x = mdp.initial_state
        return (
            outcome(controllable_classes, mdp, x),
            outcome(trans_policy_decomposition, mdp),
            outcome(convert_to_expected, mdp, x),
        )

    for mdp in mdps:
        expected = answers(mdp)
        with monkeypatch.context() as patch:
            for name in ("enumerate_policies", "induced_chain"):
                patch.setattr(
                    samplepath, name, lambda *args: pytest.fail("a Policy's chain was built"),
                    raising=False,
                )
            assert answers(mdp) == expected


def test_both_branches_occur():
    rng = random.Random(11)
    kinds = set()
    for _ in range(30):
        mdp = random_mdp(rng, max_states=6, constraint_dims=(1, 2), max_policies=12)
        kinds.add(isinstance(outcome(oracle_structure, mdp), str))
    assert kinds == {True, False}
