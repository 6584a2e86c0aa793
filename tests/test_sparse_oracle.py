"""Every kernel reader on successor rows against the dense reference.

The code under test reads ``mdp.successors``: the chain analyses through
``induced_chain``, and loading, ``validate`` and ``serialize_instance``
directly. The reference in ``dense_oracle`` expands the rows into dense
rows over all states and scans those. Results must be equal, with every
analytic value a ``Fraction``.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from cmdpkit import chains
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import (
    ValidationError,
    _mdp_from_document,
    induced_chain,
    instance_to_json,
    parse_instance,
    validate,
)
from randmdp import random_mdp, random_policy


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


@st.composite
def models_and_policies(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    mdp = random_mdp(rng, max_states=7, full_support=draw(st.booleans()))
    return mdp, random_policy(rng, mdp)


@settings(max_examples=120, deadline=None)
@given(models_and_policies())
def test_sparse_analyses_equal_dense(drawn):
    mdp, policy = drawn
    chain = induced_chain(mdp, policy)
    matrix = dense_oracle.dense_chain(mdp, policy)
    n = mdp.num_states

    decomposition = chains.decompose(chain)
    assert decomposition == dense_oracle.decompose(matrix)
    for cls in decomposition.recurrent_classes:
        pi = chains.stationary_distribution(chain, cls)
        assert pi == dense_oracle.stationary_distribution(matrix, cls)
        assert all_fractions(pi)

    absorption = chains.absorption_map(chain, decomposition)
    assert absorption == dense_oracle.absorption_probs(matrix)
    assert all(all_fractions(row) for row in absorption)

    for start in range(n):
        sweep = list(chains.forward_distributions(chain, start, n))
        assert sweep == list(dense_oracle.forward_distributions(matrix, start, n))
        assert all(all_fractions(d.values()) for d in sweep)

    assert chains.union_adjacency(mdp) == dense_oracle.union_adjacency(mdp)
    analysis = analyse_policy(mdp, policy)
    for s, x in enumerate(mdp.states):
        for p in (policy, None):
            assert chains.reachable_states(mdp, p, x) == (
                dense_oracle.reachable_states(mdp, p, x)
            )
        v, w = analysis.values_at(s)
        assert (v, w) == dense_oracle.values_at(mdp, policy, s)
        assert all_fractions((v, *w))


PERTURBATIONS = ("negative", "row-sum", "explicit-zero", "short-constraint")


@st.composite
def models_and_documents(draw):
    """A random model and its document with up to three entries perturbed."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    mdp = random_mdp(rng, max_states=6, full_support=draw(st.booleans()))
    doc = json.loads(instance_to_json(mdp))
    for kind in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)):
        sdoc = rng.choice(doc["states"])
        adoc = rng.choice(sdoc["actions"])
        target = rng.choice(doc["states"])["id"]
        if kind == "negative":
            adoc["transitions"][target] = f"-{rng.randint(1, 9)}/{rng.randint(1, 9)}"
        elif kind == "row-sum":
            adoc["transitions"][target] = f"{rng.randint(1, 9)}/{rng.randint(10, 19)}"
        elif kind == "explicit-zero":
            adoc["transitions"][target] = rng.choice(["0", "0/7", "-0.0"])
        elif adoc["constraint"]:
            adoc["constraint"].pop()
        else:
            doc["constraint_dim"] += 1
    return mdp, doc


def assert_matches_dense(mdp):
    report = validate(mdp)
    assert report == dense_oracle.validate(mdp)
    text = instance_to_json(mdp)
    assert text == dense_oracle.instance_to_json(mdp)
    if report.ok:
        assert parse_instance(text) == mdp
    else:
        with pytest.raises(ValidationError) as raised:
            parse_instance(text)
        assert raised.value.report == report


@settings(max_examples=150, deadline=None)
@given(models_and_documents())
def test_load_validate_and_render_equal_dense(drawn):
    mdp, doc = drawn
    assert_matches_dense(mdp)
    loaded = _mdp_from_document(doc)
    assert dense_oracle.dense_kernel(loaded) == dense_oracle.document_kernel(doc)
    assert all(p != 0 for rows in loaded.successors for row in rows for _, p in row)
    assert_matches_dense(loaded)
