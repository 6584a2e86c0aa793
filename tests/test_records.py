"""Every public record is immutable, and ``_replace`` edits a copy.

The records are ``typing.NamedTuple``s; ``Mdp`` and ``Policy`` stay frozen
dataclasses. Each record is built here by the call that returns it, so
that the values are the ones a caller sees.
"""

import dataclasses

import pytest

import cmdpkit
from cmdpkit import (
    Policy,
    analyse_policy,
    audit_time_consistency,
    check_certificate,
    controllable_classes,
    decompose,
    evaluate,
    find_certificate,
    induced_chain,
    residual_slack,
    samplepath_feasible,
    simulate,
    solve,
    validate,
)


@pytest.fixture(scope="module")
def examples(haviv, haviv_a, twochain):
    twochain_policy = Policy.from_mapping(twochain, {})
    certificate = find_certificate(twochain, twochain.initial_state, twochain_policy)
    audit = audit_time_consistency(haviv)
    trajectory, simulation = simulate(haviv, haviv_a, "x", 20, 1)
    found = [
        haviv,
        haviv_a,
        validate(haviv),
        trajectory,
        simulation,
        decompose(induced_chain(haviv, haviv_a)),
        evaluate(haviv, haviv_a, "x"),
        analyse_policy(haviv, haviv_a),
        solve(haviv, "x"),
        certificate,
        check_certificate(twochain, twochain.initial_state, twochain_policy, certificate),
        find_certificate(haviv, "x", haviv_a),
        residual_slack(haviv, haviv_a, "x", "y"),
        audit,
        audit.entries[0],
        samplepath_feasible(haviv, haviv_a, "x"),
        controllable_classes(haviv, "x"),
    ]
    return {type(record).__name__: record for record in found}


def _public_records() -> set[str]:
    names = set()
    for name in cmdpkit.__all__:
        value = getattr(cmdpkit, name)
        if isinstance(value, type) and (
            hasattr(value, "_fields") or dataclasses.is_dataclass(value)
        ):
            names.add(name)
    return names


def test_every_public_record_has_an_example(examples):
    assert set(examples) == _public_records()
    assert {name for name, r in examples.items() if dataclasses.is_dataclass(r)} == {
        "Mdp", "Policy",
    }


def test_assigning_to_a_field_raises(examples):
    for name, record in examples.items():
        fields = (
            [f.name for f in dataclasses.fields(record)]
            if dataclasses.is_dataclass(record) else record._fields
        )
        assert fields, name
        for field in fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, object())
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.not_a_field = None


def test_replace_returns_an_edited_copy(examples):
    for name, record in examples.items():
        if dataclasses.is_dataclass(record):
            continue
        before = tuple(record)
        for field in record._fields:
            marker = object()
            edited = record._replace(**{field: marker})
            assert edited is not record
            assert type(edited) is type(record)
            assert edited == type(record)(**{**record._asdict(), field: marker}), name
            assert getattr(edited, field) is marker
            assert tuple(record) == before
