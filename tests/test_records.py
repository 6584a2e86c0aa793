"""Every public record is immutable, and ``_replace`` edits a copy.

The records, ``Mdp`` and ``Policy`` among them, are ``typing.NamedTuple``s:
each is a tuple of its fields, equal to a plain tuple of the same values
and unequal to every other record. Each record is built here by the call
that returns it, so that the values are the ones a caller sees.
"""

import copy
import hashlib
import itertools
import pickle

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
    instance_to_json,
    load_instance,
    parse_instance,
    residual_slack,
    samplepath_feasible,
    simulate,
    solve,
    validate,
)
from cmdpkit.model import UnknownStateError


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
        if isinstance(value, type) and hasattr(value, "_fields"):
            names.add(name)
    return names


def test_every_public_record_has_an_example(examples):
    assert set(examples) == _public_records()
    assert {name for name, r in examples.items() if not isinstance(r, tuple)} == set()


def test_assigning_to_a_field_raises(examples):
    for name, record in examples.items():
        assert record._fields, name
        for field in record._fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, object())
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.not_a_field = None


# Well-typed values for the fields ``state_index`` and ``action_for`` scan;
# the constructors themselves accept any value.
ACCEPTED = {("Mdp", "states"): ("p", "q"), ("Policy", "choice"): (("p", "a"),)}


def test_replace_returns_an_edited_copy(examples):
    for name, record in examples.items():
        before = record._asdict()
        for field in record._fields:
            marker = ACCEPTED.get((name, field), object())
            edited = record._replace(**{field: marker})
            assert edited is not record
            assert type(edited) is type(record)
            assert edited == type(record)(**{**before, field: marker}), name
            assert getattr(edited, field) is marker
            assert record._asdict() == before


def test_replacing_the_states_rebuilds_the_lookup(haviv):
    relabelled = haviv._replace(states=tuple(s.upper() for s in haviv.states))
    assert relabelled.state_index("Y") == 1
    assert haviv.state_index("y") == 1
    with pytest.raises(UnknownStateError):
        relabelled.state_index("y")
    with pytest.raises(UnknownStateError):
        haviv.state_index("Y")
    assert relabelled != haviv


def test_a_record_equals_its_fields_and_no_other_record(examples, haviv, haviv_a):
    assert haviv == tuple(haviv._asdict().values()) and len(haviv) == len(haviv._fields)
    assert haviv_a == (haviv_a.choice,)
    assert haviv_a != haviv_a.choice
    for (name, record), (other_name, other) in itertools.permutations(examples.items(), 2):
        assert record != other, (name, other_name)


def test_equal_models_hash_equal(haviv, instances_dir):
    loaded = load_instance(str(instances_dir / "haviv.json"))
    assert loaded is not haviv
    assert loaded == haviv and hash(loaded) == hash(haviv)
    policy = Policy.from_mapping(loaded, {"y": "a"})
    assert hash(policy) == hash(Policy(choice=policy.choice))
    assert {haviv: 1}[loaded] == 1


@pytest.mark.parametrize("name", ["haviv", "squander", "twochain", "yacht"])
def test_json_round_trip_is_equal(instances_dir, name):
    mdp = load_instance(str(instances_dir / f"{name}.json"))
    assert parse_instance(instance_to_json(mdp)) == mdp


def test_pickle_and_copy_keep_the_record_and_its_lookup(haviv, haviv_a):
    for record in (haviv, haviv_a):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is type(record)
            assert twin == record and hash(twin) == hash(record)
    assert pickle.loads(pickle.dumps(haviv)).state_index("c3_9") == 36
    assert pickle.loads(pickle.dumps(haviv_a)).action_for("y") == "a"


# ``pickle.dumps(record, 4)`` of twochain and of its policy, written when
# ``Mdp`` and ``Policy`` were slotted classes. Each pickle rebuilds its
# record by calling the class on the fields, as a NamedTuple still allows.
TWOCHAIN_PICKLE = (
    b"\x80\x04\x95\xcf\x00\x00\x00\x00\x00\x00\x00\x8c\rcmdpkit.model\x94\x8c\x03Mdp"
    b"\x94\x93\x94(\x8c\x01x\x94\x8c\x02a0\x94\x8c\x02b0\x94\x87\x94\x8c\x02go\x94\x85"
    b"\x94\x8c\x04stay\x94\x85\x94\x8c\x04stay\x94\x85\x94\x87\x94K\x01\x8c\tfractions"
    b"\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94\x86\x94K\x02h\x12\x86\x94"
    b"\x86\x94\x85\x94K\x01h\x10K\x01K\x01\x86\x94R\x94\x86\x94\x85\x94\x85\x94K\x02"
    b"h\x18\x86\x94\x85\x94\x85\x94\x87\x94h\x10K\x00K\x01\x86\x94R\x94\x85\x94h\x18"
    b"\x85\x94h!\x85\x94\x87\x94h!\x85\x94\x85\x94h\x10J\xff\xff\xff\xffK\x01\x86\x94"
    b"R\x94\x85\x94\x85\x94h\x18\x85\x94\x85\x94\x87\x94K\x01h\x03t\x94R\x94."
)
TWOCHAIN_POLICY_PICKLE = (
    b"\x80\x04\x95I\x00\x00\x00\x00\x00\x00\x00\x8c\rcmdpkit.model\x94\x8c\x06Policy"
    b"\x94\x93\x94\x8c\x01x\x94\x8c\x02go\x94\x86\x94\x8c\x02a0\x94\x8c\x04stay\x94"
    b"\x86\x94\x8c\x02b0\x94\x8c\x04stay\x94\x86\x94\x87\x94\x85\x94R\x94."
)


def test_pickles_of_the_slotted_records_still_load(twochain):
    policy = Policy.from_mapping(twochain, {})
    for data, record in ((TWOCHAIN_PICKLE, twochain), (TWOCHAIN_POLICY_PICKLE, policy)):
        loaded = pickle.loads(data)
        assert type(loaded) is type(record)
        assert loaded == record and hash(loaded) == hash(record)


# The repr a frozen dataclass prints, byte for byte, so printed models do
# not change with the class behind them.
TWOCHAIN_REPR = (
    "Mdp(states=('x', 'a0', 'b0'), actions=(('go',), ('stay',), ('stay',)), "
    "successors=((((1, Fraction(1, 2)), (2, Fraction(1, 2))),), "
    "(((1, Fraction(1, 1)),),), (((2, Fraction(1, 1)),),)), "
    "rewards=((Fraction(0, 1),), (Fraction(1, 1),), (Fraction(0, 1),)), "
    "constraints=(((Fraction(0, 1),),), ((Fraction(-1, 1),),), ((Fraction(1, 1),),)), "
    "constraint_dim=1, initial_state='x')"
)
TWOCHAIN_POLICY_REPR = "Policy(choice=(('x', 'go'), ('a0', 'stay'), ('b0', 'stay')))"
# haviv's repr is 3457 characters; its SHA-256 stands in for it.
HAVIV_REPR_SHA256 = "e9ac1d6922783586824392ad93ec4c14635777fc81ea43943dcbcedb07c915bc"


def test_repr_is_the_dataclass_repr(haviv, twochain):
    assert repr(twochain) == TWOCHAIN_REPR
    assert repr(Policy.from_mapping(twochain, {})) == TWOCHAIN_POLICY_REPR
    text = repr(haviv)
    assert text.startswith("Mdp(states=('x', 'y', 'c1_0', ") and len(text) == 3457
    assert hashlib.sha256(text.encode()).hexdigest() == HAVIV_REPR_SHA256
