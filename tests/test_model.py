import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmdpkit.model import (
    InstanceFormatError,
    Mdp,
    Policy,
    PolicyError,
    ValidationError,
    format_rational,
    induced_chain,
    instance_to_json,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate,
)
from dense_oracle import sparse_kernel

F = Fraction


def test_parse_rational_decimal_is_exact():
    assert parse_rational("0.125") == Fraction(1, 8)
    assert parse_rational("0.075") == Fraction(3, 40)


def test_parse_rational_ratio_and_integer():
    assert parse_rational("1/8") == Fraction(1, 8)
    assert parse_rational("-3/40") == Fraction(-3, 40)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" 2/3 ") == Fraction(2, 3)


@pytest.mark.parametrize("bad", [
    "abc", "1/0", "", "1/2/3",
    "1e-2000000", "1e2000000", "1.5E+1001",
    pytest.param("1e" + "9" * 500, id="exponent-of-500-digits"),
    pytest.param("1" * 1001, id="literal-of-1001-chars"),
])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(InstanceFormatError):
        parse_rational(bad)


def test_parse_rational_accepts_literals_at_the_caps():
    assert parse_rational("1e-1000") == Fraction(1, 10**1000)
    assert parse_rational("2.5E+1000") == Fraction(25 * 10**999)
    assert parse_rational(" " + "1" * 1000 + " ") == Fraction(int("1" * 1000))


def test_parse_rational_rejects_non_strings():
    with pytest.raises(InstanceFormatError):
        parse_rational(0.125)


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 40)) == "-3/40"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


# ---------------------------------------------------------------------------
# documents

MINIMAL = {
    "constraint_dim": 0,
    "initial_state": "s",
    "states": [
        {"id": "s", "actions": [
            {"id": "stay", "reward": "0", "constraint": [],
             "transitions": {"s": "1"}},
        ]},
    ],
}


def test_minimal_self_loop_instance():
    mdp = parse_instance(json.dumps(MINIMAL))
    assert mdp.states == ("s",)
    assert mdp.constraint_dim == 0
    assert validate(mdp).ok


def test_haviv_instance_shape(haviv):
    assert haviv.num_states == 37
    assert haviv.constraint_dim == 1
    assert haviv.initial_state == "x"
    assert validate(haviv).ok


def test_bad_row_sum_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["states"][0]["actions"][0]["transitions"]["s"] = "0.999"
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    kinds = [v.kind for v in err.value.report.violations]
    assert kinds == ["row-sum"]


def test_negative_probability_is_a_single_violation():
    doc = {
        "constraint_dim": 0,
        "initial_state": "a",
        "states": [
            {"id": "a", "actions": [
                {"id": "go", "reward": "0", "constraint": [],
                 "transitions": {"a": "3/2", "b": "-1/2"}},
            ]},
            {"id": "b", "actions": [
                {"id": "stay", "reward": "0", "constraint": [],
                 "transitions": {"b": "1"}},
            ]},
        ],
    }
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    report = err.value.report
    assert [v.kind for v in report.violations] == ["row-negative"]
    assert report.violations[0].state == "a"


def test_constraint_length_violation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["constraint_dim"] = 2
    doc["states"][0]["actions"][0]["constraint"] = ["0"]
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert [v.kind for v in err.value.report.violations] == ["constraint-length"]


def test_validate_reports_a_short_row_and_its_constraint_length():
    mdp = Mdp(
        states=("a", "b"),
        actions=(("short", "go"), ("stay",)),
        successors=(  # "short" names state index 2 of two states
            (((2, F(1)),), ((0, F(3, 2)), (1, F(-1, 2)))),
            (((1, F(1)),),),
        ),
        rewards=((F(0), F(0)), (F(0),)),
        constraints=(((), (F(0),)), ((F(0),),)),
        constraint_dim=1,
        initial_state="a",
    )
    violations = validate(mdp).violations
    assert [(v.kind, v.state, v.action) for v in violations] == [
        ("row-shape", "a", "short"),
        ("constraint-length", "a", "short"),
        ("row-negative", "a", "go"),
    ]


@pytest.mark.parametrize("row", [
    pytest.param(((1, F(1, 2)), (0, F(1, 2))), id="unsorted"),
    pytest.param(((0, F(1, 2)), (0, F(1, 2))), id="repeated"),
    pytest.param(((-1, F(1, 2)), (0, F(1, 2))), id="below-range"),
    pytest.param(((0, F(1)), (2, F(0))), id="zero-probability"),
    pytest.param(((0, F(1)), (1, F(0))), id="zero-in-range"),
])
def test_validate_names_a_malformed_successor_row(row):
    mdp = Mdp(
        states=("a", "b"),
        actions=(("go",), ("stay",)),
        successors=((row,), (((1, F(1)),),)),
        rewards=((F(0),), (F(0),)),
        constraints=(((),), ((),)),
        constraint_dim=0,
        initial_state="a",
    )
    assert [(v.kind, v.state, v.action, v.message) for v in validate(mdp).violations] == [
        ("row-shape", "a", "go", "kernel row of ('a', 'go') is not ascending "
         "(index, nonzero probability) pairs over 2 states"),
    ]


def test_validate_reports_fewer_entries_than_actions_and_checks_on():
    mdp = Mdp(
        states=("a", "b", "c"),
        actions=(("x", "y"), ("u", "v"), ("w",)),
        successors=sparse_kernel((
            ((F(1), F(0), F(0)),),
            ((F(0), F(1), F(0)), (F(0), F(0), F(1))),
            ((F(1, 2), F(0), F(0)),),
        )),
        rewards=((F(0), F(0)), (F(0),), (F(0),)),
        constraints=(((), ()), ((),), ((),)),
        constraint_dim=0,
        initial_state="a",
    )
    violations = validate(mdp).violations
    assert [(v.kind, v.state, v.action) for v in violations] == [
        ("action-shape", "a", None),
        ("action-shape", "b", None),
        ("action-shape", "b", None),
        ("row-sum", "c", "w"),
    ]
    assert violations[0].message == "state 'a' has 2 actions but 1 kernel rows"
    assert violations[1].message == "state 'b' has 2 actions but 1 rewards"
    assert violations[2].message == "state 'b' has 2 actions but 1 constraint vectors"
    # a state with no entries at all is reported too, not indexed into
    short = mdp._replace(actions=mdp.actions[:2], rewards=mdp.rewards[:1])
    assert [(v.kind, v.message) for v in validate(short).violations] == [
        ("state-shape", "actions has 2 entries for 3 states"),
        ("state-shape", "rewards has 1 entries for 3 states"),
        ("action-shape", "state 'a' has 2 actions but 1 kernel rows"),
    ]


def test_unknown_initial_state_flagged():
    doc = json.loads(json.dumps(MINIMAL))
    doc["initial_state"] = "nowhere"
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert "initial-state" in [v.kind for v in err.value.report.violations]


def test_syntax_error_reports_position():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("{ not json")
    assert "line 1" in str(err.value)


def test_schema_error_reports_path():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps({"constraint_dim": 0, "initial_state": "s"}))
    assert "states" in str(err.value)


def test_raw_json_numbers_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["states"][0]["actions"][0]["reward"] = 0.125
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(doc))


def test_round_trip_all_bundled_instances(instances_dir):
    for path in sorted(instances_dir.glob("*.json")):
        mdp = parse_instance(path.read_text())
        again = parse_instance(instance_to_json(mdp))
        assert again == mdp
        assert validate(mdp).ok


def test_round_trip_random_models():
    import random

    from randmdp import random_mdp

    rng = random.Random(8080)
    for _ in range(25):
        mdp = random_mdp(rng, max_states=6)
        assert parse_instance(instance_to_json(mdp)) == mdp


def test_serialize_drops_zero_transitions(haviv):
    doc = serialize_instance(haviv)
    x_doc = next(s for s in doc["states"] if s["id"] == "x")
    assert set(x_doc["actions"][0]["transitions"]) == {"c1_0", "y"}


# ---------------------------------------------------------------------------
# policies and induced chains

def test_policy_defaults_single_action_states(haviv):
    policy = Policy.from_mapping(haviv, {"y": "a"})
    assert policy.action_for("x") == "move"
    assert policy.action_for("y") == "a"


def test_policy_requires_choice_at_decision_states(haviv):
    with pytest.raises(PolicyError):
        Policy.from_mapping(haviv, {})


def test_policy_rejects_unknown_action(haviv):
    with pytest.raises(PolicyError):
        Policy.from_mapping(haviv, {"y": "c"})


def test_policy_rejects_unknown_state(haviv):
    with pytest.raises(PolicyError):
        Policy.from_mapping(haviv, {"y": "a", "nowhere": "a"})


def test_induced_chain_rows_are_distributions(haviv, haviv_a, haviv_b):
    for policy in (haviv_a, haviv_b):
        chain = induced_chain(haviv, policy)
        for row in chain:
            assert sum((p for _, p in row), Fraction(0)) == 1
            assert all(p > 0 for _, p in row)
            assert [j for j, _ in row] == sorted({j for j, _ in row})


def test_induced_chain_routes_y_by_action(haviv, haviv_a, haviv_b):
    y = haviv.state_index("y")
    chain_a = induced_chain(haviv, haviv_a)
    chain_b = induced_chain(haviv, haviv_b)
    assert chain_a[y] == ((haviv.state_index("c2_0"), 1),)
    assert chain_b[y] == ((haviv.state_index("c3_0"), 1),)


def test_induced_chain_single_self_loop():
    mdp = parse_instance(json.dumps(MINIMAL))
    policy = Policy.from_mapping(mdp, {})
    assert induced_chain(mdp, policy) == (((0, Fraction(1)),),)


def test_induced_chain_hands_out_the_models_own_rows(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    for i, state in enumerate(haviv.states):
        j = haviv.actions[i].index(haviv_a.action_for(state))
        assert chain[i] is haviv.successors[i][j]


def peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_is_linear_in_the_transitions():
    # One transition per state, so the model is O(n); a dense kernel would
    # hold n * n = 4,000,000 references, 32 MB. The decoded document is
    # alive while the model is built, so its own peak is subtracted.
    n = 2000
    text = json.dumps({"constraint_dim": 0, "initial_state": "s0", "states": [
        {"id": f"s{i}", "actions": [
            {"id": "go", "reward": "0", "constraint": [],
             "transitions": {f"s{(i + 1) % n}": "1"}},
        ]}
        for i in range(n)
    ]})
    assert parse_instance(text).successors[n - 1] == (((0, F(1)),),)
    document_peak = peak_traced_bytes(lambda: json.loads(text))
    assert peak_traced_bytes(lambda: parse_instance(text)) - document_peak < 2 * 1024 * 1024
