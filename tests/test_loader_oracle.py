"""The instance loader against its per-literal reference.

``model.parse_instance`` parses each distinct literal of a document once
and reads a literal's decimal exponent without a regular expression;
``loader_oracle.parse_instance`` parses every literal on its own, with the
regular expression. On ``tests/randmdp.py`` documents whose every literal
is respelled as a random equal form ("1/2", "2/4", "0.5", " 1/2 ", "5e-1",
"1_0/20"), duplicates included, the two must return equal models. With one
bad literal injected, they must raise the same message. A canonical
"p/q" literal takes ``model.parse_rational``'s two int parses instead of
``Fraction``'s parser; literals at the edge of that form must still parse
as ``Fraction`` and the oracle parse them.
"""

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loader_oracle
from cmdpkit import instances, model
from randmdp import random_decomposable, random_mdp

BAD_LITERALS = ["1/0", "abc", 5, 0.5, ["1/2"], "1" * 1001, "1e1001", "-2.5E-1_001", " 1/2/3 "]


def spellings(value: Fraction) -> list[str]:
    """Strings that ``Fraction`` reads as ``value``."""
    sign = "-" if value < 0 else ""
    p, q = abs(value.numerator), value.denominator
    tens = str(10 * p)
    forms = [f"{sign}{p}/{q}", f"{sign}{2 * p}/{2 * q}", f"{sign}{3 * p}/{3 * q}",
             f" {sign}{p}/{q}\t"]
    if sys.version_info >= (3, 11):  # Fraction reads underscores from 3.11 on
        forms.append(f"{sign}{tens[0]}_{tens[1:]}/{10 * q}" if len(tens) > 1 else f"{sign}0_0/{q}")
    if q == 1:
        forms += [f"{sign}{p}", f"{sign}{p}.0", f"{sign}{p}e0"]
    rest = q
    for prime in (2, 5):
        while rest % prime == 0:
            rest //= prime
    if rest == 1:  # a finite decimal: p / q = n / 10**d
        d = next(d for d in range(64) if 10**d % q == 0)
        n = p * 10**d // q
        digits = str(n).rjust(d + 1, "0")
        forms += [
            f"{sign}{digits[:-d]}.{digits[-d:]}" if d else f"{sign}{digits}",
            f"{sign}{n}e-{d}",
            f"{sign}{n * 10}E-{d + 1}",
        ]
    return forms


def literal_slots(doc: dict):
    """(container, key) of every literal in an instance document, in order."""
    for sdoc in doc["states"]:
        for adoc in sdoc["actions"]:
            yield adoc, "reward"
            yield from ((adoc["constraint"], j) for j in range(len(adoc["constraint"])))
            yield from ((adoc["transitions"], target) for target in adoc["transitions"])


def respelled_document(rng: random.Random) -> dict:
    """A random model's document, each literal respelled, some texts repeated."""
    mdp = random_mdp(rng) if rng.random() < 0.7 else random_decomposable(rng)
    doc = model.serialize_instance(mdp)
    for sdoc in doc["states"]:  # a zero-probability entry, which the loader drops
        transitions = sdoc["actions"][0]["transitions"]
        absent = [s for s in mdp.states if s not in transitions]
        if absent and rng.random() < 0.3:
            transitions[rng.choice(absent)] = "0"
    chosen: dict[str, str] = {}
    for container, key in literal_slots(doc):
        text = container[key]
        if text not in chosen or rng.random() < 0.3:
            chosen[text] = rng.choice(spellings(Fraction(text)))
            assert Fraction(chosen[text]) == Fraction(text)
        container[key] = chosen[text]
    return doc


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except model.InstanceFormatError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bad=st.sampled_from([None, *BAD_LITERALS]))
def test_loader_matches_per_literal_parse(seed, bad):
    rng = random.Random(seed)
    doc = respelled_document(rng)
    if bad is not None:
        container, key = rng.choice(list(literal_slots(doc)))
        container[key] = bad
    text = json.dumps(doc)
    kind, mdp = outcome(model.parse_instance, text)
    assert (kind, mdp) == outcome(loader_oracle.parse_instance, text)
    assert kind == ("ok" if bad is None else "error")
    if kind == "ok":
        assert all(type(r) is Fraction for rewards in mdp.rewards for r in rewards)
        assert all(type(p) is Fraction for rows in mdp.successors for row in rows for _, p in row)


EXPONENT_SIGNS = ["", "+", "-", "--", "+-"]


@st.composite
def exponent_literal(draw):
    """A mantissa, then e or E, then an exponent that may be malformed."""
    mantissa = draw(st.sampled_from(["1", "0.5", "-2", ".5", "1/2", "", "e", "1_0"]))
    marker = draw(st.sampled_from(["e", "E", "e ", " e"]))
    digits = str(draw(st.integers(0, 3000)))
    cut = draw(st.integers(0, len(digits)))
    if draw(st.booleans()):
        digits = digits[:cut] + draw(st.sampled_from(["_", "__", " ", "\u0663", "x"])) + digits[cut:]
    tail = draw(st.sampled_from(["", " ", "_", "\t", "\u00a0"]))
    return mantissa + marker + draw(st.sampled_from(EXPONENT_SIGNS)) + digits + tail


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(exponent_literal(), st.text("0123456789eE+-_./ \t\u0663x", max_size=12)))
def test_parse_rational_matches_the_regular_expression(text):
    assert outcome(model.parse_rational, text) == outcome(loader_oracle.parse_rational, text)


# Literals at the edge of the canonical "p/q" form, which model.parse_rational
# reads with two int parses; Fraction reads the Arabic-Indic digits too.
EDGE_LITERALS = ["-0/1", "007/010", "+1/2", "1/0", "-1/-2", "1/2 ", "\u0661/\u0662",
                 "1_0/20", "1/" + "1" * 999]


@pytest.mark.parametrize("literal", EDGE_LITERALS)
def test_edge_literals_parse_as_fraction_and_the_oracle_do(literal):
    kind, value = outcome(model.parse_rational, literal)
    assert (kind, value) == outcome(loader_oracle.parse_rational, literal)
    if len(literal) > model.MAX_LITERAL_LENGTH:
        assert kind == "error" and "longer than 1000 characters" in value
        return
    try:
        expected = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        assert kind == "error"
    else:
        assert kind == "ok" and type(value) is Fraction and value == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python 3.10 has no int-to-str digit limit")
@pytest.mark.parametrize("literal", ["7" * 700 + "/3", "-3/" + "7" * 700])
def test_a_canonical_literal_past_a_low_digit_limit_fails_as_the_oracle_does(literal):
    # Under PYTHONINTMAXSTRDIGITS=640 a 700-digit part is an input error, not a crash.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        kind, message = outcome(model.parse_rational, literal)
        assert (kind, message) == outcome(loader_oracle.parse_rational, literal)
    finally:
        sys.set_int_max_str_digits(limit)
    assert kind == "error" and "640" in message


def test_haviv_parses_each_distinct_literal_once(instances_dir, monkeypatch):
    expected = instances.haviv()
    parsed = []
    parse = model.parse_rational
    monkeypatch.setattr(model, "parse_rational", lambda text: parsed.append(text) or parse(text))
    searched = []
    for name in ("compile", "search", "match", "fullmatch", "sub", "subn",
                 "split", "findall", "finditer"):
        function = getattr(re, name)
        monkeypatch.setattr(re, name, lambda *args, _f=function, _n=name, **kwargs:
                            searched.append(_n) or _f(*args, **kwargs))
    mdp = model.load_instance(instances_dir / "haviv.json")
    assert mdp == expected
    assert len(parsed) == len(set(parsed)) == 7
    assert searched == []
    assert not hasattr(model, "re")


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(
    st.lists(st.fractions(min_value=Fraction(1, 60), max_value=1, max_denominator=60),
             min_size=0, max_size=4),
    min_size=1, max_size=3,
))
def test_row_sum_message_is_the_exact_sum(rows):
    states = tuple(f"s{k}" for k in range(4))
    kernel = tuple(tuple(enumerate(row)) for row in rows)
    mdp = model.Mdp(
        states=states,
        actions=(tuple(f"a{j}" for j in range(len(rows))),) + (("a",),) * 3,
        successors=(kernel,) + tuple((((k, Fraction(1)),),) for k in range(1, 4)),
        rewards=((Fraction(0),) * len(rows),) + ((Fraction(0),),) * 3,
        constraints=(((),) * len(rows),) + (((),),) * 3,
        constraint_dim=0,
        initial_state="s0",
    )
    expected = [
        f"kernel row of ('s0', 'a{j}') sums to {model.format_rational(sum(row, Fraction(0)))}, not 1"
        for j, row in enumerate(rows) if sum(row, Fraction(0)) != 1
    ]
    report = model.validate(mdp)
    assert [v.message for v in report.violations if v.kind == "row-sum"] == expected
