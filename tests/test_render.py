"""``model.render_json`` against ``json.dumps(indent=2, sort_keys=True)``.

Every report the command line prints, and every instance file
``instance_to_json`` writes, is rendered by ``render_json``. For nested
dicts, lists and tuples of strings, integers, bools, None and Fractions it
must give the bytes of ``json.dumps(value, indent=2, sort_keys=True) + "\\n"``
once every Fraction is replaced by its ``format_rational`` string.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdpkit.model import format_rational, render_json

# Quotes, backslashes, control characters, non-ASCII, astral-plane
# characters and lone surrogates, then any code point at all.
SPECIAL = ['"', "\\", "/", "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
           "\u00e9", "\u2028", "\uffff", "\U0001f600", "\U0010ffff", "\ud800", "\udfff"]
characters = st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=()))
strings = st.text(characters, max_size=8)
integers = st.one_of(
    st.integers(-1000, 1000),
    st.integers(10**39, 10**40 - 1),
    st.integers(-(10**40) + 1, -(10**39)),
)
# Negative, integral, and with numerator or denominator past 10**40.
fractions = st.one_of(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=50),
    st.integers(-1000, 1000).map(Fraction),
    st.builds(Fraction, st.integers(-(10**45), 10**45), st.integers(10**40, 10**45)),
    st.builds(Fraction, st.integers(10**40, 10**45), st.integers(1, 1000)),
)
leaves = st.one_of(strings, integers, fractions, st.booleans(), st.none())
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(value=values)
def test_render_json_is_json_dumps(value):
    assert render_json(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"


def _plain(value):
    """``value`` with every Fraction replaced by its "p/q" string."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def test_fractions_print_as_p_over_q_strings():
    values = [Fraction(-3, 4), Fraction(5), Fraction(0), Fraction(10**41 + 1, 7)]
    assert render_json(values) == json.dumps(
        ["-3/4", "5/1", "0/1", f"{10**41 + 1}/7"], indent=2
    ) + "\n"


def test_empty_containers_and_scalars():
    for value in ([], (), {}, [[], {}, ()], {"a": {}}, "", 0, -1, True, False, None):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {1: "a"}, {"a": 1, 2: "b"}, [{"a": 0.5}], {None: 1}, {(1,): 2}, {1, 2}, b"x",
])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        render_json(value)
