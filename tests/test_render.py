"""``model.render_json`` against ``json.dumps(indent=2, sort_keys=True)``.

Every report the command line prints, and every instance file
``instance_to_json`` writes, is rendered by ``render_json``. For nested
dicts, lists and tuples of strings, integers, bools and None it must give
the bytes of ``json.dumps(value, indent=2, sort_keys=True) + "\\n"``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdpkit.model import render_json

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
leaves = st.one_of(strings, integers, st.booleans(), st.none())
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
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_empty_containers_and_scalars():
    for value in ([], (), {}, [[], {}, ()], {"a": {}}, "", 0, -1, True, False, None):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    1.5, {1: "a"}, {"a": 1, 2: "b"}, [{"a": 0.5}], {None: 1}, {(1,): 2}, {1, 2}, b"x",
])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        render_json(value)
