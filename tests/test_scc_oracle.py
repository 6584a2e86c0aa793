"""``chains._strongly_connected_components`` against the rescanning search.

The reference in ``scc_oracle`` is the Tarjan search the package ran
before; both must return the same components in the same order, on
random graphs with self-loops, repeated edges and empty rows, and on
stars, cycles and complete graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scc_oracle
from cmdpkit import chains
from randmdp import examples


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    if n == 0:
        return ()
    return tuple(
        tuple(draw(st.lists(st.integers(0, n - 1), max_size=4))) for _ in range(n)
    )


@settings(max_examples=examples(500), deadline=None)
@given(adjacency=graphs())
def test_components_equal_the_rescanning_search(adjacency):
    assert chains._strongly_connected_components(adjacency) == (
        scc_oracle.strongly_connected_components(adjacency)
    )


def _star(leaves: int, back: bool, centre_first: bool):
    """A centre joined to ``leaves`` leaves; leaves point back when ``back``."""
    centre = 0 if centre_first else leaves
    first = 1 if centre_first else 0
    rows = [()] * (leaves + 1)
    rows[centre] = tuple(range(first, first + leaves))
    for leaf in rows[centre]:
        rows[leaf] = (centre,) if back else ()
    return tuple(rows)


@pytest.mark.parametrize("adjacency", [
    _star(500, back=True, centre_first=True),
    _star(500, back=False, centre_first=True),
    _star(500, back=True, centre_first=False),
    _star(500, back=False, centre_first=False),
    tuple((i,) for i in range(5)),
    tuple(((i + 1) % 30,) for i in range(30)),
    tuple(tuple(range(40)) for _ in range(40)),
    tuple(tuple(range(i, 40)) for i in range(40)),
    tuple(tuple(range(i + 1)) for i in range(40)),
    ((), (), ()),
])
def test_stars_cycles_and_complete_graphs(adjacency):
    assert chains._strongly_connected_components(adjacency) == (
        scc_oracle.strongly_connected_components(adjacency)
    )
