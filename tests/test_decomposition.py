"""One Tarjan pass per chain.

``closed_classes`` keeps the transient strongly connected components it
finds, sink first, and the DAG solve behind ``absorption_map`` and
``censor`` reads them instead of running a search of its own.
``class_visits`` searches nothing either: its solve is the check that its
class is strongly connected. So the component search runs
once per ``decompose`` and once per ``censor`` pass, and nowhere else; a
policy analysis from a start decomposes and solves that start's reach
alone. The
solver's pass searches only inside its one ``censor``: the walk
eliminates states and decomposes no policy's chain.
"""

import random
from fractions import Fraction
from unittest import mock

from cmdpkit import chains, evaluation
from cmdpkit.model import induced_chain
from cmdpkit.solver import _rows
from randmdp import lazy_variant, random_policy
from test_censor_oracle import draw_model, draw_starts

COUNTED = ("_strongly_connected_components", "decompose", "class_visits", "censor")


def search_counts(run) -> dict[str, int]:
    """Calls of each counted ``chains`` function while ``run()`` runs.

    Requires one component search per decomposition and censor pass, and
    none anywhere else.
    """
    wrapped = {name: mock.MagicMock(wraps=getattr(chains, name)) for name in COUNTED}
    with mock.patch.multiple(chains, **wrapped):
        run()
    calls = {name: spy.call_count for name, spy in wrapped.items()}
    assert calls["_strongly_connected_components"] == (
        calls["decompose"] + calls["censor"]
    )
    return calls


def random_models(seed: int, count: int):
    """Seeded models of every stratum, every other one a lazy variant."""
    rng = random.Random(seed)
    for i in range(count):
        mdp = draw_model(rng, rng.choice(["random", "fixed", "decomposable"]), rng.randint(0, 2))
        if i % 2:
            mdp = lazy_variant(mdp, Fraction(rng.randint(1, 504), 1009))
        yield rng, mdp


def test_the_solver_pass_searches_each_chain_once():
    for rng, mdp in random_models(11, 30):
        starts = draw_starts(rng, mdp)
        fixed = len(chains.censor(mdp, starts).fixed)
        calls = search_counts(lambda: list(_rows(mdp, starts)))
        assert calls == {
            "_strongly_connected_components": 1,
            "decompose": 0,
            "class_visits": fixed,
            "censor": 1,
        }


def test_a_policy_analysis_searches_its_chain_once():
    # From a start x, no class or transient state outside x's reach is solved.
    restricted = 0
    for rng, mdp in random_models(12, 30):
        policy = random_policy(rng, mdp)
        for x in (None, *mdp.states):
            states = range(mdp.num_states) if x is None else [
                mdp.state_index(y) for y in chains.reachable_states(mdp, policy, x)
            ]
            dag = mock.MagicMock(wraps=chains._solve_along_dag)
            with mock.patch.object(chains, "_solve_along_dag", dag):
                calls = search_counts(lambda: evaluation.analyse_policy(mdp, policy, x))
            assert calls["decompose"] == 1 and calls["censor"] == 0
            assert dag.call_count == 1
            _, classes, components, width, _ = dag.call_args.args
            assert calls["class_visits"] == width == len(classes)
            solved = [s for group in (*classes, *components) for s in group]
            assert sorted(solved) == list(states)
            restricted += len(solved) < mdp.num_states
    assert restricted >= 20


def test_absorption_searches_only_through_decompose():
    for rng, mdp in random_models(13, 30):
        chain = induced_chain(mdp, random_policy(rng, mdp))
        decomposition = chains.decompose(chain)
        assert search_counts(lambda: chains.absorption_map(chain, decomposition)) == dict.fromkeys(
            COUNTED, 0
        )
        calls = search_counts(lambda: chains.absorption_map(chain))
        assert calls["_strongly_connected_components"] == calls["decompose"] == 1


def assert_sink_first_partition(adjacency, decomposition: chains.ChainDecomposition) -> None:
    components = decomposition.transient_components
    members = [s for component in components for s in component]
    assert sorted(members) == list(decomposition.transient_states)
    assert len(set(members)) == len(members)
    assert all(list(component) == sorted(component) for component in components)
    position = {s: c for c, component in enumerate(components) for s in component}
    recurrent = {s for cls in decomposition.recurrent_classes for s in cls}
    for c, component in enumerate(components):
        for s in component:
            for j in adjacency[s]:
                assert j in recurrent or position[j] <= c
        assert any(
            j in recurrent or position[j] < c for s in component for j in adjacency[s]
        )


def test_transient_components_partition_the_transient_states_sink_first():
    checked = 0
    for rng, mdp in random_models(14, 40):
        chain = induced_chain(mdp, random_policy(rng, mdp))
        decomposition = chains.decompose(chain)
        assert_sink_first_partition(chains.support_adjacency(chain), decomposition)
        union = chains.union_adjacency(mdp)
        assert_sink_first_partition(union, chains.closed_classes(union))
        checked += len(decomposition.transient_components) > 1
    assert checked >= 10
