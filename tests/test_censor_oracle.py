"""The solver's censored-chain pass against the full-chain reference.

``solver._rows`` eliminates the decision states of the chain censored onto
them one at a time along its walk; ``solver_oracle.canonical_rows`` is the
pass that finds the canonical policies by a reach search over the full
chain and analyses each one's full induced chain. The solver's rows hold
integers; materialised (``solver_oracle.materialise``) and sorted by key,
they must be equal one by one (policy, key, V, W, count), with every value
a ``Fraction``. In walk order, the rows must equal
``solver_oracle.leaf_rows``, the same walk analysing each leaf's embedded
chain on its own, with every row update of the walk checked against the
rational one (``lp_oracle.checked_eliminate``). Every ``solve`` and ``PolicyTable.solve`` must also
equal ``solver_oracle.best`` over ``solver_oracle.enumerated_rows``, the
pass that kept the first best row in ``enumerate_policies`` order.

``chains.censor`` keeps only the closure of its start states over every
action. From any start set it must equal the censor from every state
restricted to that closure: the same decision states, action rows, fixed
classes and gains, and each start's entry row, once the node columns are
renumbered. States no start reaches keep their place in the key, with
action 0, and multiply every row's count.

Each stratum is drawn by its own generator, so every run covers it: fixed
closed classes of single-action states, no decision state at all, and
constraint dimensions 0, 1 and 2; start sets mix decision states,
single-action transient states and fixed-class states; and each model may
be replaced by a lazy variant at alpha = k/1009 or k/(2**61 - 1).
"""

import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import lp_oracle
import solver_oracle
from cmdpkit import chains, evaluation, instances, model, solver
from cmdpkit.solver import PolicyTable, _rows, solve
from dense_oracle import dense_kernel, sparse_kernel
from randmdp import examples, lazy_variant, random_decomposable, random_mdp, random_row
from test_solver import nested_model

MERSENNE_61 = 2**61 - 1


def with_fixed_class(rng: random.Random, mdp: model.Mdp) -> model.Mdp:
    """The model with its last states made single-action and closed among
    themselves, so they hold at least one fixed class."""
    n = mdp.num_states
    block = list(range(n - rng.randint(1, min(3, n - 1)), n))
    kernel = list(dense_kernel(mdp))
    actions, rewards, constraints = list(mdp.actions), list(mdp.rewards), list(mdp.constraints)
    for s in block:
        support = rng.sample(block, rng.randint(1, len(block)))
        kernel[s] = (random_row(rng, n, support=support),)
        actions[s], rewards[s], constraints[s] = actions[s][:1], rewards[s][:1], constraints[s][:1]
    return mdp._replace(
        actions=tuple(actions), successors=sparse_kernel(kernel),
        rewards=tuple(rewards), constraints=tuple(constraints),
    )


def draw_model(rng: random.Random, stratum: str, dim: int) -> model.Mdp:
    dims = (dim,)
    if stratum == "fixed":
        return with_fixed_class(
            rng, random_mdp(rng, max_states=8, constraint_dims=dims, max_policies=32, min_states=3)
        )
    if stratum == "decomposable":
        return random_decomposable(rng, constraint_dims=dims)
    if stratum == "no-decision":
        return random_mdp(rng, max_states=8, constraint_dims=dims, max_policies=1)
    return random_mdp(rng, max_states=8, constraint_dims=dims, max_policies=32)


def draw_starts(rng: random.Random, mdp: model.Mdp) -> list[int]:
    """A start set with one state of each kind the model has, plus a few more."""
    censored = chains.censor(mdp, range(mdp.num_states))
    fixed = {s for cls in censored.fixed for s in cls}
    kinds = [
        list(censored.decision),
        sorted(fixed),
        [s for s in range(mdp.num_states) if s not in fixed and s not in censored.decision],
    ]
    starts = {rng.choice(kind) for kind in kinds if kind}
    starts |= set(rng.sample(range(mdp.num_states), rng.randint(0, mdp.num_states)))
    return rng.sample(sorted(starts), len(starts))


def assert_rows_equal(mdp: model.Mdp, starts: list[int]) -> None:
    got = sorted(solver_oracle.materialise(mdp, _rows(mdp, starts)), key=lambda row: row.key)
    assert got == list(solver_oracle.canonical_rows(mdp, starts))
    for row in got:
        assert all(type(v) is Fraction for v in row.V)
        assert all(type(c) is Fraction for w in row.W for c in w)
        assert len(row.W) == len(starts)
        assert all(len(w) == mdp.constraint_dim for w in row.W)


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable", "no-decision"])
@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([None, 1009, MERSENNE_61]))
def test_censored_rows_equal_the_full_chain_rows(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    censored = chains.censor(mdp, range(mdp.num_states))
    if stratum in ("fixed", "decomposable"):
        assert censored.fixed
    if stratum == "no-decision":
        assert not censored.decision
    assert_rows_equal(mdp, draw_starts(rng, mdp))


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable", "no-decision"])
@settings(max_examples=examples(50), deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([None, 1009, MERSENNE_61]))
def test_walk_rows_equal_the_per_leaf_rows_in_walk_order(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    # Every row update of the walk is checked against the rational one.
    with mock.patch.object(solver, "eliminate", lp_oracle.checked_eliminate):
        for starts in ([rng.randrange(mdp.num_states)], draw_starts(rng, mdp)):
            got = solver_oracle.materialise(mdp, _rows(mdp, starts))
            assert got == list(solver_oracle.leaf_rows(mdp, starts))


def assert_solves_equal_the_enumerated_pass(
    mdp: model.Mdp, rng: random.Random
) -> tuple[int, int]:
    """``solve`` at every state, and a table's ``solve`` at each of a drawn
    start set, with and without a random slack, against the enumerated pass.

    Returns how many of those solves have more than one canonical policy at
    the optimum, and how many one-state walks do not come in key order.
    """
    ties = unordered = 0
    for k, y in enumerate(mdp.states):
        reference = list(solver_oracle.enumerated_rows(mdp, [k]))
        assert solve(mdp, y) == solver_oracle.best(reference, 0)
        keys = [row.key for row in _rows(mdp, [k])]
        unordered += keys != sorted(keys)
    starts = draw_starts(rng, mdp)
    table = PolicyTable(mdp, tuple(mdp.states[s] for s in starts))
    reference = list(solver_oracle.enumerated_rows(mdp, starts))
    for k, s in enumerate(starts):
        slack = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(mdp.constraint_dim)
        )
        for shift in (None, slack):
            expected = solver_oracle.best(reference, k, shift)
            assert table.solve(mdp.states[s], shift) == expected
            floor = shift or (0,) * mdp.constraint_dim
            optimal = [
                row for row in reference
                if row.V[k] == expected.value and all(c >= d for c, d in zip(row.W[k], floor))
            ]
            ties += len(optimal) > 1
    return ties, unordered


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable", "no-decision"])
@settings(max_examples=examples(20), deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([None, 1009, MERSENNE_61]))
def test_solves_equal_the_enumerated_pass_at_every_start(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    assert_solves_equal_the_enumerated_pass(mdp, rng)


def test_tied_optima_and_walks_out_of_key_order_occur():
    rng = random.Random(17)
    ties = unordered = 0
    for _ in range(30):
        mdp = draw_model(rng, rng.choice(["random", "fixed", "decomposable"]), rng.randint(0, 2))
        counted = assert_solves_equal_the_enumerated_pass(mdp, rng)
        ties, unordered = ties + counted[0], unordered + counted[1]
    assert ties >= 10 and unordered >= 10


def test_the_strata_reach_every_kind_of_start():
    # Starts on a decision state, a single-action transient state and a
    # fixed-class state together, under policies that differ, occur.
    rng = random.Random(5)
    mixed = 0
    for _ in range(40):
        mdp = draw_model(rng, "fixed", rng.randint(0, 2))
        censored = chains.censor(mdp, range(mdp.num_states))
        starts = draw_starts(rng, mdp)
        fixed = {s for cls in censored.fixed for s in cls}
        transient = set(range(mdp.num_states)) - fixed - set(censored.decision)
        kinds = (set(censored.decision), fixed, transient)
        if all(kind & set(starts) for kind in kinds):
            mixed += 1
            assert_rows_equal(mdp, starts)
    assert mixed >= 5


def test_bundled_instances_equal_the_full_chain_rows_at_every_state():
    for build in instances.BUNDLED.values():
        mdp = build()
        assert_rows_equal(mdp, list(range(mdp.num_states)))
        for s in range(mdp.num_states):
            assert_rows_equal(mdp, [s])


@contextmanager
def recording_fractions():
    """A list that receives the arguments of every ``Fraction`` built while open.

    Newer Pythons build arithmetic results by ``Fraction._from_coprime_ints``,
    not ``Fraction.__new__``, so both are recorded.
    """
    built: list[tuple] = []
    new = Fraction.__new__

    def recording_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(Fraction, "__new__", recording_new))
        if hasattr(Fraction, "_from_coprime_ints"):
            coprime = Fraction._from_coprime_ints

            def recording_coprime(cls, *args):
                built.append(args)
                return coprime(*args)

            stack.enter_context(
                mock.patch.object(Fraction, "_from_coprime_ints", classmethod(recording_coprime))
            )
        yield built


def test_censor_builds_no_fraction():
    # The fixed classes' visits and sums are integers too: the censor reads
    # the model's probabilities and totals as numerators and denominators.
    rng = random.Random(37)
    models = [build() for build in instances.BUNDLED.values()]
    for _ in range(20):
        mdp = draw_model(rng, "fixed", rng.randint(0, 2))
        models.append(lazy_variant(mdp, Fraction(rng.randint(1, 1008), 1009)))
    fixed = 0
    for mdp in models:
        with recording_fractions() as built:
            censored = chains.censor(mdp, range(mdp.num_states))
        assert built == []
        fixed += len(censored.fixed)
    assert fixed >= 20
    with recording_fractions() as built:
        Fraction(1, 3) + Fraction(1, 6)
    assert built


def test_embedded_chains_have_a_row_per_node_and_the_precompute_runs_once():
    # The pass censors once, with one DAG solve and one class solve per
    # fixed class, and then only eliminates: no policy's chain is built,
    # decomposed, absorbed or mixed.
    rng = random.Random(29)
    checked = 0
    for _ in range(30):
        mdp = draw_model(rng, rng.choice(["random", "fixed"]), 1)
        starts = draw_starts(rng, mdp)
        censored = chains.censor(mdp, starts)
        nodes = len(censored.decision) + len(censored.fixed)
        assert [len(rows) for rows in censored.rows] == [
            len(mdp.actions[s]) for s in censored.decision
        ]
        assert len(censored.entry) == len(starts)
        with mock.patch.object(chains, "censor", wraps=chains.censor) as censor, \
                mock.patch.object(chains, "_solve_along_dag", wraps=chains._solve_along_dag) as dag, \
                mock.patch.object(chains, "class_visits", wraps=chains.class_visits) as visits, \
                mock.patch.object(chains, "decompose", wraps=chains.decompose) as decompose, \
                mock.patch.object(chains, "absorption_map", wraps=chains.absorption_map) as absorb, \
                mock.patch.object(solver_oracle, "mix", wraps=solver_oracle.mix) as mix, \
                mock.patch.object(model, "induced_chain") as induced, \
                mock.patch.object(chains, "induced_chain", induced), \
                mock.patch.object(evaluation, "validate_policy", induced):
            rows = list(_rows(mdp, starts))
        assert censor.call_count == 1 and dag.call_count == 1
        assert dag.call_args.args[3] == nodes + 2 + mdp.constraint_dim
        assert [call.args[1] for call in visits.call_args_list] == list(censored.fixed)
        assert decompose.call_count == absorb.call_count == mix.call_count == 0
        assert induced.call_count == 0
        checked += len(rows) > 1
    assert checked >= 10


def test_the_dag_and_stationary_solves_run_inside_censor():
    # The class solves are ``class_visits``; no stationary vector is built.
    rng = random.Random(31)
    for _ in range(20):
        mdp = draw_model(rng, "fixed", rng.randint(0, 2))
        starts = draw_starts(rng, mdp)
        inside = []
        original = chains.censor

        def censor(mdp, starts):
            inside.append(True)
            try:
                return original(mdp, starts)
            finally:
                inside.append(False)

        def during(name):
            function = getattr(chains, name)

            def spy(*args):
                assert inside and inside[-1], f"{name} ran outside censor"
                return function(*args)
            return spy

        with mock.patch.object(chains, "censor", censor), \
                mock.patch.object(chains, "_solve_along_dag", during("_solve_along_dag")), \
                mock.patch.object(chains, "class_visits", during("class_visits")):
            list(_rows(mdp, starts))
        assert inside == [True, False]


def test_censoring_keeps_only_decision_states_and_fixed_classes():
    rng = random.Random(3)
    for _ in range(30):
        mdp = draw_model(rng, "fixed", 1)
        censored = chains.censor(mdp, range(mdp.num_states))
        assert censored.decision == tuple(
            s for s in range(mdp.num_states) if len(mdp.actions[s]) > 1
        )
        # Every fixed class is a recurrent class of every policy's chain.
        full = chains.decompose(tuple(rows[0] for rows in mdp.successors))
        assert set(censored.fixed) <= set(full.recurrent_classes)
        nodes = len(censored.decision) + len(censored.fixed)
        width = nodes + 2 + mdp.constraint_dim
        for rows in censored.rows:
            for numerators, denominator in rows:
                assert sum(x for c, x in numerators.items() if c < nodes) == denominator
                assert all(0 <= c < width and x for c, x in numerators.items())
                assert all(x > 0 for c, x in numerators.items() if c < nodes)
                # Every excursion takes at least the step itself.
                assert numerators[width - 1] >= denominator
        for s, (numerators, denominator) in enumerate(censored.entry):
            assert sum(x for c, x in numerators.items() if c < nodes) == denominator
            assert all(0 <= c < width and x for c, x in numerators.items())
            if s in censored.decision or any(s in cls for cls in censored.fixed):
                assert denominator == 1 and list(numerators.values()) == [1]
        for fixed, (*_, steps) in zip(censored.fixed, censored.fixed_gains):
            assert steps > 0


def test_tables_on_scaled_models_equal_the_full_chain_rows():
    for decisions in (0, 3, 6):
        mdp = nested_model(decisions)
        for starts in ([0], list(range(0, mdp.num_states, 2))):
            table = PolicyTable(mdp, tuple(mdp.states[i] for i in starts))
            got = solver_oracle.materialise(mdp, table.rows)
            assert got == list(solver_oracle.canonical_rows(mdp, starts))


def assert_restricted_equals_full(mdp: model.Mdp, starts: list[int]) -> bool:
    """``censor(mdp, starts)`` against ``censor(mdp, range(n))`` on the closure.

    Returns whether the closure leaves some state of the model out.
    """
    full = chains.censor(mdp, range(mdp.num_states))
    part = chains.censor(mdp, starts)
    closure = {
        mdp.state_index(y) for s in starts
        for y in dense_oracle.reachable_states(mdp, None, mdp.states[s])
    }
    assert part.decision == tuple(s for s in full.decision if s in closure)
    # A fixed class is closed, so the closure holds all of it or none.
    assert all(set(cls) <= closure or not set(cls) & closure for cls in full.fixed)
    kept = [f for f, cls in enumerate(full.fixed) if set(cls) <= closure]
    assert part.fixed == tuple(full.fixed[f] for f in kept)
    assert part.fixed_gains == tuple(full.fixed_gains[f] for f in kept)
    # The full censor's column of each restricted column: the nodes, then
    # the totals, which follow the nodes in both.
    full_nodes = len(full.decision) + len(full.fixed)
    column = [full.decision.index(s) for s in part.decision]
    column += [len(full.decision) + f for f in kept]
    column += range(full_nodes, full_nodes + 2 + mdp.constraint_dim)

    def renumbered(row):
        numerators, denominator = row
        return {column[c]: x for c, x in numerators.items()}, denominator

    for k, s in enumerate(part.decision):
        assert [renumbered(row) for row in part.rows[k]] == list(
            full.rows[full.decision.index(s)]
        )
    assert [renumbered(row) for row in part.entry] == [full.entry[s] for s in starts]
    return len(closure) < mdp.num_states


def draw_start_set(rng: random.Random, mdp: model.Mdp) -> list[int]:
    """One to three start states, in any order, possibly repeated."""
    return [rng.randrange(mdp.num_states) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("dim", [0, 1, 2])
@pytest.mark.parametrize("stratum", ["random", "fixed", "decomposable", "no-decision"])
@settings(max_examples=examples(30), deadline=None)
@given(seed=st.integers(0, 10**9), lazy=st.sampled_from([None, 1009, MERSENNE_61]))
def test_restricted_censor_equals_the_full_one(stratum, dim, seed, lazy):
    rng = random.Random(seed)
    mdp = draw_model(rng, stratum, dim)
    if lazy is not None:
        mdp = lazy_variant(mdp, Fraction(rng.randint(1, lazy // 2), lazy))
    assert_restricted_equals_full(mdp, draw_start_set(rng, mdp))


def test_start_sets_often_leave_states_out():
    rng = random.Random(37)
    restricted = 0
    for _ in range(60):
        mdp = draw_model(rng, rng.choice(["random", "fixed", "decomposable"]), rng.randint(0, 2))
        restricted += assert_restricted_equals_full(mdp, draw_start_set(rng, mdp))
    assert restricted >= 15


def unreached_parts_model() -> model.Mdp:
    """A start with a binary choice, and a 3-action state and a closed cycle it never reaches.

    From s0, "stay" loops (V 2, W -1, infeasible) and "go" passes through
    s1 and back (V 1/2, W 1/2). Nothing reaches u, which moves into the
    single-action cycle c0 -> c1 -> c0 or stays, and no path leads from
    the cycle to s0 or s1.
    """
    one = Fraction(1)
    index = {name: i for i, name in enumerate(("s0", "u", "s1", "c0", "c1"))}

    def to(name):
        return ((index[name], one),)

    return model.Mdp(
        states=tuple(index),
        actions=(("stay", "go"), ("x", "y", "z"), ("only",), ("only",), ("only",)),
        successors=(
            (to("s0"), to("s1")), (to("c0"), to("c1"), to("u")), (to("s0"),), (to("c1"),),
            (to("c0"),),
        ),
        rewards=((Fraction(2), Fraction(0)), (Fraction(5), Fraction(6), Fraction(7)),
                 (one,), (Fraction(3),), (one,)),
        constraints=(((Fraction(-1),), (one,)), ((Fraction(0),),) * 3, ((Fraction(0),),),
                     ((Fraction(0),),), ((Fraction(0),),)),
        constraint_dim=1,
        initial_state="s0",
    )


def test_states_no_start_reaches_keep_their_key_slot_and_multiply_the_counts():
    mdp = unreached_parts_model()
    assert model.validate(mdp).ok
    assert chains.censor(mdp, range(mdp.num_states)).fixed == ((3, 4),)
    # The model without u and the cycle: the closure of s0 on its own.
    closure = mdp._replace(
        states=("s0", "s1"), actions=(mdp.actions[0], mdp.actions[2]),
        successors=((((0, Fraction(1)),), ((1, Fraction(1)),)), (((0, Fraction(1)),),)),
        rewards=(mdp.rewards[0], mdp.rewards[2]),
        constraints=(mdp.constraints[0], mdp.constraints[2]),
    )
    alone = solve(closure)
    assert (alone.feasible_count, alone.total_count) == (1, 2)
    with mock.patch.object(chains, "class_visits", wraps=chains.class_visits) as visits:
        result = solve(mdp)
        rows = list(_rows(mdp, [0]))
    assert result.total_count == solver_oracle.policy_count(mdp) == 6
    assert result.feasible_count == 3 * alone.feasible_count
    assert result.policy.choice == (
        ("s0", "go"), ("u", "x"), ("s1", "only"), ("c0", "only"), ("c1", "only")
    )
    assert (result.value, result.W_at_optimum) == (Fraction(1, 2), (Fraction(1, 2),))
    assert result == solver_oracle.best(list(solver_oracle.enumerated_rows(mdp, [0])), 0)
    # The key covers u, at action 0, and each row stands for its 3 actions.
    assert [(row.key, row.count) for row in rows] == [((0, 0), 3), ((1, 0), 3)]
    assert not any(set(call.args[1]) & {3, 4} for call in visits.call_args_list)
