import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from cmdpkit import samplepath
from cmdpkit.chains import absorption_map
from cmdpkit.evaluation import evaluate
from cmdpkit.model import Policy, induced_chain, parse_instance
from cmdpkit.residual import audit_time_consistency
from cmdpkit.samplepath import (
    MAX_STEPS,
    NotDecomposableError,
    StepLimitError,
    controllable_classes,
    convert_to_expected,
    samplepath_feasible,
    selective_convert,
    simulate,
    simulation_report,
    trans_policy_decomposition,
)
from cmdpkit.solver import solve
from randmdp import lazy_variant, random_decomposable, random_mdp, random_policy

F = Fraction


def all_policies(mdp):
    for combo in itertools.product(*mdp.actions):
        yield Policy(choice=tuple(zip(mdp.states, combo)))


def test_haviv_samplepath_infeasible_both_ways(haviv, haviv_a, haviv_b):
    for policy in (haviv_a, haviv_b):
        verdict = samplepath_feasible(haviv, policy, "x")
        assert not verdict.feasible
        assert set(verdict.witness_class) == {f"c1_{k}" for k in range(5)}
        assert verdict.witness_gain == (F(-3, 40),)


def test_haviv_samplepath_feasible_from_y(haviv, haviv_b):
    verdict = samplepath_feasible(haviv, haviv_b, "y")
    assert verdict.feasible
    assert verdict.witness_class is None


def test_feasible_at_x_iff_feasible_at_every_reachable_state():
    # the almost-sure criterion is closed under policy reachability
    rng = random.Random(2718)
    from cmdpkit.chains import reachable_states
    from randmdp import random_mdp

    for _ in range(20):
        mdp = random_mdp(rng, max_states=6, constraint_dims=(1,), max_policies=8)
        policy = random_policy(rng, mdp)
        at_start = samplepath_feasible(mdp, policy, "s0").feasible
        everywhere = all(
            samplepath_feasible(mdp, policy, y).feasible
            for y in reachable_states(mdp, policy, "s0")
        )
        assert at_start == everywhere


def test_unconstrained_is_vacuously_feasible():
    doc = {
        "constraint_dim": 0,
        "initial_state": "s",
        "states": [{"id": "s", "actions": [
            {"id": "stay", "reward": "1", "constraint": [], "transitions": {"s": "1"}},
        ]}],
    }
    mdp = parse_instance(json.dumps(doc))
    assert samplepath_feasible(mdp, Policy.from_mapping(mdp, {}), "s").feasible


# ---------------------------------------------------------------------------
# conversion

def test_haviv_is_decomposable(haviv):
    structure = trans_policy_decomposition(haviv)
    assert len(structure.recurrent_classes) == 3
    assert {haviv.states[s] for s in structure.transient_states} == {"x", "y"}


def test_convert_haviv_dimensions_and_infeasibility(haviv):
    converted = convert_to_expected(haviv, "x")
    assert converted.constraint_dim == 3
    assert converted.successors == haviv.successors
    assert converted.rewards == haviv.rewards
    assert solve(converted, "x").status == "infeasible"


def test_convert_zeroes_transient_constraints(haviv):
    converted = convert_to_expected(haviv, "x")
    for label in ("x", "y"):
        i = converted.state_index(label)
        for cvec in converted.constraints[i]:
            assert all(c == 0 for c in cvec)


def test_convert_single_class_keeps_constraint():
    doc = {
        "constraint_dim": 1,
        "initial_state": "t",
        "states": [
            {"id": "t", "actions": [
                {"id": "go", "reward": "0", "constraint": ["9"],
                 "transitions": {"s": "1"}},
            ]},
            {"id": "s", "actions": [
                {"id": "stay", "reward": "1", "constraint": ["-2/3"],
                 "transitions": {"s": "1"}},
            ]},
        ],
    }
    mdp = parse_instance(json.dumps(doc))
    converted = convert_to_expected(mdp, "t")
    assert converted.constraint_dim == 1
    s = converted.state_index("s")
    t = converted.state_index("t")
    assert converted.constraints[s][0] == (F(-2, 3),)
    assert converted.constraints[t][0] == (F(0),)


def test_yacht_conversion_matches_samplepath(yacht):
    converted = convert_to_expected(yacht, "x")
    assert converted.constraint_dim == 4
    for policy in all_policies(yacht):
        sample = samplepath_feasible(yacht, policy, "x").feasible
        expected = all(w >= 0 for w in evaluate(converted, policy, "x").W)
        assert sample == expected


def test_haviv_controllability(haviv):
    control = controllable_classes(haviv, "x")
    by_first = {c.states[0]: c for c in control.classes}
    chain1 = by_first["c1_0"]
    assert (chain1.min_prob, chain1.max_prob) == (F(1, 2), F(1, 2))
    assert not chain1.controllable
    for entry in ("c2_0", "c3_0"):
        cls = by_first[entry]
        assert (cls.min_prob, cls.max_prob) == (F(0), F(1, 2))
        assert cls.controllable


def test_single_action_model_is_uncontrollable(twochain):
    control = controllable_classes(twochain, "x")
    assert all(not c.controllable for c in control.classes)


def test_yacht_all_classes_controllable(yacht):
    control = controllable_classes(yacht, "x")
    assert len(control.classes) == 4
    assert all(c.controllable for c in control.classes)


def test_selective_convert_haviv(haviv):
    selective = selective_convert(haviv, "x")
    assert selective.constraint_dim == 2
    # components belong to chains 2 and 3; chain-1 states carry zeros
    i = selective.state_index("c1_0")
    assert selective.constraints[i][0] == (F(0), F(0))
    j = selective.state_index("c2_0")
    assert selective.constraints[j][0] == (F(1, 8) - 1, F(0))
    result = solve(selective, "x")
    assert result.status == "optimal"
    assert result.policy.action_for("y") == "b"
    assert result.value == 10
    audit = audit_time_consistency(selective)
    assert audit.consistent


def test_selective_convert_no_controllable_classes(twochain):
    selective = selective_convert(twochain, "x")
    assert selective.constraint_dim == 0
    assert solve(selective, "x").status == "optimal"


def test_selective_equals_full_conversion_when_all_controllable(yacht):
    assert selective_convert(yacht, "x").constraints == \
        convert_to_expected(yacht, "x").constraints


def test_not_decomposable_error_names_states():
    doc = {
        "constraint_dim": 1,
        "initial_state": "u",
        "states": [
            {"id": "u", "actions": [
                {"id": "stay", "reward": "0", "constraint": ["0"],
                 "transitions": {"u": "1"}},
                {"id": "swap", "reward": "0", "constraint": ["0"],
                 "transitions": {"v": "1"}},
            ]},
            {"id": "v", "actions": [
                {"id": "back", "reward": "0", "constraint": ["0"],
                 "transitions": {"u": "1"}},
            ]},
        ],
    }
    mdp = parse_instance(json.dumps(doc))
    with pytest.raises(NotDecomposableError) as err:
        convert_to_expected(mdp, "u")
    assert "u" in str(err.value)


def test_unreachable_bad_class_passes_both_criteria():
    # a never-entered class with a bad gain does not break feasibility in
    # either semantics: its converted component is zero under this policy
    doc = {
        "constraint_dim": 1,
        "initial_state": "t0",
        "states": [
            {"id": "t0", "actions": [
                {"id": "good", "reward": "0", "constraint": ["0"],
                 "transitions": {"c0": "1"}},
                {"id": "bad", "reward": "9", "constraint": ["0"],
                 "transitions": {"c1": "1"}},
            ]},
            {"id": "c0", "actions": [
                {"id": "move", "reward": "1", "constraint": ["1/2"],
                 "transitions": {"c0": "1"}},
            ]},
            {"id": "c1", "actions": [
                {"id": "move", "reward": "5", "constraint": ["-1/2"],
                 "transitions": {"c1": "1"}},
            ]},
        ],
    }
    mdp = parse_instance(json.dumps(doc))
    converted = convert_to_expected(mdp, "t0")
    good = Policy.from_mapping(mdp, {"t0": "good"})
    bad = Policy.from_mapping(mdp, {"t0": "bad"})
    assert samplepath_feasible(mdp, good, "t0").feasible
    assert all(w >= 0 for w in evaluate(converted, good, "t0").W)
    verdict = samplepath_feasible(mdp, bad, "t0")
    assert not verdict.feasible
    assert verdict.witness_class == ("c1",)
    assert any(w < 0 for w in evaluate(converted, bad, "t0").W)


def test_equivalence_on_random_decomposable_instances():
    rng = random.Random(1010)
    for _ in range(40):
        mdp = random_decomposable(rng)
        policy = random_policy(rng, mdp)
        converted = convert_to_expected(mdp, "t0")
        sample = samplepath_feasible(mdp, policy, "t0").feasible
        expected = all(w >= 0 for w in evaluate(converted, policy, "t0").W)
        assert sample == expected
        # sample-path feasibility implies expected feasibility of the
        # original constraint as well
        if sample:
            assert all(w >= 0 for w in evaluate(mdp, policy, "t0").W)


# ---------------------------------------------------------------------------
# simulation

def test_simulate_is_deterministic_per_seed(haviv, haviv_a):
    first, report_first = simulate(haviv, haviv_a, "x", 2000, 42)
    second, report_second = simulate(haviv, haviv_a, "x", 2000, 42)
    assert first == second
    assert report_first == report_second
    third, _ = simulate(haviv, haviv_a, "x", 2000, 43)
    assert third != first


def test_simulate_trajectory_respects_kernel(haviv, haviv_a):
    chain = induced_chain(haviv, haviv_a)
    trajectory, _ = simulate(haviv, haviv_a, "x", 500, 7)
    for a, b in zip(trajectory.states, trajectory.states[1:]):
        assert dict(chain[haviv.state_index(a)]).get(haviv.state_index(b), 0) > 0


def test_simulate_deterministic_cycle_matches_stationary_exactly(haviv, haviv_a):
    # starting inside the 5-cycle, any multiple of 5 steps gives frequency 1/5
    report = simulation_report(haviv, haviv_a, "c1_0", 500, 0)
    s = haviv.state_index("c1_0")
    assert report.visit_frequency[s] == F(1, 5)
    assert report.absorbed_class == tuple(f"c1_{k}" for k in range(5))
    assert report.absorbed_stationary == (F(1, 5),) * 5


def test_simulate_empirical_frequency_near_conditional_target(haviv, haviv_a):
    bad = [haviv.state_index(s) for s in ("c1_0", "c2_0", "c3_0")]
    steps = 20_000
    for seed in range(6):
        report = simulation_report(haviv, haviv_a, "x", steps, seed)
        target = F(1, 5) if "c1_0" in report.absorbed_class else F(1, 20)
        freq = sum(report.visit_frequency[i] for i in bad)
        tolerance = 3 * math.sqrt(float(target) * (1 - float(target)) / steps)
        assert abs(float(freq - target)) <= tolerance


def test_simulate_absorption_fractions_match_analytic(haviv, haviv_a):
    seeds = range(20)
    into_first = 0
    for seed in seeds:
        report = simulation_report(haviv, haviv_a, "x", 200, seed)
        if "c1_0" in report.absorbed_class:
            into_first += 1
    expected = absorption_map(induced_chain(haviv, haviv_a))[
        haviv.state_index("x")
    ][0]
    tolerance = 4 * math.sqrt(float(expected) * (1 - float(expected)) / 20)
    assert abs(into_first / 20 - float(expected)) <= tolerance


def test_simulate_empirical_averages_are_exact_rationals(haviv, haviv_a):
    trajectory, report = simulate(haviv, haviv_a, "x", 1000, 3)
    from solver_oracle import finite_horizon_averages

    v, w = finite_horizon_averages(haviv, haviv_a, trajectory)
    assert report.empirical_V == v
    assert report.empirical_W == w


def test_simulate_rejects_zero_steps(haviv, haviv_a):
    with pytest.raises(ValueError):
        simulate(haviv, haviv_a, "x", 0, 1)


def test_walks_above_the_step_limit_fail_before_walking(haviv, haviv_a):
    assert MAX_STEPS == 10**7
    with pytest.raises(StepLimitError):
        simulate(haviv, haviv_a, "x", MAX_STEPS + 1, 1)
    with pytest.raises(StepLimitError):
        simulation_report(haviv, haviv_a, "x", 10**12, 1)


def test_simulation_report_equals_simulate_report():
    rng = random.Random(4242)
    for _ in range(20):
        mdp = random_mdp(rng, max_states=6)
        policy = random_policy(rng, mdp)
        steps = rng.randint(1, 300)
        seed = rng.randint(0, 10**6)
        trajectory, report = simulate(mdp, policy, "s0", steps, seed)
        assert simulation_report(mdp, policy, "s0", steps, seed) == report
        assert len(trajectory.states) == steps
        assert report.visit_counts == tuple(
            trajectory.states.count(state) for state in mdp.states
        )


def peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_report_memory_does_not_grow_with_steps(haviv, haviv_a):
    # haviv draws once and then cycles in closed form; its lazy variant
    # draws at every step, so the walk visits each step
    for mdp in (haviv, lazy_variant(haviv, F(1, 1009))):
        short = peak_traced_bytes(lambda: simulation_report(mdp, haviv_a, "x", 10_000, 3))
        long = peak_traced_bytes(lambda: simulation_report(mdp, haviv_a, "x", 200_000, 3))
        # a recorded path alone would add at least 8 bytes per step, 1.5 MB here
        assert long - short < 64 * 1024


def test_simulate_keeps_its_path_once(haviv, haviv_a):
    # the trajectory's tuple of 10**6 state names is 8 MB; a second copy of
    # the path as a list of indices would add another 8 MB
    peak = peak_traced_bytes(lambda: simulate(haviv, haviv_a, "x", 10**6, 3))
    assert peak < 12 * 10**6


def test_a_walk_at_the_step_limit_goes_round_its_cycle_in_closed_form(haviv, haviv_a, monkeypatch):
    calls = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(samplepath, "Random", CountingRandom)
    absorbed = set()
    for seed in range(4):
        calls.clear()
        report = simulation_report(haviv, haviv_a, "x", MAX_STEPS, seed)
        # x draws once; the deterministic rest costs no draw and no step
        assert calls == [64]
        expected = dict.fromkeys(haviv.states, 0)
        expected["x"] = 1
        cycle = report.absorbed_class
        if cycle[0] == "c1_0":
            left = MAX_STEPS - 1
        else:
            expected["y"] = 1
            left = MAX_STEPS - 2
        laps, extra = divmod(left, len(cycle))
        for i, state in enumerate(cycle):
            expected[state] = laps + (i < extra)
        assert report.visit_counts == tuple(expected.values())
        absorbed.add(cycle[0])
    assert absorbed == {"c1_0", "c2_0"}
