"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Exact criteria use rational equality (zero tolerance); the simulator
criterion states its statistical bound explicitly.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from cmdpkit import instances
from cmdpkit.certificate import Certificate, CertificateUnsat, check_certificate, find_certificate
from cmdpkit.chains import state_distribution_at
from cmdpkit.cli import run as cli_run
from cmdpkit.evaluation import evaluate
from cmdpkit.model import Policy, induced_chain
from cmdpkit.residual import audit_time_consistency, build_residual_problem, residual_slack
from cmdpkit.samplepath import (
    convert_to_expected,
    samplepath_feasible,
    selective_convert,
    simulate,
    simulation_report,
)
from cmdpkit.solver import solve
from randmdp import random_decomposable, random_mdp, random_policy
from solver_oracle import class_gain

F = Fraction


def _check(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d}: FAIL  {description}")
        raise
    print(f"criterion {number:02d}: PASS  {description}")


def s_frequency(mdp, policy, x) -> Fraction:
    """Long-run expected frequency of the bad states (indicator average)."""
    bad = [1 if mdp.constraints[i][0][0] < 0 else 0 for i in range(mdp.num_states)]
    chain = induced_chain(mdp, policy)
    report = evaluate(mdp, policy, x)
    total = F(0)
    for prob, gain in zip(report.absorption, report.class_gains):
        if prob > 0:
            cls = tuple(mdp.state_index(s) for s in gain.states)
            total += prob * class_gain(chain, cls, [F(b) for b in bad])
    return total


def test_criterion_01_haviv_feasibility(haviv, haviv_a, haviv_b):
    def body():
        assert s_frequency(haviv, haviv_b, "x") == F(3, 20)
        assert evaluate(haviv, haviv_b, "x").W == (F(-1, 40),)
        assert evaluate(haviv, haviv_a, "x").W == (F(0),)
        result = solve(haviv, "x")
        assert result.status == "optimal"
        assert result.policy.action_for("y") == "a"
        assert result.value == 5

    _check(1, "haviv feasibility: policy a is the unique feasible optimum, V = 5", body)


def test_criterion_02_haviv_residual(haviv, haviv_a):
    def body():
        spec = residual_slack(haviv, haviv_a, "x", "y", 1)
        assert spec.slack == (F(3, 40),)
        shifted = build_residual_problem(haviv, spec)
        bad = {"c1_0", "c2_0", "c3_0"}
        for i, state in enumerate(shifted.states):
            expected = F(1, 20) - (1 if state in bad else 0)
            assert all(cvec == (expected,) for cvec in shifted.constraints[i])
        result = solve(shifted, "y")
        assert result.status == "optimal"
        assert result.feasible_count == 1
        assert result.policy.action_for("y") == "a"

    _check(2, "haviv residual: slack 3/40, bound becomes 1/20, only action a", body)


def test_criterion_03_haviv_inconsistency(haviv):
    def body():
        report = audit_time_consistency(haviv)
        entry = next(e for e in report.entries if e.state == "y" and e.time == 1)
        assert not entry.consistent
        assert entry.unmodified_status == "optimal"
        assert entry.unmodified_value == 20
        assert entry.unmodified_policy.action_for("y") == "b"
        assert entry.residual_policy.action_for("y") == "a"
        assert entry.policy_feasible_residual  # feasibility transfer
        assert not report.consistent

    _check(3, "haviv inconsistency flagged at (y, 1): 20 vs 10, residual picks a", body)


def test_criterion_04_decomposition_identity(haviv, haviv_a, haviv_b):
    def body():
        cases = [(haviv, haviv_a, "x"), (haviv, haviv_b, "x")]
        rng = random.Random(404)
        for _ in range(100):
            mdp = random_mdp(rng, max_states=12, max_actions=3, max_policies=16)
            cases.append((mdp, random_policy(rng, mdp), "s0"))
        for mdp, policy, x in cases:
            chain = induced_chain(mdp, policy)
            start = mdp.state_index(x)
            base = evaluate(mdp, policy, x)
            for t in (1, 2, 3):
                d = state_distribution_at(chain, start, t)
                mixed_v = F(0)
                mixed_w = [F(0)] * mdp.constraint_dim
                for s, mass in enumerate(d):
                    if mass == 0:
                        continue
                    here = evaluate(mdp, policy, mdp.states[s])
                    mixed_v += mass * here.V
                    for k in range(mdp.constraint_dim):
                        mixed_w[k] += mass * here.W[k]
                assert mixed_v == base.V
                assert tuple(mixed_w) == base.W

    _check(4, "W(x) = sum_y Pr{X_t=y} W(y) exactly, haviv + 100 random models", body)


def test_criterion_05_certificate_soundness(twochain):
    def body():
        policy = Policy.from_mapping(twochain, {})
        cert = find_certificate(twochain, "x", policy)
        assert isinstance(cert, Certificate)
        assert cert.mu == (F(1, 2),)
        assert cert.gain == F(1, 2)
        assert check_certificate(twochain, "x", policy, cert).verdict == "pass"
        assert cert.gain == solve(twochain, "x").value

        rng = random.Random(505)
        for _ in range(100):
            mdp = random_mdp(
                rng, max_states=4, max_actions=3, constraint_dims=(0,),
                full_support=True, max_policies=81,
            )
            result = solve(mdp, "s0")
            found = find_certificate(mdp, "s0", result.policy)
            assert isinstance(found, Certificate)
            assert found.gain == result.value
            assert check_certificate(mdp, "s0", result.policy, found).verdict == "pass"

    _check(5, "certificates: twochain mu=1/2 gain=1/2; 100 unconstrained optima certified", body)


def test_criterion_06_haviv_certificate_unsat(haviv, haviv_a, instances_dir):
    def body():
        verdict = find_certificate(haviv, "x", haviv_a)
        assert isinstance(verdict, CertificateUnsat)
        assert verdict.stage == "class-gains"
        assert verdict.conflict == (0, 1)
        first, second = (verdict.class_equations[k] for k in verdict.conflict)
        assert set(first.states) == {f"c1_{k}" for k in range(5)}
        assert set(second.states) == {f"c2_{k}" for k in range(20)}
        assert (first.reward_gain, first.constraint_gain) == (F(0), (F(-3, 40),))
        assert (second.reward_gain, second.constraint_gain) == (F(10), (F(3, 40),))
        # deterministic, documented output
        assert find_certificate(haviv, "x", haviv_a) == verdict
        argv = ["certify", str(instances_dir / "haviv.json"), "--policy", "y=a", "--search"]
        first_run, second_run = cli_run(argv), cli_run(argv)
        assert first_run.exit_code == 1
        assert first_run.report == second_run.report

    _check(6, "haviv certificate UNSAT isolating the chain-1 vs chain-2 conflict", body)


def test_criterion_07_squander_formula():
    def body():
        expected = {F(1, 2): F(-1, 10), F(1, 10): F(-9, 10), F(1, 100): F(-99, 10)}
        for eps, slack in expected.items():
            mdp = instances.squander(eps)
            result = solve(mdp)
            assert result.status == "optimal"
            spec = residual_slack(mdp, result.policy, "x", "y", 1)
            assert spec.slack == (slack,)
            assert spec.slack == (F(1, 10) * (1 - 1 / eps),)

    _check(7, "squander slack equals 0.1(1 - 1/eps): -1/10, -9/10, -99/10", body)


def test_criterion_08_samplepath_semantics(haviv, haviv_a, haviv_b, yacht):
    def body():
        chain1 = {f"c1_{k}" for k in range(5)}
        for policy in (haviv_a, haviv_b):
            verdict = samplepath_feasible(haviv, policy, "x")
            assert not verdict.feasible
            assert set(verdict.witness_class) == chain1

        best = None
        for combo in itertools.product(*yacht.actions):
            policy = Policy(choice=tuple(zip(yacht.states, combo)))
            if samplepath_feasible(yacht, policy, "x").feasible:
                value = evaluate(yacht, policy, "x").V
                if best is None or value > best[0]:
                    best = (value, policy, 1)
                elif value == best[0]:
                    best = (best[0], best[1], best[2] + 1)
        value, policy, ties = best
        assert ties == 1
        assert policy.action_for("y") == "buy"
        assert policy.action_for("z") == "save"

    _check(8, "sample-path: no feasible haviv policy; yacht buys at y only", body)


def test_criterion_09_selective_conversion(haviv):
    def body():
        selective = selective_convert(haviv, "x")
        assert selective.constraint_dim == 2
        # chain-1 states carry no constraint component, chains 2 and 3 do
        i = selective.state_index("c1_0")
        assert selective.constraints[i][0] == (F(0), F(0))
        j = selective.state_index("c2_0")
        k = selective.state_index("c3_0")
        assert selective.constraints[j][0][0] != 0
        assert selective.constraints[k][0][1] != 0
        result = solve(selective, "x")
        assert result.status == "optimal"
        assert result.policy.action_for("y") == "b"
        assert result.value == 10
        audit = audit_time_consistency(selective)
        entry = next(e for e in audit.entries if e.state == "y")
        assert entry.consistent
        assert audit.consistent

    _check(9, "selective conversion: constraints on chains 2-3 only, b optimal, consistent", body)


def test_criterion_10_equivalence_property():
    def body():
        rng = random.Random(1010)
        for _ in range(100):
            mdp = random_decomposable(rng)
            policy = random_policy(rng, mdp)
            converted = convert_to_expected(mdp, "t0")
            sample = samplepath_feasible(mdp, policy, "t0").feasible
            expected = all(w >= 0 for w in evaluate(converted, policy, "t0").W)
            assert sample == expected

    _check(10, "sample-path feasibility equals converted expected feasibility, 100 models", body)


def test_criterion_11_simulator_statistics(haviv, haviv_a):
    def body():
        steps = 100_000
        bad = [haviv.state_index(s) for s in ("c1_0", "c2_0", "c3_0")]
        for seed in range(20):
            report = simulation_report(haviv, haviv_a, "x", steps, seed)
            target = F(1, 5) if "c1_0" in report.absorbed_class else F(1, 20)
            freq = sum(report.visit_frequency[i] for i in bad)
            bound = 4 * math.sqrt(float(target) * (1 - float(target)) / steps)
            assert abs(float(freq - target)) <= bound
        first, _ = simulate(haviv, haviv_a, "x", steps, 12)
        second, _ = simulate(haviv, haviv_a, "x", steps, 12)
        assert first == second
        assert json.dumps(first.states).encode() == json.dumps(second.states).encode()

    _check(11, "simulator: conditional S-frequencies within 4 SE over 20 seeds, seed-stable", body)


def test_criterion_12_oracle_equivalence():
    def body():
        rng = random.Random(1212)
        for _ in range(200):
            mdp = random_mdp(
                rng, max_states=8, max_actions=3, constraint_dims=(0, 1, 2),
                max_policies=36,
            )
            got = solve(mdp, "s0")
            # independently coded brute force: enumerate, evaluate, filter, argmax
            best = None
            feasible = 0
            for combo in itertools.product(*mdp.actions):
                policy = Policy(choice=tuple(zip(mdp.states, combo)))
                report = evaluate(mdp, policy, "s0")
                if all(w >= 0 for w in report.W):
                    feasible += 1
                    if best is None or report.V > best[0]:
                        best = (report.V, policy)
            assert got.feasible_count == feasible
            if best is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal"
                assert got.value == best[0]
                assert got.policy == best[1]

    _check(12, "solver agrees with an independent brute force on 200 random models", body)
