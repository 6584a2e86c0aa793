import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest

from cmdpkit import certificate, lp
from cmdpkit.certificate import (
    Certificate,
    CertificateSearchError,
    CertificateUnsat,
    MissingPotentialError,
    check_certificate,
    find_certificate,
)
from cmdpkit.chains import reachable_states
from cmdpkit.evaluation import evaluate
from cmdpkit.model import InputError, Policy, load_instance, parse_instance
from cmdpkit.solver import solve
from randmdp import lazy_variant, random_decomposable, random_mdp, random_policy
from test_censor_oracle import MERSENNE_61, recording_fractions
from test_residual import wide_cycle

F = Fraction


@pytest.fixture
def twochain_policy(twochain):
    return Policy.from_mapping(twochain, {})


HAND_CERTIFICATE = Certificate(
    mu=(F(1, 2),), gain=F(1, 2), potential={"x": F(-1, 2), "a0": F(0), "b0": F(0)}
)


def test_twochain_hand_certificate_passes(twochain, twochain_policy):
    report = check_certificate(twochain, "x", twochain_policy, HAND_CERTIFICATE)
    assert report.verdict == "pass"
    assert report.first_failure is None
    assert all(gap == 0 for gap in report.bellman_residuals.values())


def test_twochain_zero_multiplier_fails_a4(twochain, twochain_policy):
    # with mu = 0 the two absorbing states would need reward gains 1 and 0
    # to share one constant, which is impossible
    cert = Certificate(
        mu=(F(0),),
        gain=F(1, 2),
        potential={"x": F(0), "a0": F(0), "b0": F(0)},
    )
    report = check_certificate(twochain, "x", twochain_policy, cert)
    assert report.verdict == "fail"
    assert (report.a1, report.a2, report.a3) == (True, True, True)
    assert not report.a4
    assert report.first_failure == "A4"


def test_unconstrained_self_loop_certificate():
    doc = {
        "constraint_dim": 0,
        "initial_state": "s",
        "states": [{"id": "s", "actions": [
            {"id": "stay", "reward": "7", "constraint": [], "transitions": {"s": "1"}},
        ]}],
    }
    mdp = parse_instance(json.dumps(doc))
    policy = Policy.from_mapping(mdp, {})
    cert = Certificate(mu=(), gain=F(7), potential={"s": F(0)})
    assert check_certificate(mdp, "s", policy, cert).verdict == "pass"
    found = find_certificate(mdp, "s", policy)
    assert isinstance(found, Certificate)
    assert found.mu == ()
    assert found.gain == 7


def test_find_certificate_twochain(twochain, twochain_policy):
    cert = find_certificate(twochain, "x", twochain_policy)
    assert isinstance(cert, Certificate)
    assert cert.mu == (F(1, 2),)
    assert cert.gain == F(1, 2)
    report = check_certificate(twochain, "x", twochain_policy, cert)
    assert report.verdict == "pass"
    assert cert.gain == solve(twochain, "x").value


def zero_point(num_vars, constraints, nonnegative):
    return [F(0)] * num_vars


def test_failing_found_certificate_raises_search_error(
    twochain, twochain_policy, monkeypatch
):
    monkeypatch.setattr(lp, "find_feasible_point", zero_point)
    with pytest.raises(CertificateSearchError, match="fails A4"):
        find_certificate(twochain, "x", twochain_policy)


def test_negative_multiplier_from_the_simplex_fails_a2(twochain, twochain_policy, monkeypatch):
    def negative_mu(num_vars, constraints, nonnegative):
        return [F(-1)] + [F(0)] * (num_vars - 1)

    monkeypatch.setattr(lp, "find_feasible_point", negative_mu)
    with pytest.raises(CertificateSearchError, match="fails A2"):
        find_certificate(twochain, "x", twochain_policy)


def test_point_breaking_one_equality_row_raises(monkeypatch):
    # x -> u (reward 1 forever) or v (reward 0 forever); the optimum goes up.
    # Raising L(x) by 1 breaks the one row that holds L(x) as an equality,
    # x's chosen action, and only raises x's inequality row.
    mdp = parse_instance(json.dumps(UP_OR_DOWN))
    policy = solve(mdp, "x").policy
    original = lp.find_feasible_point
    broken = []

    def raised_potential(num_vars, constraints, nonnegative):
        point = original(num_vars, constraints, nonnegative)
        if num_vars == 1:  # the class-gain system: gain only
            return point
        point[1] += 1  # L(x): x is the closure's first state
        residuals = [
            (sum(c * point[k] for k, c in coeffs.items()) - rhs) / d
            for coeffs, _, rhs, d in constraints
        ]
        broken.extend(
            r for (_, sense, _, _), r in zip(constraints, residuals)
            if (r != 0 if sense == lp.EQ else r < 0)
        )
        return point

    monkeypatch.setattr(lp, "find_feasible_point", raised_potential)
    with pytest.raises(CertificateSearchError, match="fails A5"):
        find_certificate(mdp, "x", policy)
    assert broken == [1]


def test_potential_shift_invariance(twochain, twochain_policy):
    cert = find_certificate(twochain, "x", twochain_policy)
    shifted = Certificate(
        mu=cert.mu,
        gain=cert.gain,
        potential={s: v + F(9, 7) for s, v in cert.potential.items()},
    )
    report = check_certificate(twochain, "x", twochain_policy, shifted)
    assert report.verdict == "pass"
    base = check_certificate(twochain, "x", twochain_policy, cert)
    assert report.bellman_residuals == base.bellman_residuals


def test_haviv_feasible_policy_is_unsat(haviv, haviv_a):
    verdict = find_certificate(haviv, "x", haviv_a)
    assert isinstance(verdict, CertificateUnsat)
    assert verdict.stage == "class-gains"
    assert verdict.W == (F(0),)
    # the conflict isolates the first two reachable classes: the 5-cycle
    # needs gain -3/40 * mu, the 20-cycle 10 + 3/40 * mu, forcing mu < 0
    assert verdict.conflict == (0, 1)
    first, second = (verdict.class_equations[k] for k in verdict.conflict)
    assert set(first.states) == {f"c1_{k}" for k in range(5)}
    assert set(second.states) == {f"c2_{k}" for k in range(20)}
    assert (first.reward_gain, first.constraint_gain) == (F(0), (F(-3, 40),))
    assert (second.reward_gain, second.constraint_gain) == (F(10), (F(3, 40),))


def test_haviv_unsat_is_deterministic(haviv, haviv_a):
    assert find_certificate(haviv, "x", haviv_a) == find_certificate(haviv, "x", haviv_a)


def test_haviv_infeasible_policy_fails_a1(haviv, haviv_b):
    verdict = find_certificate(haviv, "x", haviv_b)
    assert isinstance(verdict, CertificateUnsat)
    assert verdict.stage == "feasibility"
    assert verdict.W == (F(-1, 40),)


def test_check_flags_negative_multiplier(twochain, twochain_policy):
    cert = Certificate(
        mu=(F(-1),), gain=F(1, 2), potential={"x": F(0), "a0": F(0), "b0": F(0)}
    )
    report = check_certificate(twochain, "x", twochain_policy, cert)
    assert not report.a2
    assert report.first_failure == "A2"


def test_check_flags_broken_complementary_slackness(haviv, haviv_a):
    # W(y) = 3/40 > 0 from y, so any positive multiplier breaks A3 there
    closure = reachable_states(haviv, None, "y")
    cert = Certificate(
        mu=(F(1),), gain=F(10), potential={s: F(0) for s in closure}
    )
    report = check_certificate(haviv, "y", haviv_a, cert)
    assert report.a1
    assert not report.a3


def test_find_certificate_closure_cap(haviv, haviv_a, monkeypatch):
    from cmdpkit import certificate
    from cmdpkit.model import EnumerationCapExceeded

    monkeypatch.setattr(certificate, "CLOSURE_CAP", 5)
    with pytest.raises(EnumerationCapExceeded):
        find_certificate(haviv, "x", haviv_a)


def test_check_requires_matching_dimensions(twochain, twochain_policy):
    cert = Certificate(mu=(), gain=F(1, 2), potential={})
    with pytest.raises(ValueError):
        check_certificate(twochain, "x", twochain_policy, cert)


def test_check_requires_total_potential(twochain, twochain_policy):
    cert = Certificate(mu=(F(1, 2),), gain=F(1, 2), potential={"x": F(0)})
    with pytest.raises(MissingPotentialError):
        check_certificate(twochain, "x", twochain_policy, cert)


@pytest.mark.parametrize("field, value", [
    ("mu", (0.5,)),
    ("gain", 0.5),
    ("potential", {"x": -0.5, "a0": 0.0, "b0": 0.0}),
])
def test_check_rejects_non_rational_values(twochain, twochain_policy, field, value):
    # A float would make the residuals floats, and the verdict inexact.
    cert = HAND_CERTIFICATE._replace(**{field: value})
    with pytest.raises(InputError, match=f"certificate {field} value .* is not rational"):
        check_certificate(twochain, "x", twochain_policy, cert)


def test_check_accepts_int_values(twochain, twochain_policy):
    cert = Certificate(mu=(1,), gain=1, potential={"x": 0, "a0": 0, "b0": 0})
    residuals = check_certificate(twochain, "x", twochain_policy, cert).bellman_residuals
    assert all(type(gap) is Fraction for gap in residuals.values())


def test_residual_map_covers_reachable_state_actions(haviv, haviv_a):
    closure = reachable_states(haviv, None, "x")
    cert = Certificate(mu=(F(0),), gain=F(5), potential={s: F(0) for s in closure})
    report = check_certificate(haviv, "x", haviv_a, cert)
    reach = reachable_states(haviv, haviv_a, "x")
    expected_keys = set()
    for s in reach:
        i = haviv.state_index(s)
        expected_keys.update((s, a) for a in haviv.actions[i])
    assert set(report.bellman_residuals) == expected_keys


def test_found_certificates_are_sound_and_match_solver():
    rng = random.Random(505)
    found = 0
    for _ in range(40):
        mdp = random_mdp(
            rng, max_states=4, max_actions=3, constraint_dims=(0,),
            full_support=True, max_policies=81,
        )
        result = solve(mdp, "s0")
        cert = find_certificate(mdp, "s0", result.policy)
        assert isinstance(cert, Certificate)
        found += 1
        assert cert.gain == result.value
        assert cert.gain == evaluate(mdp, result.policy, "s0").V
        report = check_certificate(mdp, "s0", result.policy, cert)
        assert report.verdict == "pass"
    assert found == 40


def test_certified_policies_beat_every_feasible_policy():
    # soundness across the whole policy space: whenever the search succeeds
    # for ANY policy, that policy's value equals the solver's optimum (the
    # closure-wide inequality rows are what guarantee this; equalities at
    # policy-reachable states alone would certify suboptimal policies)
    import itertools

    rng = random.Random(90210)
    certified = 0
    for _ in range(80):
        mdp = random_mdp(rng, max_states=5, constraint_dims=(0, 1), max_policies=16)
        result = solve(mdp, "s0")
        if result.status != "optimal":
            continue
        for combo in itertools.product(*mdp.actions):
            policy = Policy(choice=tuple(zip(mdp.states, combo)))
            cert = find_certificate(mdp, "s0", policy)
            if isinstance(cert, Certificate):
                certified += 1
                assert evaluate(mdp, policy, "s0").V == result.value
                assert cert.gain == result.value
    assert certified > 20


UP_OR_DOWN = {
    "constraint_dim": 0,
    "initial_state": "x",
    "states": [
        {"id": "x", "actions": [
            {"id": "up", "reward": "0", "constraint": [], "transitions": {"u": "1"}},
            {"id": "down", "reward": "0", "constraint": [], "transitions": {"v": "1"}},
        ]},
        {"id": "u", "actions": [
            {"id": "stay", "reward": "1", "constraint": [], "transitions": {"u": "1"}},
        ]},
        {"id": "v", "actions": [
            {"id": "stay", "reward": "0", "constraint": [], "transitions": {"v": "1"}},
        ]},
    ],
}


def test_unreached_low_gain_class_does_not_block_certificate():
    # a class only worse policies reach must not force its gain into the
    # program: equality rows stay restricted to policy-reachable states
    mdp = parse_instance(json.dumps(UP_OR_DOWN))
    result = solve(mdp, "x")
    assert result.value == 1
    cert = find_certificate(mdp, "x", result.policy)
    assert isinstance(cert, Certificate)
    assert cert.gain == 1


def bundled_cases(instances_dir):
    """Every bundled instance at every start and policy."""
    for path in sorted(instances_dir.glob("*.json")):
        mdp = load_instance(str(path))
        for actions in itertools.product(*mdp.actions):
            policy = Policy(choice=tuple(zip(mdp.states, actions)))
            for x in mdp.states:
                yield mdp, policy, x


def search_cases(instances_dir):
    """``bundled_cases``, then random models: their optima and random
    policies, lazy variants and decomposable ones; last ``wide_cycle``, an
    81-state closure with no choice, whose Bellman rows are all equalities."""
    yield from bundled_cases(instances_dir)
    rng = random.Random(71)
    for k in range(45):
        mdp = random_decomposable(rng) if k % 3 == 2 else random_mdp(rng, max_states=6)
        if k % 5 == 1:
            mdp = lazy_variant(mdp, F(rng.randint(1, 1008), 1009))
        elif k % 5 == 3:
            mdp = lazy_variant(mdp, F(rng.randint(1, MERSENNE_61 - 1), MERSENNE_61))
        result = solve(mdp)
        if result.status == "optimal":
            yield mdp, result.policy, mdp.initial_state
        yield mdp, random_policy(rng, mdp), mdp.initial_state
    mdp = wide_cycle()
    yield mdp, Policy.from_mapping(mdp, {}), "x"


def test_bundled_searches_take_a_pinned_number_of_pivots(instances_dir):
    # Both phases of the simplex pivot through lp._pivot, so this counts
    # the free phase's pivots and Bland's alike: 7 of the 2528 are Bland's.
    # The simplex that split every free column took 2829 here. The policy
    # analysis' class and DAG solves pivot through lp._pivot too, and are
    # counted apart.
    original_pivot, original_point = lp._pivot, lp.find_feasible_point
    pivots = {"simplex": 0, "analysis": 0}
    phase = "analysis"

    def counting(*args):
        pivots[phase] += 1
        original_pivot(*args)

    def simplex(*args, **kwargs):
        nonlocal phase
        phase = "simplex"
        try:
            return original_point(*args, **kwargs)
        finally:
            phase = "analysis"

    with mock.patch.object(lp, "_pivot", counting), \
            mock.patch.object(lp, "find_feasible_point", simplex):
        for mdp, policy, x in bundled_cases(instances_dir):
            find_certificate(mdp, x, policy)
    assert pivots == {"simplex": 2528, "analysis": 2316}


def test_search_builds_its_bellman_rows_once_and_no_fraction_after_the_simplex(instances_dir):
    # A search that reaches the Bellman stage builds its rows once, for the
    # simplex, and checks the point against them; after the last simplex
    # returns, nothing builds a Fraction, so the returned certificate holds
    # only the simplex's own.
    original = lp.find_feasible_point
    stages = {}
    for mdp, policy, x in search_cases(instances_dir):
        returned = []

        def recording(*args, **kwargs):
            point = original(*args, **kwargs)
            returned.append(len(built))
            return point

        bellman_rows = mock.patch.object(
            certificate, "_bellman_rows", wraps=certificate._bellman_rows
        )
        with recording_fractions() as built, bellman_rows as rows, \
                mock.patch.object(lp, "find_feasible_point", recording):
            found = find_certificate(mdp, x, policy)
        stage = "found" if isinstance(found, Certificate) else found.stage
        stages[stage] = stages.get(stage, 0) + 1
        assert rows.call_count == (stage in ("found", "bellman")), (stage, x)
        if rows.call_count:
            assert built[returned[-1]:] == []
    assert stages["found"] > 50 and stages["class-gains"] > 20
    assert stages["feasibility"] > 20 and stages["bellman"] > 0
