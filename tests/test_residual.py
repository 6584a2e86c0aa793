import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import audit_oracle
from cmdpkit import instances
from cmdpkit.certificate import Certificate, find_certificate
from cmdpkit.chains import state_distribution_at
from cmdpkit.evaluation import PolicyAnalysis, evaluate
from cmdpkit.model import Mdp, Policy, induced_chain
from cmdpkit.residual import (
    UnreachableStateError,
    audit_time_consistency,
    build_residual_problem,
    residual_slack,
)
from cmdpkit.solver import solve
from randmdp import examples, lazy_variant, random_decomposable, random_mdp, random_policy

F = Fraction


def test_haviv_slack_at_y(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "y", 1)
    assert spec.slack == (F(3, 40),)
    assert spec.prob_to == F(1, 2)
    assert spec.time == 1


def test_default_time_is_smallest(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "y")
    assert spec.time == 1


def test_slack_at_time_zero_is_zero(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "x", 0)
    assert spec.slack == (F(0),)
    assert spec.prob_to == 1


def test_unreachable_target_is_an_error(haviv, haviv_a):
    with pytest.raises(UnreachableStateError):
        residual_slack(haviv, haviv_a, "x", "c3_0")
    with pytest.raises(UnreachableStateError):
        residual_slack(haviv, haviv_a, "x", "y", 2)  # y only at t = 1 on this path


def test_squander_slack_formula():
    for eps in (F(1, 2), F(1, 10), F(1, 100)):
        mdp = instances.squander(eps)
        result = solve(mdp)
        spec = residual_slack(mdp, result.policy, "x", "y", 1)
        assert spec.slack == (F(1, 10) * (1 - 1 / eps),)


def test_build_residual_problem_haviv(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "y", 1)
    shifted = build_residual_problem(haviv, spec)
    assert shifted.initial_state == "y"
    bad = {"c1_0", "c2_0", "c3_0"}
    for i, state in enumerate(shifted.states):
        expected = F(1, 20) - (1 if state in bad else 0)
        for cvec in shifted.constraints[i]:
            assert cvec == (expected,)
    assert shifted.successors == haviv.successors
    assert shifted.rewards == haviv.rewards


def test_zero_slack_keeps_constraints(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "x", 0)
    shifted = build_residual_problem(haviv, spec)
    assert shifted.constraints == haviv.constraints


def test_squander_residual_relaxes_bound():
    mdp = instances.squander(F(1, 10))
    result = solve(mdp)
    spec = residual_slack(mdp, result.policy, "x", "y", 1)
    shifted = build_residual_problem(mdp, spec)
    i = mdp.state_index("y")
    assert shifted.constraints[i][0][0] == mdp.constraints[i][0][0] + F(9, 10)


def test_residual_solve_haviv_admits_only_action_a(haviv, haviv_a):
    spec = residual_slack(haviv, haviv_a, "x", "y", 1)
    shifted = build_residual_problem(haviv, spec)
    result = solve(shifted, "y")
    assert result.status == "optimal"
    assert result.feasible_count == 1
    assert result.policy.action_for("y") == "a"
    assert result.value == 10


def decomposition_check(mdp, policy, x, t):
    """W(x) = sum_y Pr{X_t=y} W(y), and at every y of the support the slack is
    the summing oracle's and (W(y) - C_y(x)) Pr{X_t=y} = W(x)."""
    d = state_distribution_at(induced_chain(mdp, policy), mdp.state_index(x), t)
    w_x = evaluate(mdp, policy, x).W
    support = {s: evaluate(mdp, policy, mdp.states[s]).W for s, mass in enumerate(d) if mass}

    mixed = tuple(
        sum((d[s] * w_s[k] for s, w_s in support.items()), F(0))
        for k in range(mdp.constraint_dim)
    )
    assert mixed == w_x

    for target, w_y in support.items():
        y = mdp.states[target]
        spec = residual_slack(mdp, policy, x, y, t)
        assert spec == audit_oracle.residual_slack(mdp, policy, x, y, t)
        for k in range(mdp.constraint_dim):
            assert (w_y[k] - spec.slack[k]) * spec.prob_to == w_x[k]


def test_exact_decomposition_identity_haviv(haviv, haviv_a, haviv_b):
    for policy in (haviv_a, haviv_b):
        for t in (1, 2, 3):
            decomposition_check(haviv, policy, "x", t)


def test_feasibility_transfer():
    rng = random.Random(31337)
    audited = 0
    for _ in range(40):
        mdp = random_mdp(rng, max_states=6, constraint_dims=(1,), max_policies=8)
        result = solve(mdp, "s0")
        if result.status != "optimal":
            continue
        audited += 1
        policy = result.policy
        chain = induced_chain(mdp, policy)
        for t in (1, 2, 3):
            d = state_distribution_at(chain, 0, t)
            for s, mass in enumerate(d):
                if mass == 0:
                    continue
                spec = residual_slack(mdp, policy, "s0", mdp.states[s], t)
                w_y = evaluate(mdp, policy, mdp.states[s]).W
                assert all(
                    w - c >= 0 for w, c in zip(w_y, spec.slack)
                )
    assert audited > 10


def test_complementary_slackness_transfer(twochain):
    policy = Policy.from_mapping(twochain, {})
    cert = find_certificate(twochain, "x", policy)
    assert isinstance(cert, Certificate)
    for target in ("a0", "b0"):
        spec = residual_slack(twochain, policy, "x", target, 1)
        w_y = evaluate(twochain, policy, target).W
        crossed = sum(
            (m * (w - c) for m, w, c in zip(cert.mu, w_y, spec.slack)), F(0)
        )
        assert crossed == 0


def test_probability_weight_sensitivity():
    # the rarer the target, the larger the slack magnitude, with the
    # complementary conditional expectation pinned at 1/10
    magnitudes = []
    for eps in (F(1, 2), F(1, 10), F(1, 100)):
        mdp = instances.squander(eps)
        result = solve(mdp)
        spec = residual_slack(mdp, result.policy, "x", "y", 1)
        assert spec.slack[0] == -F(1, 10) * (1 - eps) / eps
        magnitudes.append(abs(spec.slack[0]))
    assert magnitudes == sorted(magnitudes)


def test_sign_semantics(haviv, haviv_a):
    # positive slack: constraint more stringent at y (budget spent)
    assert residual_slack(haviv, haviv_a, "x", "y", 1).slack[0] > 0
    mdp = instances.squander(F(1, 10))
    result = solve(mdp)
    assert residual_slack(mdp, result.policy, "x", "y", 1).slack[0] < 0


# ---------------------------------------------------------------------------
# audits

def test_haviv_audit_flags_only_y(haviv):
    report = audit_time_consistency(haviv)
    assert report.certificate_status == "unsat"
    assert not report.consistent
    flagged = [e.state for e in report.entries if not e.consistent]
    assert flagged == ["y"]

    entry = next(e for e in report.entries if e.state == "y")
    assert entry.time == 1
    assert entry.slack == (F(3, 40),)
    assert entry.unmodified_status == "optimal"
    assert entry.unmodified_value == 20
    assert entry.unmodified_policy.action_for("y") == "b"
    assert entry.policy_value_here == 10
    assert entry.residual_status == "optimal"
    assert entry.residual_policy.action_for("y") == "a"
    assert entry.residual_value == 10
    assert entry.policy_feasible_residual
    assert entry.policy_optimal_residual
    assert entry.identity == "not-applicable-no-certificate"


def test_twochain_audit_verifies_value_identity(twochain):
    report = audit_time_consistency(twochain)
    assert report.certificate_status == "found"
    assert report.mu == (F(1, 2),)
    assert report.consistent
    assert len(report.entries) == 3
    assert all(e.identity == "verified" for e in report.entries)
    assert all(e.policy_feasible_residual for e in report.entries)


def test_unconstrained_audit_collapses():
    rng = random.Random(9)
    mdp = random_mdp(rng, max_states=5, constraint_dims=(0,), max_policies=8)
    report = audit_time_consistency(mdp, "s0")
    assert report.consistent
    for entry in report.entries:
        assert entry.slack == ()
        assert entry.unmodified_value == entry.residual_value
        assert entry.policy_optimal_residual


def test_audit_all_times_covers_more(haviv):
    short = audit_time_consistency(haviv)
    full = audit_time_consistency(haviv, all_times=True)
    assert len(full.entries) > len(short.entries)
    chain = induced_chain(haviv, full.policy)
    x = haviv.state_index("x")
    for entry in full.entries:
        d = state_distribution_at(chain, x, entry.time)
        assert d[haviv.state_index(entry.state)] == entry.prob > 0


def wide_cycle(states: int = 80) -> Mdp:
    """x -> s0, then a cycle s_i -> s_{i+1} with three seeded extra successors each.

    Every state is first reached within a few steps, but the exact
    distributions' denominators grow about a hundred bits per step.
    """
    rng = random.Random(7)
    successors = [(((1, F(1)),),)]
    for i in range(states):
        weights = {}
        for j in [rng.randrange(states) for _ in range(3)] + [(i + 1) % states]:
            weights[j + 1] = weights.get(j + 1, 0) + rng.randint(1, 1000)
        total = sum(weights.values())
        successors.append((tuple((j, F(w, total)) for j, w in sorted(weights.items())),))
    labels = ("x", *(f"s{i}" for i in range(states)))
    return Mdp(
        states=labels,
        actions=tuple(("a",) for _ in labels),
        successors=tuple(successors),
        rewards=tuple((F(k % 5),) for k in range(len(labels))),
        constraints=tuple(((F(k % 3),),) for k in range(len(labels))),
        constraint_dim=1,
        initial_state="x",
    )


def test_residual_slack_reads_w_at_two_states(monkeypatch):
    # The closed form needs W at x and at y alone, however wide the support.
    mdp = wide_cycle()
    policy = Policy.from_mapping(mdp, {})
    d = state_distribution_at(induced_chain(mdp, policy), 0, 3)
    assert sum(1 for mass in d if mass) >= 4
    target = max(range(len(d)), key=d.__getitem__)
    read = []
    values_at = PolicyAnalysis.values_at
    monkeypatch.setattr(
        PolicyAnalysis, "values_at", lambda self, s: read.append(s) or values_at(self, s)
    )
    spec = residual_slack(mdp, policy, "x", mdp.states[target], 3)
    assert sorted(read) == [0, target]
    monkeypatch.undo()
    assert spec == audit_oracle.residual_slack(mdp, policy, "x", mdp.states[target], 3)


def test_plain_audit_stops_once_no_state_is_new():
    # the sweep to the state count would pass the denominator limit
    mdp = wide_cycle()
    report = audit_time_consistency(mdp)
    assert sorted(e.state for e in report.entries) == sorted(mdp.states)
    assert max(e.time for e in report.entries) < 10
    for entry in report.entries[::16]:
        spec = residual_slack(mdp, report.policy, "x", entry.state, entry.time)
        assert (entry.slack, entry.prob) == (spec.slack, spec.prob_to)


def test_audit_requires_feasibility():
    tight = instances.haviv(bound=F(1, 25))
    with pytest.raises(ValueError):
        audit_time_consistency(tight)


def draw_model(rng: random.Random, kind: str, dim: int, lazy: bool, tight: bool) -> Mdp:
    """A random or a decomposable model; ``tight`` lowers every constraint by one random
    policy's W at the start, which that policy then meets with equality, so
    certificates with a nonzero multiplier turn up; ``lazy`` mixes every row
    with the identity at k/1009."""
    if kind == "decomposable":
        mdp = random_decomposable(rng, constraint_dims=(dim,))
    else:
        mdp = random_mdp(rng, max_states=5, constraint_dims=(dim,), max_policies=8)
    if tight:
        w = evaluate(mdp, random_policy(rng, mdp), mdp.initial_state).W
        mdp = mdp._replace(constraints=tuple(
            tuple(tuple(c - wk for c, wk in zip(cvec, w)) for cvec in per_action)
            for per_action in mdp.constraints
        ))
    if lazy:
        mdp = lazy_variant(mdp, F(rng.randint(1, 1008), 1009))
    return mdp


def first_model(seed: int, kind: str, dim: int, lazy: bool, tight: bool, accept):
    """The first model of the seed's stream that ``accept`` maps to
    something true, with that; the example is rejected if 40 hold none."""
    rng = random.Random(seed)
    for _ in range(40):
        mdp = draw_model(rng, kind, dim, lazy, tight)
        found = accept(mdp)
        if found:
            return mdp, found
    reject()


def optimum(mdp: Mdp):
    result = solve(mdp, mdp.initial_state)
    return result if result.status == "optimal" else None


def certificate(mdp: Mdp) -> Certificate | None:
    result = optimum(mdp)
    found = result and find_certificate(mdp, mdp.initial_state, result.policy)
    return found if isinstance(found, Certificate) else None


def audits(mdp: Mdp):
    """The plain audit and the --all-times one."""
    return [audit_time_consistency(mdp, all_times=all_times) for all_times in (False, True)]


STRATA = st.sampled_from([("random", 1), ("random", 2), ("decomposable", 1), ("decomposable", 2)])


@settings(max_examples=examples(20), deadline=None)
@given(stratum=STRATA, seed=st.integers(0, 10**9), lazy=st.booleans(), tight=st.booleans())
def test_exact_decomposition_identity_random(stratum, seed, lazy, tight):
    # The gain is harmonic: under a random policy, from every x, at every t
    # up to the state count, the time-t distribution mixes W back to W(x),
    # and the closed-form slack is the summing oracle's.
    rng = random.Random(seed)
    mdp = draw_model(rng, *stratum, lazy, tight)
    policy = random_policy(rng, mdp)
    for x in mdp.states:
        for t in range(mdp.num_states + 1):
            decomposition_check(mdp, policy, x, t)


@settings(max_examples=examples(120), deadline=None)
@given(stratum=STRATA, seed=st.integers(0, 10**9), lazy=st.booleans(), tight=st.booleans())
def test_certified_audits_verify_identity_and_residual_optimality(stratum, seed, lazy, tight):
    # The paper's claim: whenever a certificate exists at the start, the
    # value identity V(y) = gain - mu . C_y(x) holds at every audited entry
    # and the audited policy is optimal for its own residual problem.
    mdp, cert = first_model(seed, *stratum, lazy, tight, certificate)
    for report in audits(mdp):
        assert (report.certificate_status, report.mu) == ("found", cert.mu)
        assert report.entries
        assert all(e.identity == "verified" for e in report.entries)
        assert all(e.policy_optimal_residual for e in report.entries)


@settings(max_examples=examples(120), deadline=None)
@given(stratum=STRATA, seed=st.integers(0, 10**9), lazy=st.booleans(), tight=st.booleans())
def test_audited_policy_is_feasible_for_every_residual_problem(stratum, seed, lazy, tight):
    # Certificate or not, the slack keeps the optimal policy feasible in the
    # residual problem at every reachable (state, time).
    mdp, _ = first_model(seed, *stratum, lazy, tight, optimum)
    for report in audits(mdp):
        assert report.entries
        assert all(e.policy_feasible_residual for e in report.entries)
