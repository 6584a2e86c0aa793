import random
from fractions import Fraction

import pytest

from cmdpkit.chains import state_distribution_at
from cmdpkit.evaluation import analyse_policy, evaluate
from cmdpkit.model import Trajectory, induced_chain
from cmdpkit.samplepath import simulate
from randmdp import random_mdp, random_policy
from solver_oracle import class_gain, finite_horizon_averages

F = Fraction


def chain_and_class(haviv, policy, prefix):
    chain = induced_chain(haviv, policy)
    cls = tuple(
        haviv.state_index(s) for s in haviv.states if s.startswith(prefix)
    )
    return chain, cls


def test_class_gain_rewards(haviv, haviv_a):
    chain, cls = chain_and_class(haviv, haviv_a, "c2_")
    rewards = [haviv.rewards[i][0] for i in range(haviv.num_states)]
    assert class_gain(chain, cls, rewards) == 10


def test_class_gain_constraint_on_first_chain(haviv, haviv_a):
    chain, cls = chain_and_class(haviv, haviv_a, "c1_")
    values = [haviv.constraints[i][0][0] for i in range(haviv.num_states)]
    assert class_gain(chain, cls, values) == F(-3, 40)
    analysis = analyse_policy(haviv, haviv_a)
    c = analysis.decomposition.recurrent_classes.index(cls)
    assert analysis.class_gains[c].constraint_gain == (F(-3, 40),)


def test_class_gain_of_zero_function(haviv, haviv_a):
    chain, cls = chain_and_class(haviv, haviv_a, "c3_")
    assert class_gain(chain, cls, [F(0)] * haviv.num_states) == 0


def test_evaluate_haviv_policy_a(haviv, haviv_a):
    report = evaluate(haviv, haviv_a, "x")
    assert report.V == 5
    assert report.W == (F(0),)


def test_evaluate_haviv_policy_b(haviv, haviv_b):
    report = evaluate(haviv, haviv_b, "x")
    assert report.V == 10
    assert report.W == (F(-1, 40),)


def test_evaluate_haviv_policy_b_from_y(haviv, haviv_b):
    report = evaluate(haviv, haviv_b, "y")
    assert report.V == 20
    assert report.W == (F(1, 40),)


def test_evaluate_report_mixing_identity(haviv, haviv_b):
    report = evaluate(haviv, haviv_b, "x")
    mixed_v = sum(
        (p * g.reward_gain for p, g in zip(report.absorption, report.class_gains)),
        F(0),
    )
    assert mixed_v == report.V


def test_evaluate_inside_recurrent_class_equals_class_gain(haviv, haviv_b):
    assert evaluate(haviv, haviv_b, "c3_4").V == 20
    assert evaluate(haviv, haviv_b, "c3_4").W == (F(1, 40),)


def test_transient_rewards_and_constraints_do_not_matter(haviv, haviv_a):
    before = evaluate(haviv, haviv_a, "x")
    bumped_rewards = list(haviv.rewards)
    bumped_constraints = list(haviv.constraints)
    for label in ("x", "y"):
        i = haviv.state_index(label)
        bumped_rewards[i] = tuple(r + 1000 for r in haviv.rewards[i])
        bumped_constraints[i] = tuple(
            tuple(c - 77 for c in cvec) for cvec in haviv.constraints[i]
        )
    bumped = haviv._replace(
        rewards=tuple(bumped_rewards), constraints=tuple(bumped_constraints)
    )
    after = evaluate(bumped, haviv_a, "x")
    assert (after.V, after.W) == (before.V, before.W)


def test_conservation_identity_on_random_models():
    rng = random.Random(404)
    for _ in range(30):
        mdp = random_mdp(rng, max_states=8, max_policies=16)
        policy = random_policy(rng, mdp)
        chain = induced_chain(mdp, policy)
        base = evaluate(mdp, policy, "s0")
        for t in (1, 2, 3):
            d = state_distribution_at(chain, 0, t)
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


def test_finite_horizon_one_lap_of_the_five_cycle(haviv, haviv_a):
    states = tuple(f"c1_{k}" for k in range(5))
    trajectory = Trajectory(states=states, horizon=5, seed=0)
    v, w = finite_horizon_averages(haviv, haviv_a, trajectory)
    assert v == 0
    assert w == (F(-3, 40),)


def test_finite_horizon_constant_state(haviv, haviv_a):
    trajectory = Trajectory(states=("c2_3",) * 7, horizon=7, seed=0)
    v, w = finite_horizon_averages(haviv, haviv_a, trajectory)
    assert v == 10
    assert w == (F(1, 8),)


def test_finite_horizon_single_step(haviv, haviv_b):
    trajectory = Trajectory(states=("y",), horizon=1, seed=0)
    v, w = finite_horizon_averages(haviv, haviv_b, trajectory)
    assert v == 0
    assert w == (F(1, 8),)


def test_finite_horizon_rejects_empty(haviv, haviv_a):
    with pytest.raises(ValueError):
        finite_horizon_averages(haviv, haviv_a, Trajectory(states=(), horizon=0, seed=0))


def test_finite_horizon_converges_to_class_gain(haviv, haviv_a):
    # elongating an absorbed trajectory shrinks the gap to the class gains
    short, _ = simulate(haviv, haviv_a, "x", 500, 11)
    long, _ = simulate(haviv, haviv_a, "x", 5000, 11)
    report = evaluate(haviv, haviv_a, short.states[-1])
    for trajectory, other in ((short, long),):
        v1, w1 = finite_horizon_averages(haviv, haviv_a, trajectory)
        v2, w2 = finite_horizon_averages(haviv, haviv_a, other)
        assert abs(v2 - report.V) <= abs(v1 - report.V)
        assert abs(w2[0] - report.W[0]) <= abs(w1[0] - report.W[0])
