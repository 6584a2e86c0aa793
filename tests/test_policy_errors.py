"""Which input error a single-policy call raises first.

Each call validates its policy once, inside ``analyse_policy``, before it
looks up a state: a bad policy given with an unknown start is a
``PolicyError``, not an unknown state. The simulator checks its step
budget before either.
"""

import pytest

from cmdpkit.certificate import check_certificate, find_certificate
from cmdpkit.evaluation import evaluate
from cmdpkit.model import InputError, Policy, PolicyError, validate_policy
from cmdpkit.residual import residual_slack
from cmdpkit.samplepath import MAX_STEPS, samplepath_feasible, simulate, simulation_report

CALLS = {
    "find_certificate": lambda mdp, policy: find_certificate(mdp, "nowhere", policy),
    "samplepath_feasible": lambda mdp, policy: samplepath_feasible(mdp, policy, "nowhere"),
    "simulation_report": lambda mdp, policy: simulation_report(mdp, policy, "nowhere", 10, 1),
    "simulate": lambda mdp, policy: simulate(mdp, policy, "nowhere", 10, 1),
    "residual_slack": lambda mdp, policy: residual_slack(mdp, policy, "nowhere", "nowhere"),
}


@pytest.fixture
def bad_policy(haviv_a):
    """haviv's policy with an action that state y does not have."""
    return Policy(choice=tuple((s, "c" if s == "y" else a) for s, a in haviv_a.choice))


@pytest.mark.parametrize("name", CALLS)
def test_a_bad_policy_is_reported_before_an_unknown_start(haviv, bad_policy, name):
    with pytest.raises(PolicyError, match="absent from state 'y'"):
        CALLS[name](haviv, bad_policy)


@pytest.mark.parametrize("steps", [0, MAX_STEPS + 1])
def test_simulation_report_checks_steps_first(haviv, bad_policy, steps):
    with pytest.raises(InputError, match="steps") as raised:
        simulation_report(haviv, bad_policy, "nowhere", steps, 1)
    assert not isinstance(raised.value, PolicyError)


def test_a_policy_naming_a_state_twice_is_rejected(haviv, haviv_a, haviv_b):
    # A dict of the choice keeps the last entry, so without the check this
    # policy would be analysed as y=b while it compares unequal to haviv_b.
    y = haviv_a.choice.index(("y", "a"))
    twice = Policy(choice=(*haviv_a.choice[:y + 1], ("y", "b"), *haviv_a.choice[y + 1:]))
    assert twice.action_for("y") == "b" and twice != haviv_b
    certificate = find_certificate(haviv, "x", haviv_b)
    calls = [
        lambda: validate_policy(haviv, twice),
        lambda: evaluate(haviv, twice, "x"),
        lambda: find_certificate(haviv, "x", twice),
        lambda: check_certificate(haviv, "x", twice, certificate),
    ]
    for call in calls:
        with pytest.raises(PolicyError, match="^policy names state 'y' more than once$"):
            call()
