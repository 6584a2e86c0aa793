"""Which input error a single-policy call raises first.

Each call validates its policy once, inside ``analyse_policy``, before it
looks up a state: a bad policy given with an unknown start is a
``PolicyError``, not an unknown state. The simulator checks its step
budget before either.
"""

import pytest

from cmdpkit.certificate import find_certificate
from cmdpkit.model import InputError, Policy, PolicyError
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
