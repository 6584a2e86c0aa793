"""Each analysis reads its policy once.

``model.validate_policy`` is the one place a policy's action labels become
action indices: ``evaluation.analyse_policy`` calls it once and keeps the
indices, and every later step (the class sums, the certificate's Bellman
rows, the simulator's empirical totals) reads them. ``induced_chain``,
which also reads a policy through it, counts as one read of its own. No
module calls ``Policy.action_for``.
"""

import sys
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from unittest import mock

# ``residual`` is imported so that it is loaded, and its names patched,
# before the command line imports it lazily.
from cmdpkit import cli, evaluation, model, residual  # noqa: F401
from cmdpkit.certificate import Certificate, check_certificate, find_certificate
from cmdpkit.evaluation import evaluate
from cmdpkit.model import Policy, load_instance
from cmdpkit.samplepath import samplepath_feasible, simulation_report
from cmdpkit.solver import enumerate_policies


@contextmanager
def counting_policy_reads():
    """Counts of ``action_for``, ``validate_policy``, ``analyse_policy`` and
    ``induced_chain`` calls, each patched wherever a module looks it up."""
    counts = dict.fromkeys(("action_for", "validate_policy", "analyse_policy", "induced_chain"), 0)

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            Policy, "action_for", counting("action_for", Policy.action_for)
        ))
        for name, original in (
            ("validate_policy", model.validate_policy),
            ("analyse_policy", evaluation.analyse_policy),
            ("induced_chain", model.induced_chain),
        ):
            wrapper = counting(name, original)
            for module in list(sys.modules.values()):
                if module is not None and module.__name__.partition(".")[0] == "cmdpkit" \
                        and getattr(module, name, None) is original:
                    stack.enter_context(mock.patch.object(module, name, wrapper))
        yield counts


def test_every_single_policy_call_reads_its_policy_once(instances_dir):
    calls = 0
    for path in sorted(instances_dir.glob("*.json")):
        mdp = load_instance(str(path))
        policies = list(enumerate_policies(mdp))
        zero = Certificate(
            mu=(Fraction(0),) * mdp.constraint_dim,
            gain=Fraction(0),
            potential=dict.fromkeys(mdp.states, Fraction(0)),
        )
        for policy in policies:
            for x in mdp.states:
                found = find_certificate(mdp, x, policy)
                certificate = found if isinstance(found, Certificate) else zero
                for call in (
                    lambda: evaluate(mdp, policy, x),
                    lambda: find_certificate(mdp, x, policy),
                    lambda: check_certificate(mdp, x, policy, certificate),
                    lambda: samplepath_feasible(mdp, policy, x),
                    lambda: simulation_report(mdp, policy, x, 50, 1),
                ):
                    with counting_policy_reads() as counts:
                        call()
                    assert counts == {
                        "action_for": 0, "validate_policy": 1,
                        "analyse_policy": 1, "induced_chain": 0,
                    }, (path.name, x)
                    calls += 1
    assert calls > 1000


def test_the_audit_reads_each_policy_once(instances_dir):
    for path in sorted(instances_dir.glob("*.json")):
        with counting_policy_reads() as counts:
            outcome = cli.run(["audit", str(path)])
        assert outcome.exit_code in (0, 1), outcome.error
        assert counts["action_for"] == 0 and counts["analyse_policy"] > 0, path.name
        assert counts["validate_policy"] == counts["analyse_policy"] + counts["induced_chain"]
