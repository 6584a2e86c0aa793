"""The ``residual`` command as it ran on a ``PolicyTable``.

It solved the start and the residual problem from one table over the
start's closure, and shifted the target's constraint vectors by -slack
itself. ``cli._cmd_residual`` now builds the residual problem with
``build_residual_problem`` and solves it; both must print the same bytes.
"""

from cmdpkit import residual as residual_mod
from cmdpkit.chains import reachable_states
from cmdpkit.cli import CommandOutcome, _decision_states, _solve_doc
from cmdpkit.model import load_instance, render_json
from cmdpkit.solver import PolicyTable


def _cmd_residual(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    decisions = _decision_states(mdp)
    # A target reached under the optimum lies in the start's closure.
    table = PolicyTable(mdp, reachable_states(mdp, None, mdp.initial_state))
    base = table.solve(mdp.initial_state)
    if base.status != "optimal":
        return CommandOutcome(1, render_json(_solve_doc(decisions, base)))
    spec = residual_mod.residual_slack(
        mdp, base.policy, mdp.initial_state, args.to, args.time
    )
    i = mdp.state_index(spec.target)
    doc = {
        "from": spec.source,
        "to": spec.target,
        "time": spec.time,
        "prob": spec.prob_to,
        "slack": spec.slack,
        "residual_constraint": {
            action: [c - d for c, d in zip(cvec, spec.slack)]
            for action, cvec in zip(mdp.actions[i], mdp.constraints[i])
        },
        "residual_solve": _solve_doc(decisions, table.solve(spec.target, spec.slack)),
    }
    return CommandOutcome(0, render_json(doc))
