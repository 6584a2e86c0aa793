"""Command-line front end.

Every subcommand reads an instance file, runs the corresponding module API
and prints a single deterministic JSON document (sorted keys, rationals as
"p/q"). Exit codes: 0 success / positive verdict, 1 declared negative
result (infeasible, certificate UNSAT, failed check, time inconsistency,
sample-path infeasible, non-decomposable), 2 usage or input error, 3
internal error (a found certificate fails its own check).
Identical inputs, including the seed, produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cmdpkit import certificate as certificate_mod
from cmdpkit import residual as residual_mod
from cmdpkit import samplepath as samplepath_mod
from cmdpkit.certificate import (
    Certificate,
    CertificateSearchError,
    CertificateUnsat,
    MissingPotentialError,
)
from cmdpkit.chains import MAX_TIME, TimeLimitError, reachable_states
from cmdpkit.evaluation import evaluate
from cmdpkit.model import (
    InstanceFormatError,
    Mdp,
    Policy,
    PolicyError,
    ValidationError,
    format_rational,
    load_instance,
    parse_rational,
    serialize_instance,
)
from cmdpkit.solver import EnumerationCapExceeded, PolicyTable, SolveResult, solve


@dataclass(frozen=True)
class CommandOutcome:
    exit_code: int
    report: str
    error: str = ""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep run() in control of the exit code
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _rat(value: Fraction) -> str:
    return format_rational(value)


def _rats(values) -> list[str]:
    return [format_rational(v) for v in values]


def _policy_doc(mdp: Mdp, policy: Policy | None) -> dict[str, str] | None:
    """Policy restricted to decision states (two or more actions)."""
    if policy is None:
        return None
    return {
        state: policy.action_for(state)
        for i, state in enumerate(mdp.states)
        if len(mdp.actions[i]) > 1
    }


def _parse_policy(mdp: Mdp, text: str | None) -> Policy:
    mapping: dict[str, str] = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise PolicyError(
                    f"policy entries must look like state=action, got {item!r}"
                )
            state, action = item.split("=", 1)
            mapping[state.strip()] = action.strip()
    return Policy.from_mapping(mdp, mapping)


def _render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _solve_doc(mdp: Mdp, result: SolveResult) -> dict:
    if result.status != "optimal":
        return {
            "status": "infeasible",
            "feasible_count": result.feasible_count,
            "total_count": result.total_count,
        }
    return {
        "status": "optimal",
        "policy": _policy_doc(mdp, result.policy),
        "value": _rat(result.value),
        "W": _rats(result.W_at_optimum),
    }


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmdpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="instance JSON document")
        return p

    cmd("validate", help="check instance invariants")

    p = cmd("solve", help="best feasible policy")
    p.add_argument("--start", help="start state (default: instance initial state)")

    p = cmd("evaluate", help="V and W of a policy")
    p.add_argument("--policy", required=True, help="comma-separated state=action pairs")
    p.add_argument("--start", help="start state (default: instance initial state)")

    p = cmd("residual", help="residual slackness at a reachable state")
    p.add_argument("--to", required=True, help="target state")
    p.add_argument(
        "--time", type=int,
        help=f"reaching time (default: smallest; at most {MAX_TIME})",
    )

    p = cmd("certify", help="check or search an optimality certificate")
    p.add_argument("--policy", required=True)
    p.add_argument("--search", action="store_true", help="search instead of check")
    p.add_argument("--mu", help="comma-separated multiplier components")
    p.add_argument("--gain", help="gain value, p/q or decimal")
    p.add_argument("--potential", help="JSON file mapping state -> p/q")

    p = cmd("audit", help="time-consistency audit of the optimal policy")
    p.add_argument("--all-times", action="store_true",
                   help="audit every reaching time, not only the smallest per state")

    p = cmd("samplepath", help="almost-sure feasibility of a policy")
    p.add_argument("--policy", required=True)

    p = cmd("decompose", help="per-subchain expected-constraint conversion")
    p.add_argument("--selective", action="store_true",
                   help="impose constraints only on controllable subchains")

    p = cmd("simulate", help="seeded Monte Carlo trajectory")
    p.add_argument("--policy", required=True)
    p.add_argument("--steps", type=int, required=True,
                   help=f"walk length (at most {samplepath_mod.MAX_STEPS})")
    p.add_argument("--seed", type=int, required=True)

    return parser


def _cmd_validate(args) -> CommandOutcome:
    try:
        load_instance(args.file)
    except ValidationError as exc:
        doc = {
            "valid": False,
            "violations": [
                {
                    "kind": v.kind,
                    "state": v.state,
                    "action": v.action,
                    "message": v.message,
                }
                for v in exc.report.violations
            ],
        }
        return CommandOutcome(1, _render(doc))
    return CommandOutcome(0, _render({"valid": True, "violations": []}))


def _cmd_solve(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    result = solve(mdp, args.start)
    return CommandOutcome(
        0 if result.status == "optimal" else 1, _render(_solve_doc(mdp, result))
    )


def _cmd_evaluate(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    start = args.start if args.start else mdp.initial_state
    report = evaluate(mdp, policy, start)
    doc = {
        "start": start,
        "policy": _policy_doc(mdp, policy),
        "V": _rat(report.V),
        "W": _rats(report.W),
        "class_gains": [
            {
                "states": list(g.states),
                "reward": _rat(g.reward_gain),
                "constraint": _rats(g.constraint_gain),
            }
            for g in report.class_gains
        ],
        "absorption": _rats(report.absorption),
    }
    return CommandOutcome(0, _render(doc))


def _cmd_residual(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    # A target reached under the optimum lies in the start's closure.
    table = PolicyTable(mdp, reachable_states(mdp, None, mdp.initial_state))
    base = table.solve(mdp.initial_state)
    if base.status != "optimal":
        return CommandOutcome(1, _render(_solve_doc(mdp, base)))
    spec = residual_mod.residual_slack(
        mdp, base.policy, mdp.initial_state, args.to, args.time
    )
    i = mdp.state_index(spec.target)
    doc = {
        "from": spec.source,
        "to": spec.target,
        "time": spec.time,
        "prob": _rat(spec.prob_to),
        "slack": _rats(spec.slack),
        "residual_constraint": {
            action: _rats(c - d for c, d in zip(cvec, spec.slack))
            for action, cvec in zip(mdp.actions[i], mdp.constraints[i])
        },
        "residual_solve": _solve_doc(mdp, table.solve(spec.target, spec.slack)),
    }
    return CommandOutcome(0, _render(doc))


def _certificate_doc(cert: Certificate) -> dict:
    return {
        "status": "certificate",
        "mu": _rats(cert.mu),
        "gain": _rat(cert.gain),
        "potential": {s: _rat(v) for s, v in cert.potential.items()},
    }


def _unsat_doc(unsat: CertificateUnsat) -> dict:
    return {
        "status": "unsat",
        "stage": unsat.stage,
        "reason": unsat.reason,
        "W": _rats(unsat.W),
        "class_equations": [
            {
                "states": list(eq.states),
                "reward_gain": _rat(eq.reward_gain),
                "constraint_gain": _rats(eq.constraint_gain),
            }
            for eq in unsat.class_equations
        ],
        "conflict": list(unsat.conflict) if unsat.conflict else None,
    }


def _cmd_certify(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    if args.search:
        found = certificate_mod.find_certificate(mdp, mdp.initial_state, policy)
        if isinstance(found, Certificate):
            return CommandOutcome(0, _render(_certificate_doc(found)))
        return CommandOutcome(1, _render(_unsat_doc(found)))

    if args.gain is None:
        raise _UsageError("certify: --gain is required in check mode (or pass --search)")
    mu = tuple(
        parse_rational(part) for part in args.mu.split(",")
    ) if args.mu else ()
    if args.potential:
        raw = json.loads(Path(args.potential).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise InstanceFormatError(
                f"potential file root must be a JSON object, got {type(raw).__name__}")
        potential = {s: parse_rational(v) for s, v in raw.items()}
    else:
        closure = reachable_states(mdp, None, mdp.initial_state)
        potential = {s: Fraction(0) for s in closure}
    cert = Certificate(mu=mu, gain=parse_rational(args.gain), potential=potential)
    report = certificate_mod.check_certificate(mdp, mdp.initial_state, policy, cert)
    residuals: dict[str, dict[str, str]] = {}
    for (state, action), gap in report.bellman_residuals.items():
        residuals.setdefault(state, {})[action] = _rat(gap)
    doc = {
        "verdict": report.verdict,
        "a1": report.a1,
        "a2": report.a2,
        "a3": report.a3,
        "a4": report.a4,
        "a5": report.a5,
        "first_failure": report.first_failure,
        "bellman_residuals": residuals,
    }
    return CommandOutcome(0 if report.verdict == "pass" else 1, _render(doc))


def _cmd_audit(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    try:
        report = residual_mod.audit_time_consistency(mdp, all_times=args.all_times)
    except residual_mod.InfeasibleStartError as exc:
        return CommandOutcome(1, _render(_solve_doc(mdp, exc.result)))
    entries = []
    for e in report.entries:
        entries.append({
            "state": e.state,
            "time": e.time,
            "prob": _rat(e.prob),
            "slack": _rats(e.slack),
            "policy_value_here": _rat(e.policy_value_here),
            "policy_feasible_here": e.policy_feasible_here,
            "consistent": e.consistent,
            "unmodified": {
                "status": e.unmodified_status,
                "value": _rat(e.unmodified_value) if e.unmodified_value is not None else None,
                "policy": _policy_doc(mdp, e.unmodified_policy),
            },
            "residual": {
                "status": e.residual_status,
                "value": _rat(e.residual_value) if e.residual_value is not None else None,
                "policy": _policy_doc(mdp, e.residual_policy),
                "policy_feasible": e.policy_feasible_residual,
                "policy_optimal": e.policy_optimal_residual,
            },
            "identity": e.identity,
        })
    doc = {
        "start": report.start,
        "policy": _policy_doc(mdp, report.policy),
        "value": _rat(report.value),
        "certificate": {
            "status": report.certificate_status,
            "mu": _rats(report.mu) if report.mu is not None else None,
        },
        "consistent": report.consistent,
        "entries": entries,
    }
    return CommandOutcome(0 if report.consistent else 1, _render(doc))


def _cmd_samplepath(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    verdict = samplepath_mod.samplepath_feasible(mdp, policy, mdp.initial_state)
    doc = {
        "feasible": verdict.feasible,
        "witness": None if verdict.feasible else {
            "states": list(verdict.witness_class),
            "gain": _rats(verdict.witness_gain),
        },
    }
    return CommandOutcome(0 if verdict.feasible else 1, _render(doc))


def _cmd_decompose(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    try:
        control = samplepath_mod.controllable_classes(mdp, mdp.initial_state)
    except samplepath_mod.NotDecomposableError as exc:
        return CommandOutcome(1, _render({"decomposable": False, "error": str(exc)}))
    structure = control.structure
    converted = samplepath_mod.convert_classes(
        mdp,
        control.controllable_members if args.selective else structure.recurrent_classes,
    )
    doc = {
        "decomposable": True,
        "selective": args.selective,
        "classes": [
            [mdp.states[s] for s in cls] for cls in structure.recurrent_classes
        ],
        "transient": [mdp.states[s] for s in structure.transient_states],
        "controllability": [
            {
                "states": list(c.states),
                "min": _rat(c.min_prob),
                "max": _rat(c.max_prob),
                "controllable": c.controllable,
            }
            for c in control.classes
        ],
        "constraint_dim": converted.constraint_dim,
        "converted": serialize_instance(converted),
    }
    return CommandOutcome(0, _render(doc))


def _cmd_simulate(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    report = samplepath_mod.simulation_report(
        mdp, policy, mdp.initial_state, args.steps, args.seed
    )
    doc = {
        "seed": report.seed,
        "steps": report.steps,
        "start": report.start,
        "policy": _policy_doc(mdp, policy),
        "visit_frequency": {
            state: _rat(freq)
            for state, freq in zip(mdp.states, report.visit_frequency)
        },
        "empirical_V": _rat(report.empirical_V),
        "empirical_W": _rats(report.empirical_W),
        "absorbed_class": (
            list(report.absorbed_class) if report.absorbed_class else None
        ),
        "analytic": {
            "stationary": (
                {
                    state: _rat(p)
                    for state, p in zip(report.absorbed_class, report.absorbed_stationary)
                }
                if report.absorbed_class
                else None
            ),
            "reward_gain": (
                _rat(report.absorbed_reward_gain)
                if report.absorbed_reward_gain is not None else None
            ),
            "constraint_gain": (
                _rats(report.absorbed_constraint_gain)
                if report.absorbed_constraint_gain is not None else None
            ),
            "absorption": _rats(report.analytic_absorption),
        },
    }
    return CommandOutcome(0, _render(doc))


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "residual": _cmd_residual,
    "certify": _cmd_certify,
    "audit": _cmd_audit,
    "samplepath": _cmd_samplepath,
    "decompose": _cmd_decompose,
    "simulate": _cmd_simulate,
}


def run(argv: list[str]) -> CommandOutcome:
    """Execute one CLI invocation without touching the process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        return CommandOutcome(2, "", str(exc).rstrip() + "\n")
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandOutcome(0 if code == 0 else 2, "", "")
    except (
        InstanceFormatError,
        ValidationError,
        PolicyError,
        MissingPotentialError,
        residual_mod.UnreachableStateError,
        TimeLimitError,
        EnumerationCapExceeded,
        FileNotFoundError,
        IsADirectoryError,
        json.JSONDecodeError,
        ValueError,
        KeyError,
    ) as exc:
        message = exc.args[0] if exc.args else str(exc)
        return CommandOutcome(2, "", f"cmdpkit: error: {message}\n")
    except CertificateSearchError as exc:
        return CommandOutcome(3, "", f"cmdpkit: internal error: {exc}\n")


def main() -> None:
    outcome = run(sys.argv[1:])
    if outcome.report:
        sys.stdout.write(outcome.report)
    if outcome.error:
        sys.stderr.write(outcome.error)
    sys.exit(outcome.exit_code)


if __name__ == "__main__":
    main()
