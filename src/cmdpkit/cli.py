"""Command-line front end.

Every subcommand reads an instance file, runs the corresponding module API
and prints a single deterministic JSON document (sorted keys, rationals as
"p/q"). Exit codes: 0 success / positive verdict, 1 declared negative
result (infeasible, certificate UNSAT, failed check, time inconsistency,
sample-path infeasible, non-decomposable), 2 usage or input error,
3 any other failure (a defect, reported without a traceback).
Identical inputs, including the seed, produce byte-identical reports.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from cmdpkit import certificate as certificate_mod
from cmdpkit import residual as residual_mod
from cmdpkit import samplepath as samplepath_mod
from cmdpkit.certificate import Certificate, CertificateUnsat
from cmdpkit.chains import MAX_TIME, reachable_states
from cmdpkit.evaluation import evaluate
from cmdpkit.model import (
    InputError,
    InstanceFormatError,
    Mdp,
    Policy,
    PolicyError,
    ValidationError,
    format_rational,
    load_instance,
    parse_rational,
    read_json,
    render_json,
    serialize_instance,
)
from cmdpkit.solver import PolicyTable, SolveResult, solve


class CommandOutcome(NamedTuple):
    exit_code: int
    report: str
    error: str = ""


class _UsageError(Exception):
    pass


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
            state, action = (part.strip() for part in item.split("=", 1))
            if state in mapping:
                raise PolicyError(f"policy names state {state!r} more than once")
            mapping[state] = action
    return Policy.from_mapping(mdp, mapping)


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


def _cmd_validate(args) -> CommandOutcome:
    try:
        load_instance(args.file)
    except ValidationError as exc:
        violations = [v._asdict() for v in exc.report.violations]
        return CommandOutcome(1, render_json({"valid": False, "violations": violations}))
    return CommandOutcome(0, render_json({"valid": True, "violations": []}))


def _cmd_solve(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    result = solve(mdp, args.start)
    return CommandOutcome(
        0 if result.status == "optimal" else 1, render_json(_solve_doc(mdp, result))
    )


def _cmd_evaluate(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    start = mdp.initial_state if args.start is None else args.start
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
    return CommandOutcome(0, render_json(doc))


def _cmd_residual(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    # A target reached under the optimum lies in the start's closure.
    table = PolicyTable(mdp, reachable_states(mdp, None, mdp.initial_state))
    base = table.solve(mdp.initial_state)
    if base.status != "optimal":
        return CommandOutcome(1, render_json(_solve_doc(mdp, base)))
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
    return CommandOutcome(0, render_json(doc))


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


def _potential(raw) -> dict[str, Fraction]:
    if not isinstance(raw, dict):
        raise InstanceFormatError(
            f"potential file root must be a JSON object, got {type(raw).__name__}")
    return {s: parse_rational(v) for s, v in raw.items()}


def _cmd_certify(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    if args.search:
        found = certificate_mod.find_certificate(mdp, mdp.initial_state, policy)
        if isinstance(found, Certificate):
            return CommandOutcome(0, render_json(_certificate_doc(found)))
        return CommandOutcome(1, render_json(_unsat_doc(found)))

    if args.gain is None:
        raise _UsageError("certify: --gain is required in check mode (or pass --search)")
    mu = tuple(
        parse_rational(part) for part in args.mu.split(",")
    ) if args.mu else ()
    if args.potential is not None:
        potential = read_json(args.potential, _potential)
    else:
        closure = reachable_states(mdp, None, mdp.initial_state)
        potential = {s: Fraction(0) for s in closure}
    cert = Certificate(mu=mu, gain=parse_rational(args.gain), potential=potential)
    report = certificate_mod.check_certificate(mdp, mdp.initial_state, policy, cert)
    residuals: dict[str, dict[str, str]] = {}
    for (state, action), gap in report.bellman_residuals.items():
        residuals.setdefault(state, {})[action] = _rat(gap)
    doc = {**report._asdict(), "bellman_residuals": residuals}
    return CommandOutcome(0 if report.verdict == "pass" else 1, render_json(doc))


def _cmd_audit(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    try:
        report = residual_mod.audit_time_consistency(mdp, all_times=args.all_times)
    except residual_mod.InfeasibleStartError as exc:
        return CommandOutcome(1, render_json(_solve_doc(mdp, exc.result)))
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
    return CommandOutcome(0 if report.consistent else 1, render_json(doc))


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
    return CommandOutcome(0 if verdict.feasible else 1, render_json(doc))


def _cmd_decompose(args) -> CommandOutcome:
    mdp = load_instance(args.file)
    try:
        control = samplepath_mod.controllable_classes(mdp, mdp.initial_state)
    except samplepath_mod.NotDecomposableError as exc:
        return CommandOutcome(1, render_json({"decomposable": False, "error": str(exc)}))
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
    return CommandOutcome(0, render_json(doc))


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
    return CommandOutcome(0, render_json(doc))


# ---------------------------------------------------------------------------
# The command table and the parser that reads argv against it. The parser
# reads argv as the standard-library parser it replaced did on Python 3.11
# (tests/cli_oracle.py), with the same values and error wording: unique
# prefixes of long options, --opt=value, "--" before positionals, the last
# of a repeated option, tokens that look like negative numbers read as
# values, and -h/--help anywhere before "--" unless an earlier usage error
# or an ambiguous option comes first.
# Usage and help are fixed text built from the table; nothing depends on the
# terminal.


class _Option(NamedTuple):
    """A long option; ``kind`` str or int takes one value, bool is a switch."""

    flag: str
    kind: type = str
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def invocation(self) -> str:
        return self.flag if self.kind is bool else f"{self.flag} {self.dest.upper()}"


class _Command(NamedTuple):
    """A subcommand: its handler, its help line and its options; each takes FILE."""

    handler: Callable[[SimpleNamespace], CommandOutcome]
    help: str
    options: tuple[_Option, ...] = ()


_HELP = _Option("--help", bool, help="show this help message and exit")
_POLICY = _Option("--policy", required=True, help="comma-separated state=action pairs")
_START = _Option("--start", help="start state (default: instance initial state)")

_COMMANDS = {
    "validate": _Command(_cmd_validate, "check instance invariants"),
    "solve": _Command(_cmd_solve, "best feasible policy", (_START,)),
    "evaluate": _Command(_cmd_evaluate, "V and W of a policy", (_POLICY, _START)),
    "residual": _Command(_cmd_residual, "residual slackness at a reachable state", (
        _Option("--to", required=True, help="target state"),
        _Option("--time", int, help=f"reaching time (default: smallest; at most {MAX_TIME})"),
    )),
    "certify": _Command(_cmd_certify, "check or search an optimality certificate", (
        _POLICY,
        _Option("--search", bool, help="search instead of check"),
        _Option("--mu", help="comma-separated multiplier components"),
        _Option("--gain", help="gain value, p/q or decimal"),
        _Option("--potential", help="JSON file mapping state -> p/q"),
    )),
    "audit": _Command(_cmd_audit, "time-consistency audit of the optimal policy", (
        _Option("--all-times", bool,
                help="audit every reaching time, not only the smallest per state"),
    )),
    "samplepath": _Command(_cmd_samplepath, "almost-sure feasibility of a policy", (_POLICY,)),
    "decompose": _Command(_cmd_decompose, "per-subchain expected-constraint conversion", (
        _Option("--selective", bool, help="impose constraints only on controllable subchains"),
    )),
    "simulate": _Command(_cmd_simulate, "seeded Monte Carlo trajectory", (
        _POLICY,
        _Option("--steps", int, required=True,
                help=f"walk length (at most {samplepath_mod.MAX_STEPS})"),
        _Option("--seed", int, required=True, help="random seed"),
    )),
}

_USAGE = f"usage: cmdpkit [-h] {{{','.join(_COMMANDS)}}} ...\n"
_MARKER = "--"  # every later token is a positional
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _HelpRequested(Exception):
    """-h or --help was read; the argument is the help text."""


def _usage(name: str, command: _Command) -> str:
    parts = ["[-h]"] + [
        o.invocation if o.required else f"[{o.invocation}]" for o in command.options
    ]
    return f"usage: cmdpkit {name} {' '.join(parts)} file\n"


def _help(name: str | None) -> str:
    """Help for one command, or for the whole CLI when ``name`` is None."""
    if name is None:
        usage, about = _USAGE, __doc__.strip()
        sections = [("commands", [(n, c.help) for n, c in _COMMANDS.items()])]
        options = []
    else:
        command = _COMMANDS[name]
        usage, about = _usage(name, command), command.help
        sections = [("positional arguments", [("file", "instance JSON document")])]
        options = [(o.invocation, o.help) for o in command.options]
    sections.append(("options", [("-h, --help", _HELP.help), *options]))
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [usage, about]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {left:<{width}}{text}".rstrip() for left, text in rows)]
    return "\n".join(lines) + "\n"


def _read_token(token: str, flags: dict[str, _Option], fail):
    """How one token reads: None for a positional, else
    ``(option, flag, attached value or None)``; option None is an unknown one."""
    if not token.startswith("-"):
        return None
    if token in flags:
        return flags[token], token, None
    if len(token) == 1:
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if token.startswith("--"):
        matches = [(flags[f], f, value if eq else None) for f in flags if f.startswith(flag)]
    else:  # -h is the one short flag, and it may have text attached
        matches = [(_HELP, "-h", token[2:])] if token.startswith("-h") else []
    if len(matches) > 1:
        found = ", ".join(f for _, f, _ in matches)
        raise fail(f"ambiguous option: {token} could match {found}")
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token, None


def _check_switch(option: _Option, flag: str, attached: str | None, fail) -> None:
    """Check a switch's attached text: "-hh" reads as "-h -h", anything else is an error."""
    if flag == "-h" and attached:
        attached = attached.lstrip("h") or None
    if attached is not None:
        name = "-h/--help" if option is _HELP else option.flag
        raise fail(f"argument {name}: ignored explicit argument {attached!r}")


def _parse_command(name: str, tokens: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """The namespace of one command and the tokens it did not recognise."""
    command = _COMMANDS[name]
    usage = _usage(name, command)

    def fail(message: str) -> _UsageError:
        return _UsageError(f"cmdpkit {name}: error: {message}\n{usage}")

    flags = {"-h": _HELP, "--help": _HELP, **{o.flag: o for o in command.options}}
    # Every token is read before any is acted on, so an ambiguous prefix is
    # an error even after -h.
    kinds = []  # None for a positional, _MARKER, or what _read_token found
    marked = False
    for token in tokens:
        if marked:
            kinds.append(None)
        elif token == _MARKER:
            kinds.append(_MARKER)
            marked = True
        else:
            kinds.append(_read_token(token, flags, fail))
    values = {o.dest: False if o.kind is bool else None for o in command.options}
    seen = set()
    file = None
    extras = []
    j = 0
    while j < len(tokens):
        kind, token = kinds[j], tokens[j]
        j += 1
        if kind is None or kind == _MARKER:  # the file, once, with a "--" next to it
            if file is not None or (kind == _MARKER and j == len(tokens)):
                extras.append(token)
            elif kind == _MARKER:  # "-- FILE"
                file = tokens[j]
                j += 1
            else:  # "FILE" or "FILE --"
                file = token
                if j < len(tokens) and kinds[j] == _MARKER:
                    j += 1
            continue
        option, flag, attached = kind
        if option is None:
            extras.append(token)
            continue
        if option.kind is bool:
            _check_switch(option, flag, attached, fail)
            if option is _HELP:
                raise _HelpRequested(_help(name))
            values[option.dest] = True
        else:
            if attached is None:
                if j == len(tokens) or kinds[j] is not None:
                    raise fail(f"argument {option.flag}: expected one argument")
                attached = tokens[j]
                j += 1
            if option.kind is int:
                try:
                    values[option.dest] = int(attached)
                except ValueError:
                    raise fail(
                        f"argument {option.flag}: invalid int value: {attached!r}") from None
            else:
                values[option.dest] = attached
        seen.add(option.flag)
    missing = ["file"] if file is None else []
    missing += [o.flag for o in command.options if o.required and o.flag not in seen]
    if missing:
        raise fail(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, file=file, **values), extras


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv against the command table; raises _UsageError or _HelpRequested."""

    def fail(message: str) -> _UsageError:
        return _UsageError(f"cmdpkit: error: {message}\n{_USAGE}")

    flags = {"-h": _HELP, "--help": _HELP}
    extras = []
    i = 0
    while i < len(argv) and argv[i] != _MARKER:  # before the command only -h is known
        kind = _read_token(argv[i], flags, fail)
        if kind is None:
            break
        option, flag, attached = kind
        if option is None:
            extras.append(argv[i])
        else:
            _check_switch(option, flag, attached, fail)
            raise _HelpRequested(_help(None))
        i += 1
    if argv[i:] in ([], [_MARKER]):
        raise fail("the following arguments are required: command")
    name = argv[i]
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise fail(f"argument command: invalid choice: {name!r} (choose from {choices})")
    args, unknown = _parse_command(name, argv[i + 1:])
    if extras + unknown:
        raise fail(f"unrecognized arguments: {' '.join(extras + unknown)}")
    return args


def run(argv: list[str]) -> CommandOutcome:
    """Execute one CLI invocation without touching the process."""
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command].handler(args)
    except _HelpRequested as exc:
        return CommandOutcome(0, exc.args[0])
    except _UsageError as exc:
        return CommandOutcome(2, "", str(exc).rstrip() + "\n")
    except InputError as exc:  # args[0], since str() of a KeyError is a repr
        message = exc.args[0] if exc.args else str(exc)
        return CommandOutcome(2, "", f"cmdpkit: error: {message}\n")
    except Exception as exc:
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
