"""Command-line front end: one subcommand per library question.

Each subcommand parses its arguments, loads the instance, calls the module
API and renders one JSON document; ``_ABOUT`` is the text ``--help``
prints about the whole CLI, with the exit-code contract.

Every command runs in a fresh interpreter, so it pays for each module it
imports. This module imports only ``cmdpkit.model`` (loading, validation,
rendering and the limits the help text names); each ``_cmd_*`` handler
imports the modules it runs as its first statements. ``validate``, help
and usage errors load nothing more, ``solve`` loads the solver and
``audit`` the certificate and residual code.
"""

import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from cmdpkit.model import (
    MAX_STEPS,
    MAX_TIME,
    InputError,
    InstanceFormatError,
    Mdp,
    Policy,
    PolicyError,
    ValidationError,
    load_instance,
    parse_rational,
    read_json,
    render_json,
    serialize_instance,
)


class CommandOutcome(NamedTuple):
    exit_code: int
    report: str
    error: str = ""


class _UsageError(Exception):
    pass


# The report builders below put the library's exact values into their
# documents as they are; render_json prints each Fraction as "p/q".


def _decision_states(mdp: Mdp) -> set[str]:
    """The states with two or more actions; a command finds them once and
    builds each of its policy documents from them."""
    return {state for state, acts in zip(mdp.states, mdp.actions) if len(acts) > 1}


def _policy_doc(decisions: set[str], policy: Policy | None) -> dict[str, str] | None:
    """Policy restricted to the decision states, in one pass over its choice."""
    if policy is None:
        return None
    return {state: action for state, action in policy.choice if state in decisions}


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


def _solve_doc(decisions: set[str], result) -> dict:
    """The document of a ``solver.SolveResult``."""
    if result.status != "optimal":
        return {
            "status": "infeasible",
            "feasible_count": result.feasible_count,
            "total_count": result.total_count,
        }
    return {
        "status": "optimal",
        "policy": _policy_doc(decisions, result.policy),
        "value": result.value,
        "W": result.W_at_optimum,
    }


def _cmd_validate(args) -> CommandOutcome:
    try:
        load_instance(args.file)
    except ValidationError as exc:
        violations = [v._asdict() for v in exc.report.violations]
        return CommandOutcome(1, render_json({"valid": False, "violations": violations}))
    return CommandOutcome(0, render_json({"valid": True, "violations": []}))


def _cmd_solve(args) -> CommandOutcome:
    from cmdpkit.solver import solve

    mdp = load_instance(args.file)
    result = solve(mdp, args.start)
    return CommandOutcome(
        0 if result.status == "optimal" else 1,
        render_json(_solve_doc(_decision_states(mdp), result)),
    )


def _cmd_evaluate(args) -> CommandOutcome:
    from cmdpkit.evaluation import evaluate

    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    start = mdp.initial_state if args.start is None else args.start
    report = evaluate(mdp, policy, start)
    doc = {
        "start": start,
        "policy": _policy_doc(_decision_states(mdp), policy),
        "V": report.V,
        "W": report.W,
        "class_gains": [
            {"states": g.states, "reward": g.reward_gain, "constraint": g.constraint_gain}
            for g in report.class_gains
        ],
        "absorption": report.absorption,
    }
    return CommandOutcome(0, render_json(doc))


def _cmd_residual(args) -> CommandOutcome:
    from cmdpkit.residual import build_residual_problem, residual_slack
    from cmdpkit.solver import solve

    mdp = load_instance(args.file)
    decisions = _decision_states(mdp)
    base = solve(mdp)
    if base.status != "optimal":
        return CommandOutcome(1, render_json(_solve_doc(decisions, base)))
    spec = residual_slack(mdp, base.policy, mdp.initial_state, args.to, args.time)
    shifted = build_residual_problem(mdp, spec)
    i = mdp.state_index(spec.target)
    doc = {
        "from": spec.source,
        "to": spec.target,
        "time": spec.time,
        "prob": spec.prob_to,
        "slack": spec.slack,
        "residual_constraint": dict(zip(mdp.actions[i], shifted.constraints[i])),
        "residual_solve": _solve_doc(decisions, solve(shifted, spec.target)),
    }
    return CommandOutcome(0, render_json(doc))


def _potential(raw) -> dict[str, Fraction]:
    if not isinstance(raw, dict):
        raise InstanceFormatError(
            f"potential file root must be a JSON object, got {type(raw).__name__}")
    return {s: parse_rational(v) for s, v in raw.items()}


def _cmd_certify(args) -> CommandOutcome:
    from cmdpkit.certificate import Certificate, check_certificate, find_certificate

    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    if args.search:
        found = find_certificate(mdp, mdp.initial_state, policy)
        if isinstance(found, Certificate):
            return CommandOutcome(0, render_json({"status": "certificate", **found._asdict()}))
        return CommandOutcome(1, render_json({
            "status": "unsat",
            **found._asdict(),
            "class_equations": [eq._asdict() for eq in found.class_equations],
        }))

    if args.gain is None:
        raise _command_error("certify", "--gain is required in check mode (or pass --search)")
    mu = tuple(
        parse_rational(part) for part in args.mu.split(",")
    ) if args.mu else ()
    if args.potential is not None:
        potential = read_json(args.potential, _potential)
    else:
        potential = dict.fromkeys(mdp.states, Fraction(0))
    cert = Certificate(mu=mu, gain=parse_rational(args.gain), potential=potential)
    report = check_certificate(mdp, mdp.initial_state, policy, cert)
    residuals: dict[str, dict[str, Fraction]] = {}
    for (state, action), gap in report.bellman_residuals.items():
        residuals.setdefault(state, {})[action] = gap
    doc = {**report._asdict(), "bellman_residuals": residuals}
    return CommandOutcome(0 if report.verdict == "pass" else 1, render_json(doc))


def _cmd_audit(args) -> CommandOutcome:
    from cmdpkit.residual import InfeasibleStartError, audit_time_consistency

    mdp = load_instance(args.file)
    decisions = _decision_states(mdp)
    try:
        report = audit_time_consistency(mdp, all_times=args.all_times)
    except InfeasibleStartError as exc:
        return CommandOutcome(1, render_json(_solve_doc(decisions, exc.result)))
    entries = []
    for e in report.entries:
        entries.append({
            "state": e.state,
            "time": e.time,
            "prob": e.prob,
            "slack": e.slack,
            "policy_value_here": e.policy_value_here,
            "policy_feasible_here": e.policy_feasible_here,
            "consistent": e.consistent,
            "unmodified": {
                "status": e.unmodified_status,
                "value": e.unmodified_value,
                "policy": _policy_doc(decisions, e.unmodified_policy),
            },
            "residual": {
                "status": e.residual_status,
                "value": e.residual_value,
                "policy": _policy_doc(decisions, e.residual_policy),
                "policy_feasible": e.policy_feasible_residual,
                "policy_optimal": e.policy_optimal_residual,
            },
            "identity": e.identity,
        })
    doc = {
        "start": report.start,
        "policy": _policy_doc(decisions, report.policy),
        "value": report.value,
        "certificate": {"status": report.certificate_status, "mu": report.mu},
        "consistent": report.consistent,
        "entries": entries,
    }
    return CommandOutcome(0 if report.consistent else 1, render_json(doc))


def _cmd_samplepath(args) -> CommandOutcome:
    from cmdpkit.samplepath import samplepath_feasible

    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    verdict = samplepath_feasible(mdp, policy, mdp.initial_state)
    doc = {
        "feasible": verdict.feasible,
        "witness": None if verdict.feasible else {
            "states": verdict.witness_class, "gain": verdict.witness_gain,
        },
    }
    return CommandOutcome(0 if verdict.feasible else 1, render_json(doc))


def _cmd_decompose(args) -> CommandOutcome:
    from cmdpkit.samplepath import NotDecomposableError, controllable_classes, convert_classes

    mdp = load_instance(args.file)
    try:
        control = controllable_classes(mdp, mdp.initial_state)
    except NotDecomposableError as exc:
        return CommandOutcome(1, render_json({"decomposable": False, "error": str(exc)}))
    structure = control.structure
    converted = convert_classes(
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
                "states": c.states,
                "min": c.min_prob,
                "max": c.max_prob,
                "controllable": c.controllable,
            }
            for c in control.classes
        ],
        "constraint_dim": converted.constraint_dim,
        "converted": serialize_instance(converted),
    }
    return CommandOutcome(0, render_json(doc))


def _cmd_simulate(args) -> CommandOutcome:
    from cmdpkit.samplepath import simulation_report

    mdp = load_instance(args.file)
    policy = _parse_policy(mdp, args.policy)
    report = simulation_report(
        mdp, policy, mdp.initial_state, args.steps, args.seed
    )
    doc = {
        "seed": report.seed,
        "steps": report.steps,
        "start": report.start,
        "policy": _policy_doc(_decision_states(mdp), policy),
        "visit_frequency": dict(zip(mdp.states, report.visit_frequency)),
        "empirical_V": report.empirical_V,
        "empirical_W": report.empirical_W,
        "absorbed_class": report.absorbed_class,
        "analytic": {
            "stationary": (
                dict(zip(report.absorbed_class, report.absorbed_stationary))
                if report.absorbed_class
                else None
            ),
            "reward_gain": report.absorbed_reward_gain,
            "constraint_gain": report.absorbed_constraint_gain,
            "absorption": report.analytic_absorption,
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
                help=f"walk length (at most {MAX_STEPS})"),
        _Option("--seed", int, required=True, help="random seed"),
    )),
}

_USAGE = f"usage: cmdpkit [-h] {{{','.join(_COMMANDS)}}} ...\n"
_ABOUT = """Command-line front end.

Every subcommand reads an instance file, runs the corresponding module API
and prints a single deterministic JSON document (sorted keys, exact rationals
as "p/q"). Exit codes: 0 success / positive verdict, 1 declared negative
result (infeasible, certificate UNSAT, failed check, time inconsistency,
sample-path infeasible, non-decomposable), 2 usage or input error,
3 any other failure (a defect, reported without a traceback).
Identical inputs, including the seed, produce byte-identical reports."""
_MARKER = "--"  # every later token is a positional
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _HelpRequested(Exception):
    """-h or --help was read; the argument is the help text."""


def _usage(name: str, command: _Command) -> str:
    parts = ["[-h]"] + [
        o.invocation if o.required else f"[{o.invocation}]" for o in command.options
    ]
    return f"usage: cmdpkit {name} {' '.join(parts)} file\n"


def _command_error(name: str, message: str) -> _UsageError:
    """A usage error of command ``name``: the message, then the command's usage line."""
    return _UsageError(f"cmdpkit {name}: error: {message}\n{_usage(name, _COMMANDS[name])}")


def _help(name: str | None) -> str:
    """Help for one command, or for the whole CLI when ``name`` is None."""
    if name is None:
        usage, about = _USAGE, _ABOUT
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

    def fail(message: str) -> _UsageError:
        return _command_error(name, message)

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
