"""MDP data model: exact rationals, instance parsing, validation.

A model instance is a finite state set, per-state action sets, an exact
rational transition kernel, a scalar reward per (state, action) and a
constraint vector per (state, action). Every numeric quantity is a
``fractions.Fraction``; instance documents carry numbers as strings
("0.125" or "1/8") so that no binary float is ever involved.

``Mdp`` and ``Policy`` are frozen dataclasses built from tuples. Each
builds its label lookup map once, at construction, in a field that
equality and hashing ignore; no analysis is keyed by hashing a model.
Every other record of the package, here and in the other modules, is a
``typing.NamedTuple``: immutable, and much cheaper than a dataclass to
define at import, which every cold command pays.

The kernel is held only as sparse successor rows (``Successors``), built
straight from each document's ``transitions`` object: parsing,
``validate``, ``serialize_instance`` and every chain analysis read those
rows, and no dense transition row is ever built.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import NamedTuple


class InputError(ValueError):
    """The caller's input is at fault; the command line exits 2 on it, 3 on others.

    Each input error of the package derives from it and keeps its old base
    (``KeyError``, ``RuntimeError``), which ``except`` clauses may still name.
    """


class InstanceFormatError(InputError):
    """Raised when an instance document is syntactically or structurally bad."""


class UnknownStateError(InputError, KeyError):
    """A state label the model does not have."""


class PolicyError(InputError):
    """Raised when a policy is not a valid total choice map for a model."""


# Bounds on one numeric literal. Without them "1e-2000000" alone costs a
# power of ten with millions of digits.
MAX_LITERAL_LENGTH = 1000
MAX_DECIMAL_EXPONENT = 1000


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", decimal ("0.125") or integer ("5") strings exactly.

    Decimal literals become exact decimal fractions (0.125 -> 1/8), never
    binary floats. Literals longer than MAX_LITERAL_LENGTH characters, or
    with a decimal exponent above MAX_DECIMAL_EXPONENT in magnitude, raise
    InstanceFormatError.
    """
    if not isinstance(text, str):
        raise InstanceFormatError(
            f"numbers must be strings to stay exact, got {type(text).__name__}: {text!r}"
        )
    literal = text.strip()
    if len(literal) > MAX_LITERAL_LENGTH:
        raise InstanceFormatError(
            f"rational literal longer than {MAX_LITERAL_LENGTH} characters: "
            f"{literal[:20]!r}..."
        )
    if abs(_decimal_exponent(literal)) > MAX_DECIMAL_EXPONENT:
        raise InstanceFormatError(
            f"decimal exponent above {MAX_DECIMAL_EXPONENT} in magnitude: "
            f"{literal[:20]!r}"
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"not a rational literal: {text!r} ({exc})") from None


def _decimal_exponent(literal: str) -> int:
    """The exponent after the last e or E of ``literal``, 0 if none follows it.

    An exponent is one optional sign and decimal digits with single
    underscores between them, as ``Fraction`` reads it; ``int`` reads
    exactly that, less the surrounding whitespace it also allows.
    """
    cut = max(literal.rfind("e"), literal.rfind("E"))
    tail = literal[cut + 1:]
    if cut < 0 or tail != tail.strip():
        return 0
    try:
        return int(tail)
    except ValueError:
        return 0


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" form ("5" -> "5/1"); InputError past the digit limit."""
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise InputError(f"a number to print has {_over_digit_limit()}") from None


# Python 3.11's default limit on the decimal digits of an int-to-str
# conversion; 3.10 has no limit and no ``sys.get_int_max_str_digits``.
DEFAULT_MAX_STR_DIGITS = 4300


def int_max_str_digits() -> int:
    """The interpreter's int-to-str digit limit, or DEFAULT_MAX_STR_DIGITS
    when it sets none (the limit is off, or Python 3.10)."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    return (limit() if limit else 0) or DEFAULT_MAX_STR_DIGITS


def _over_digit_limit() -> str:
    return (f"more than {int_max_str_digits()} digits, the limit "
            "set by PYTHONINTMAXSTRDIGITS")


# The (target index, probability) pairs of one transition row with nonzero
# probability, ascending by index; a policy-induced chain is one per state.
Successors = tuple[tuple[int, Fraction], ...]
Chain = tuple[Successors, ...]


@dataclass(frozen=True)
class Mdp:
    """Finite constrained MDP with exact rational data.

    Fields are index-aligned: ``actions[i]`` lists the action labels of
    ``states[i]``; ``successors[i][j]`` is the transition row of action j
    at state i, as ``(index, probability)`` pairs ascending by index with
    every probability nonzero; ``rewards[i][j]`` and ``constraints[i][j]``
    the stagewise reward and constraint vector. Construction checks
    nothing: ``validate`` reports every violation, negative probabilities
    included.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    successors: tuple[tuple[Successors, ...], ...]
    rewards: tuple[tuple[Fraction, ...], ...]
    constraints: tuple[tuple[tuple[Fraction, ...], ...], ...]
    constraint_dim: int
    initial_state: str
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.states)}
        )

    def state_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownStateError(f"unknown state {label!r}") from None

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Policy:
    """Deterministic stationary policy: one action label per state.

    ``choice`` holds (state, action) pairs in model state order.
    """

    choice: tuple[tuple[str, str], ...]
    _action: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_action", dict(self.choice))

    def action_for(self, state: str) -> str:
        try:
            return self._action[state]
        except KeyError:
            raise PolicyError(f"policy does not cover state {state!r}") from None

    @staticmethod
    def from_mapping(mdp: Mdp, mapping: dict[str, str]) -> "Policy":
        """Build a total policy, defaulting single-action states.

        States with exactly one action may be omitted from ``mapping``;
        every state with two or more actions must be named.
        """
        pairs = []
        for i, state in enumerate(mdp.states):
            if state in mapping:
                pairs.append((state, mapping[state]))
            elif len(mdp.actions[i]) == 1:
                pairs.append((state, mdp.actions[i][0]))
            else:
                raise PolicyError(
                    f"state {state!r} has {len(mdp.actions[i])} actions; "
                    "an explicit choice is required"
                )
        unknown = set(mapping) - set(mdp.states)
        if unknown:
            raise PolicyError(f"policy names unknown states: {sorted(unknown)}")
        policy = Policy(choice=tuple(pairs))
        validate_policy(mdp, policy)
        return policy


def validate_policy(mdp: Mdp, policy: Policy) -> None:
    """Raise PolicyError unless policy is a total valid choice map."""
    seen = dict(policy.choice)
    for i, state in enumerate(mdp.states):
        if state not in seen:
            raise PolicyError(f"policy does not cover state {state!r}")
        if seen[state] not in mdp.actions[i]:
            raise PolicyError(
                f"policy selects action {seen[state]!r} absent from state {state!r}"
            )
    extra = set(seen) - set(mdp.states)
    if extra:
        raise PolicyError(f"policy names unknown states: {sorted(extra)}")


class Trajectory(NamedTuple):
    """Realized state sequence X_0 .. X_{T-1} with its generating seed."""

    states: tuple[str, ...]
    horizon: int
    seed: int


# ---------------------------------------------------------------------------
# validation

class Violation(NamedTuple):
    kind: str
    state: str | None
    action: str | None
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ValidationError(InputError):
    """Raised by parse_instance when the parsed model violates invariants."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"invalid instance: {lines}")


def validate(mdp: Mdp) -> ValidationReport:
    """Check every structural invariant; the report lists all violations.

    An empty report means the model is well formed. Rewards and constraints
    at transient states are ordinary data and are not special-cased. Fields
    whose length does not match the states (``state-shape``) or a state's
    actions (``action-shape``) are reported, and the rest is still checked
    as far as the entries line up.
    """
    violations: list[Violation] = []

    def add(kind: str, state: str | None, action: str | None, message: str) -> None:
        violations.append(Violation(kind, state, action, message))

    labels = list(mdp.states)
    if len(set(labels)) != len(labels):
        dupes = sorted({s for s in labels if labels.count(s) > 1})
        add("duplicate-state", None, None, f"duplicate state labels: {dupes}")
    if mdp.initial_state not in set(labels):
        add("initial-state", None, None,
            f"initial state {mdp.initial_state!r} is not a model state")

    n = mdp.constraint_dim
    if n < 0:
        add("constraint-dim", None, None, f"constraint_dim must be >= 0, got {n}")

    per_state = (
        ("actions", mdp.actions), ("kernel", mdp.successors),
        ("rewards", mdp.rewards), ("constraints", mdp.constraints),
    )
    for name, entries in per_state:
        if len(entries) != len(mdp.states):
            add("state-shape", None, None,
                f"{name} has {len(entries)} entries for {len(mdp.states)} states")
    aligned = min(len(entries) for _, entries in per_state)

    for i, state in enumerate(mdp.states[:aligned]):
        acts = mdp.actions[i]
        if not acts:
            add("no-actions", state, None, f"state {state!r} has no actions")
        if len(set(acts)) != len(acts):
            add("duplicate-action", state, None,
                f"state {state!r} has duplicate action labels")
        rows, constraints = mdp.successors[i], mdp.constraints[i]
        for name, entries in (
            ("kernel rows", rows), ("rewards", mdp.rewards[i]),
            ("constraint vectors", constraints),
        ):
            if len(entries) != len(acts):
                add("action-shape", state, None,
                    f"state {state!r} has {len(acts)} actions but "
                    f"{len(entries)} {name}")
        for j, action in enumerate(acts):
            row = rows[j] if j < len(rows) else None
            if row is not None and not (
                all(p != 0 and 0 <= k < len(mdp.states) for k, p in row)
                and all(k < m for (k, _), (m, _) in zip(row, row[1:]))
            ):
                add("row-shape", state, action,
                    f"kernel row of ({state!r}, {action!r}) is not ascending "
                    f"(index, nonzero probability) pairs over {len(mdp.states)} states")
            elif row is not None:
                negatives = [mdp.states[k] for k, p in row if p < 0]
                if negatives:
                    add("row-negative", state, action,
                        f"negative transition probability at ({state!r}, {action!r}) "
                        f"towards {negatives}")
                # the row sums to 1 when its numerators over one lcm sum to it
                scale = lcm(*(p.denominator for _, p in row))
                total = sum(p.numerator * (scale // p.denominator) for _, p in row)
                if total != scale:
                    add("row-sum", state, action,
                        f"kernel row of ({state!r}, {action!r}) sums to "
                        f"{format_rational(Fraction(total, scale))}, not 1")
            if j < len(constraints) and len(constraints[j]) != n:
                add("constraint-length", state, action,
                    f"constraint vector of ({state!r}, {action!r}) has length "
                    f"{len(constraints[j])}, expected {n}")

    return ValidationReport(violations=tuple(violations))


# ---------------------------------------------------------------------------
# instance documents

def parse_instance(text: str) -> Mdp:
    """Parse and validate a JSON instance document.

    Raises InstanceFormatError on syntax/schema problems (with position or
    path information) and ValidationError when the parsed model violates a
    structural invariant.
    """
    return _instance(_decode(text))


def load_instance(path: str | os.PathLike) -> Mdp:
    """``parse_instance`` of a file, read by ``read_json``."""
    return read_json(path, _instance)


def read_json(path: str | os.PathLike, build):
    """``build`` of the JSON document in the UTF-8 file at ``path``.

    Every InputError that reading, parsing or building it raises has a
    message that starts with the path (InstanceFormatError if not UTF-8 JSON).
    """
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    doc = _decode(text, f"{path}: ")
    try:
        return build(doc)
    except InputError as exc:
        exc.args = (f"{path}: {exc.args[0]}",)
        raise


def _decode(text: str, where: str = ""):
    """``json.loads``; each way it fails raises InstanceFormatError after ``where``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
    except RecursionError:
        message = "JSON nested too deeply"
    except ValueError:  # an integer literal past the int-to-str limit
        message = f"an integer literal has {_over_digit_limit()}"
    raise InstanceFormatError(where + message)


def _instance(doc) -> Mdp:
    mdp = _mdp_from_document(doc)
    report = validate(mdp)
    if not report.ok:
        raise ValidationError(report)
    return mdp


def _require(doc: dict, key: str, kind: type, where: str, *args):
    """``doc[key]``, checked to be a ``kind``; ``where.format(*args)`` names
    ``doc`` in the error, and is built only for it."""
    if not isinstance(doc, dict) or key not in doc:
        raise InstanceFormatError(f"missing key {key!r} in {where.format(*args)}")
    value = doc[key]
    if not isinstance(value, kind):
        raise InstanceFormatError(
            f"{where.format(*args)}.{key} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


_STATE = "states[{}] ({!r})"
_ACTION = _STATE + ".actions[{}]"


def _mdp_from_document(doc) -> Mdp:
    if not isinstance(doc, dict):
        raise InstanceFormatError("document root must be a JSON object")
    constraint_dim = _require(doc, "constraint_dim", int, "document")
    if isinstance(constraint_dim, bool):
        raise InstanceFormatError("document.constraint_dim must be an integer")
    initial = _require(doc, "initial_state", str, "document")
    state_docs = _require(doc, "states", list, "document")
    if not state_docs:
        raise InstanceFormatError("document.states must be nonempty")

    labels: list[str] = []
    for k, sdoc in enumerate(state_docs):
        labels.append(_require(sdoc, "id", str, "states[{}]", k))
    index = {label: i for i, label in enumerate(labels)}

    # Each distinct literal is parsed once. Only parsed values are kept, so
    # the first bad literal in document order raises as it would alone.
    parsed: dict[str, Fraction] = {}

    def rational(text) -> Fraction:
        value = parsed.get(text) if isinstance(text, str) else None
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    actions: list[tuple[str, ...]] = []
    successors: list[tuple[Successors, ...]] = []
    rewards: list[tuple[Fraction, ...]] = []
    constraints: list[tuple[tuple[Fraction, ...], ...]] = []
    for k, sdoc in enumerate(state_docs):
        label = labels[k]
        action_docs = _require(sdoc, "actions", list, _STATE, k, label)
        state_actions: list[str] = []
        state_rows: list[Successors] = []
        state_rewards: list[Fraction] = []
        state_constraints: list[tuple[Fraction, ...]] = []
        for m, adoc in enumerate(action_docs):
            state_actions.append(_require(adoc, "id", str, _ACTION, k, label, m))
            state_rewards.append(rational(_require(adoc, "reward", str, _ACTION, k, label, m)))
            cvec = _require(adoc, "constraint", list, _ACTION, k, label, m)
            state_constraints.append(tuple(rational(c) for c in cvec))
            trans = _require(adoc, "transitions", dict, _ACTION, k, label, m)
            row = []
            for target, prob in trans.items():
                if target not in index:
                    raise InstanceFormatError(
                        f"{_ACTION.format(k, label, m)}.transitions names "
                        f"unknown state {target!r}"
                    )
                row.append((index[target], rational(prob)))
            # object keys are unique, so pairs sort by index alone
            state_rows.append(tuple(sorted(pair for pair in row if pair[1])))
        actions.append(tuple(state_actions))
        successors.append(tuple(state_rows))
        rewards.append(tuple(state_rewards))
        constraints.append(tuple(state_constraints))

    return Mdp(
        states=tuple(labels),
        actions=tuple(actions),
        successors=tuple(successors),
        rewards=tuple(rewards),
        constraints=tuple(constraints),
        constraint_dim=constraint_dim,
        initial_state=initial,
    )


def serialize_instance(mdp: Mdp) -> dict:
    """Document form of a model; all rationals as canonical "p/q" strings."""
    states = []
    for i, state in enumerate(mdp.states):
        action_docs = []
        for j, action in enumerate(mdp.actions[i]):
            transitions = {
                mdp.states[k]: format_rational(p) for k, p in mdp.successors[i][j]
            }
            action_docs.append({
                "id": action,
                "reward": format_rational(mdp.rewards[i][j]),
                "constraint": [format_rational(c) for c in mdp.constraints[i][j]],
                "transitions": transitions,
            })
        states.append({"id": state, "actions": action_docs})
    return {
        "constraint_dim": mdp.constraint_dim,
        "initial_state": mdp.initial_state,
        "states": states,
    }


def instance_to_json(mdp: Mdp) -> str:
    """Deterministic JSON rendering of serialize_instance."""
    return render_json(serialize_instance(mdp))


def render_json(value) -> str:
    """The JSON text of ``value`` with sorted keys and two-space indents, and
    a newline: byte for byte what ``json.dumps`` writes with those settings.

    The standard library indents through its pure-Python encoder; this one
    recursion is the whole of that for the types a report holds: str, int,
    bool, None, list, tuple and dict with str keys. Any other type, a float
    included, raises TypeError. Strings are escaped by ``json``'s own
    ASCII escaper.
    """
    parts: list[str] = []
    _render(value, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _render(value, newline: str, emit) -> None:
    """Emit ``value``'s JSON text, its nested lines starting with ``newline``."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            emit(separator)
            _render(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            emit(separator + encode_basestring_ascii(key) + ": ")
            _render(value[key], inner, emit)
            separator = "," + inner
        emit(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def induced_chain(mdp: Mdp, policy: Policy) -> Chain:
    """Successor rows of the policy-induced Markov chain, in model state order.

    Row i is ``mdp.successors[i][a]`` for the policy's action a at state i,
    shared, not copied; its probabilities sum to exactly 1.
    """
    validate_policy(mdp, policy)
    return tuple(
        mdp.successors[i][mdp.actions[i].index(policy.action_for(state))]
        for i, state in enumerate(mdp.states)
    )
