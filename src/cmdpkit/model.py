"""MDP data model: exact rationals, instance parsing, validation.

A model instance is a finite state set, per-state action sets, an exact
rational transition kernel, a scalar reward per (state, action) and a
constraint vector per (state, action). Every numeric quantity is a
``fractions.Fraction``; instance documents carry numbers as strings
("0.125" or "1/8") so that no binary float is ever involved.

``Mdp`` and ``Policy`` are frozen records built from tuples: plain
classes with ``__slots__``, because ``dataclasses`` would load
``inspect``, ``ast``, ``dis`` and ``tokenize`` on every cold command.
Each builds its label lookup map once, at construction, in a slot that
equality, hashing, ``repr`` and pickling ignore; no analysis is keyed by
hashing a model. Both have the surface of every other record of the
package, here and in the other modules, each a ``typing.NamedTuple``:
``_fields``, ``_asdict()`` and ``_replace(**changes)``.

The kernel is held only as sparse successor rows (``Successors``), built
straight from each document's ``transitions`` object: parsing,
``validate``, ``serialize_instance`` and every chain analysis read those
rows, and no dense transition row is ever built.

Every command loads, validates and renders once, in a cold process, so
that path keeps off standard-library routines whose first call costs as
much as a whole warm load: ``read_json`` reads bytes and decodes them
itself rather than through the text-mode file stack, ``parse_rational``
reads a canonical "p/q" literal with two ``int`` parses rather than
``Fraction``'s regular-expression parser, ``validate`` and the loader test
zero and sign on numerators rather than through ``Fraction``'s comparison
and truth dunders, and ``render_json`` picks its branch by exact type.
Every result, message and rendered byte is what the general routines give.
"""

import json
import os
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm, prod
from typing import Iterable, NamedTuple


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
# Bounds on a time-t distribution (``chains.state_distribution_at``) and on
# a simulated walk (``samplepath.simulate``); they live here, with the other
# input limits, because the command line's help text names them.
MAX_TIME = 10_000
MAX_STEPS = 10**7
# Bound on the policies one question enumerates (the solver's walk, the
# sample-path passes) and, through its exception, on the closure a
# certificate search builds its program over.
ENUM_CAP_ENV = "CMDPKIT_ENUM_CAP"
DEFAULT_ENUM_CAP = 1 << 20


class EnumerationCapExceeded(InputError, RuntimeError):
    """Raised when the policy space is larger than the configured cap."""


def enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise EnumerationCapExceeded(
            f"{ENUM_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if cap <= 0:
        raise EnumerationCapExceeded(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_cap(action_counts: Iterable[int]) -> None:
    """Raise EnumerationCapExceeded if the product of ``action_counts`` passes the cap.

    The error names the states with a choice among those counted.
    """
    cap = enumeration_cap()
    counts = [count for count in action_counts if count > 1]
    total = prod(counts)
    if total > cap:
        choices = ", ".join(
            f"{states} state{'s' if states > 1 else ''} with {count} actions"
            for count, states in sorted(Counter(counts).items())
        )
        raise EnumerationCapExceeded(
            f"{total} policies ({choices}) exceed the cap of {cap}; "
            f"raise {ENUM_CAP_ENV} to proceed"
        )


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
    # The canonical form -?[0-9]+/[0-9]+ is two int parses; every other
    # literal goes through Fraction's parser, and so does one with a zero
    # denominator or past the int-to-str digit limit, which it reports.
    p, slash, q = text.partition("/")
    if (slash and len(text) <= MAX_LITERAL_LENGTH and text.isascii()
            and p.removeprefix("-").isdigit() and q.isdigit()):
        try:
            denominator = int(q)
            if denominator:
                return Fraction(int(p), denominator)
        except ValueError:
            pass
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


class _Record:
    """A frozen record of ``_fields`` and one lookup map derived from them.

    Equality (same class, equal fields), hashing, ``repr`` and pickling see
    the fields only, as a frozen dataclass's do, and ``repr`` prints the
    same bytes. ``_replace`` goes through ``__init__``, which rebuilds the
    map.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Mdp(_Record):
    """Finite constrained MDP with exact rational data.

    Fields are index-aligned: ``actions[i]`` lists the action labels of
    ``states[i]``; ``successors[i][j]`` is the transition row of action j
    at state i, as ``(index, probability)`` pairs ascending by index with
    every probability nonzero; ``rewards[i][j]`` and ``constraints[i][j]``
    the stagewise reward and constraint vector. Construction checks
    nothing: ``validate`` reports every violation, negative probabilities
    included. ``mdp._replace(field=value)`` returns an edited copy.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    successors: tuple[tuple[Successors, ...], ...]
    rewards: tuple[tuple[Fraction, ...], ...]
    constraints: tuple[tuple[tuple[Fraction, ...], ...], ...]
    constraint_dim: int
    initial_state: str

    _fields = ("states", "actions", "successors", "rewards", "constraints",
               "constraint_dim", "initial_state")
    __slots__ = (*_fields, "_index")

    def __init__(
        self,
        states: tuple[str, ...],
        actions: tuple[tuple[str, ...], ...],
        successors: tuple[tuple[Successors, ...], ...],
        rewards: tuple[tuple[Fraction, ...], ...],
        constraints: tuple[tuple[tuple[Fraction, ...], ...], ...],
        constraint_dim: int,
        initial_state: str,
    ) -> None:
        values = (states, actions, successors, rewards, constraints,
                  constraint_dim, initial_state)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(states)})

    def state_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownStateError(f"unknown state {label!r}") from None

    @property
    def num_states(self) -> int:
        return len(self.states)


class Policy(_Record):
    """Deterministic stationary policy: one action label per state.

    ``choice`` holds (state, action) pairs in model state order;
    ``validate_policy`` checks it against a model.
    """

    choice: tuple[tuple[str, str], ...]

    _fields = ("choice",)
    __slots__ = ("choice", "_action")

    def __init__(self, choice: tuple[tuple[str, str], ...]) -> None:
        object.__setattr__(self, "choice", choice)
        object.__setattr__(self, "_action", dict(choice))

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
    seen: dict[str, str] = {}
    for state, action in policy.choice:
        if state in seen:
            raise PolicyError(f"policy names state {state!r} more than once")
        seen[state] = action
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

    labels = mdp.states
    num_states = len(labels)
    known = set(labels)
    if len(known) != num_states:
        dupes = sorted({s for s in labels if labels.count(s) > 1})
        add("duplicate-state", None, None, f"duplicate state labels: {dupes}")
    if mdp.initial_state not in known:
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
        if len(entries) != num_states:
            add("state-shape", None, None,
                f"{name} has {len(entries)} entries for {num_states} states")
    aligned = min(len(entries) for _, entries in per_state)

    for i in range(aligned):
        state, acts = labels[i], mdp.actions[i]
        rows, rewards, constraints = mdp.successors[i], mdp.rewards[i], mdp.constraints[i]
        width = len(acts)
        if not width:
            add("no-actions", state, None, f"state {state!r} has no actions")
        elif width > 1 and len(set(acts)) != width:
            add("duplicate-action", state, None,
                f"state {state!r} has duplicate action labels")
        if not len(rows) == len(rewards) == len(constraints) == width:
            for name, entries in (
                ("kernel rows", rows), ("rewards", rewards),
                ("constraint vectors", constraints),
            ):
                if len(entries) != width:
                    add("action-shape", state, None,
                        f"state {state!r} has {width} actions but "
                        f"{len(entries)} {name}")
        for j, action in enumerate(acts):
            if j < len(rows):
                # One pass reads each entry's numerator and denominator: the
                # shape, the signs, and the sum as an integer over one lcm.
                row = rows[j]
                previous, negative, scale, total = -1, False, 1, 0
                for k, p in row:
                    numerator, denominator = p.numerator, p.denominator
                    if not (numerator and previous < k < num_states):
                        add("row-shape", state, action,
                            f"kernel row of ({state!r}, {action!r}) is not ascending "
                            f"(index, nonzero probability) pairs over {num_states} states")
                        break
                    previous = k
                    negative = negative or numerator < 0
                    if scale % denominator:
                        grown = lcm(scale, denominator)
                        total *= grown // scale
                        scale = grown
                    total += numerator * (scale // denominator)
                else:
                    if negative:
                        negatives = [labels[k] for k, p in row if p.numerator < 0]
                        add("row-negative", state, action,
                            f"negative transition probability at ({state!r}, {action!r}) "
                            f"towards {negatives}")
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
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if "\r" in text:  # the newlines a text-mode read translates
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
            state_rows.append(tuple(sorted(pair for pair in row if pair[1].numerator)))
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
    a newline: for JSON types byte for byte what ``json.dumps`` writes with
    those settings, and a ``Fraction`` as the JSON string of its "p/q" form.

    The standard library indents through its pure-Python encoder; this one
    recursion is the whole of that for the types a report holds: str, int,
    bool, None, list, tuple, dict with str keys and Fraction; an int or a
    Fraction past the int-to-str digit limit raises InputError. Any other
    type, a float included, raises TypeError. Strings are escaped by
    ``json``'s own ASCII escaper.
    """
    parts: list[str] = []
    _render(value, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _format_int(value: int) -> str:
    """The decimal text of an int; InputError past the digit limit."""
    try:
        return int.__repr__(value)
    except ValueError:
        raise InputError(f"a number to print has {_over_digit_limit()}") from None


def _render(value, newline: str, parts: list[str]) -> None:
    """Append ``value``'s JSON text, its nested lines starting with ``newline``.

    The exact type picks the branch, so a report's plain values never reach
    ``isinstance`` (through ``Fraction``'s ABC machinery); a subclass, such
    as a NamedTuple, falls through to the ``isinstance`` chain.
    """
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is Fraction:
        parts.append(f'"{format_rational(value)}"')
    elif kind is dict:
        _render_dict(value, newline, parts)
    elif kind is list or kind is tuple:
        _render_list(value, newline, parts)
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif kind is int:
        parts.append(_format_int(value))
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        parts.append(_format_int(value))
    elif isinstance(value, Fraction):
        parts.append(f'"{format_rational(value)}"')
    elif isinstance(value, (list, tuple)):
        _render_list(value, newline, parts)
    elif isinstance(value, dict):
        _render_dict(value, newline, parts)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_list(value, newline: str, parts: list[str]) -> None:
    if not value:
        parts.append("[]")
        return
    inner = newline + "  "
    separator = "[" + inner
    for item in value:
        parts.append(separator)
        _render(item, inner, parts)
        separator = "," + inner
    parts.append(newline + "]")


def _render_dict(value, newline: str, parts: list[str]) -> None:
    if not value:
        parts.append("{}")
        return
    for key in value:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    inner = newline + "  "
    separator = "{" + inner
    for key in sorted(value):
        parts.append(separator + encode_basestring_ascii(key) + ": ")
        _render(value[key], inner, parts)
        separator = "," + inner
    parts.append(newline + "}")


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
