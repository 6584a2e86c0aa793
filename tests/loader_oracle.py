"""Per-literal reference for the instance loader in ``cmdpkit.model``.

``parse_rational`` checks a literal's decimal exponent with a regular
expression, and ``mdp_from_document`` parses every literal of a document
on its own, in document order, building each error location string as it
goes. This is the loader before ``model._mdp_from_document`` parsed each
distinct literal once and ``model.parse_rational`` read the exponent
without a regular expression.

``parse_instance`` is ``model.parse_instance`` on this loader: property
tests require the two to return equal models, or to raise the same
``InstanceFormatError`` message.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from cmdpkit.model import (
    MAX_DECIMAL_EXPONENT,
    MAX_LITERAL_LENGTH,
    InstanceFormatError,
    Mdp,
    Successors,
    ValidationError,
    validate,
)


def parse_rational(text: str) -> Fraction:
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
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\Z", literal)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise InstanceFormatError(
            f"decimal exponent above {MAX_DECIMAL_EXPONENT} in magnitude: "
            f"{literal[:20]!r}"
        )
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"not a rational literal: {text!r} ({exc})") from None


def _require(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InstanceFormatError(f"missing key {key!r} in {where}")
    value = doc[key]
    if not isinstance(value, kind):
        raise InstanceFormatError(
            f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def mdp_from_document(doc) -> Mdp:
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
        labels.append(_require(sdoc, "id", str, f"states[{k}]"))
    index = {label: i for i, label in enumerate(labels)}

    actions: list[tuple[str, ...]] = []
    successors: list[tuple[Successors, ...]] = []
    rewards: list[tuple[Fraction, ...]] = []
    constraints: list[tuple[tuple[Fraction, ...], ...]] = []
    for k, sdoc in enumerate(state_docs):
        where = f"states[{k}] ({labels[k]!r})"
        action_docs = _require(sdoc, "actions", list, where)
        state_actions: list[str] = []
        state_rows: list[Successors] = []
        state_rewards: list[Fraction] = []
        state_constraints: list[tuple[Fraction, ...]] = []
        for m, adoc in enumerate(action_docs):
            awhere = f"{where}.actions[{m}]"
            state_actions.append(_require(adoc, "id", str, awhere))
            state_rewards.append(parse_rational(_require(adoc, "reward", str, awhere)))
            cvec = _require(adoc, "constraint", list, awhere)
            state_constraints.append(tuple(parse_rational(c) for c in cvec))
            trans = _require(adoc, "transitions", dict, awhere)
            row = []
            for target, prob in trans.items():
                if target not in index:
                    raise InstanceFormatError(
                        f"{awhere}.transitions names unknown state {target!r}"
                    )
                row.append((index[target], parse_rational(prob)))
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


def parse_instance(text: str) -> Mdp:
    mdp = mdp_from_document(json.loads(text))
    report = validate(mdp)
    if not report.ok:
        raise ValidationError(report)
    return mdp
