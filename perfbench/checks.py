"""Output checks that need no reference, over the model data alone.

The certificate check re-derives the Bellman residuals from the instance
document with its own arithmetic; it shares no code with ``cmdpkit``.
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL = re.compile(r"-?\d+/\d+\Z")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rational(text) -> Fraction:
    """A "p/q" string from the CLI, as a Fraction."""
    require(isinstance(text, str) and RATIONAL.match(text) is not None,
            f"not a p/q rational: {text!r}")
    return Fraction(text)


def exact(value) -> Fraction:
    """An analytic library value, which must be a Fraction."""
    require(type(value) is Fraction, f"not a Fraction: {value!r}")
    return value


class ModelData:
    """Rewards, constraints and sparse kernel rows of an instance document."""

    def __init__(self, doc: dict):
        self.initial = doc["initial_state"]
        self.actions: dict[str, dict[str, tuple]] = {}
        for state in doc["states"]:
            self.actions[state["id"]] = {
                action["id"]: (
                    Fraction(action["reward"]),
                    tuple(Fraction(c) for c in action["constraint"]),
                    {t: Fraction(p) for t, p in action["transitions"].items()
                     if Fraction(p) != 0},
                )
                for action in state["actions"]
            }

    def reachable(self, start: str, policy: dict[str, str] | None) -> set[str]:
        """States reachable from start: under a policy, or under any action."""
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            acts = self.actions[state]
            chosen = acts.values() if policy is None else [acts[policy[state]]]
            for _, _, row in chosen:
                for target in row:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        return seen

    def total_policy(self, decisions: dict[str, str]) -> dict[str, str]:
        return {
            state: decisions.get(state, next(iter(acts)))
            for state, acts in self.actions.items()
        }


def check_certificate(
    model: ModelData,
    decisions: dict[str, str],
    mu: tuple[Fraction, ...],
    gain: Fraction,
    potential: dict[str, Fraction],
) -> None:
    """Bellman-residual check of a found certificate from the initial state.

    mu >= 0; at every state the policy reaches, its action attains zero
    residual; at every state of the all-actions closure, every action has
    residual >= 0 (the closure-wide inequalities that make the certificate
    an optimality proof). Complementary slackness is checked by the caller
    through gain == V(x).
    """
    policy = model.total_policy(decisions)
    require(all(m >= 0 for m in mu), f"negative multiplier {mu}")
    closure = model.reachable(model.initial, None)
    on_policy = model.reachable(model.initial, policy)
    require(closure <= set(potential), "potential misses closure states")
    for state in closure:
        for action, (reward, constraint, row) in model.actions[state].items():
            value = reward + sum((m * c for m, c in zip(mu, constraint)), Fraction(0))
            value += sum((p * potential[t] for t, p in row.items()), Fraction(0))
            residual = gain + potential[state] - value
            require(residual >= 0, f"Bellman residual {residual} < 0 at {state}/{action}")
            if state in on_policy and action == policy[state]:
                require(residual == 0,
                        f"Bellman residual {residual} != 0 at the policy's {state}/{action}")
