"""Bundled model instances.

Each builder returns a validated model; the canonical JSON files under
``instances/`` in the repository are generated from the defaults here
(``python -m cmdpkit.instances [directory]`` regenerates them).

The frequencies behind the constructions: a directed k-cycle visits each of
its states with long-run frequency 1/k, so marking m of them "bad" realizes
a bad-state frequency of m/k exactly.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from cmdpkit.model import InputError, Mdp, format_rational, instance_to_json, parse_instance

ONE = Fraction(1)


def _action(action_id, reward, constraint, transitions) -> dict:
    return {
        "id": action_id,
        "reward": format_rational(Fraction(reward)),
        "constraint": [format_rational(Fraction(c)) for c in constraint],
        "transitions": {
            target: format_rational(Fraction(p)) for target, p in transitions.items()
        },
    }


def _cycle_states(prefix: str, length: int, reward, constraint_of) -> list[dict]:
    """Directed cycle prefix_0 -> prefix_1 -> ... -> prefix_0."""
    states = []
    for k in range(length):
        label = f"{prefix}{k}"
        target = f"{prefix}{(k + 1) % length}"
        states.append({
            "id": label,
            "actions": [_action("move", reward, constraint_of(label), {target: ONE})],
        })
    return states


def _build(constraint_dim: int, initial_state: str, states: list[dict]) -> Mdp:
    doc = {
        "constraint_dim": constraint_dim,
        "initial_state": initial_state,
        "states": states,
    }
    return parse_instance(json.dumps(doc))


def haviv(bound: Fraction = Fraction(1, 8)) -> Mdp:
    """Three-subchain model where the only feasible start-x policy is regretted at y.

    From the transient start x the process moves to subchain 1 or to the
    decision state y with probability 1/2 each; at y action "a" enters
    subchain 2 and action "b" subchain 3. Rewards are 0 / 10 / 20 on the
    three subchains, which are cycles of length 5 / 20 / 10 with one bad
    state each (bad-state frequencies 0.2 / 0.05 / 0.1). The constraint
    c = bound - 1_bad caps the expected bad-state frequency at ``bound``
    (default 1/8).
    """
    bad = {"c1_0", "c2_0", "c3_0"}
    cons = lambda label: [bound - (1 if label in bad else 0)]
    states = [
        {"id": "x", "actions": [
            _action("move", 0, cons("x"), {"c1_0": Fraction(1, 2), "y": Fraction(1, 2)}),
        ]},
        {"id": "y", "actions": [
            _action("a", 0, cons("y"), {"c2_0": ONE}),
            _action("b", 0, cons("y"), {"c3_0": ONE}),
        ]},
    ]
    states += _cycle_states("c1_", 5, 0, cons)
    states += _cycle_states("c2_", 20, 10, cons)
    states += _cycle_states("c3_", 10, 20, cons)
    return _build(1, "x", states)


def _lottery(
    eps: Fraction, y_actions: tuple[str, str], cycles: list[tuple[int, int]], bad: set[str]
) -> Mdp:
    """The lottery models: x wins (reaches y) with probability ``eps``, else z.

    y's two actions, named ``y_actions``, enter cycles c1 and c2; z's "buy"
    and "save" enter c3 and c4. ``cycles`` gives each ci's (length, reward),
    ``bad`` its bad states; the bad-state frequency bound is 0.3.
    """
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly between 0 and 1")
    bound = Fraction(3, 10)
    cons = lambda label: [bound - (1 if label in bad else 0)]
    states = [
        {"id": "x", "actions": [
            _action("lottery", 0, cons("x"), {"y": eps, "z": 1 - eps}),
        ]},
        {"id": "y", "actions": [
            _action(y_actions[0], 0, cons("y"), {"c1_0": ONE}),
            _action(y_actions[1], 0, cons("y"), {"c2_0": ONE}),
        ]},
        {"id": "z", "actions": [
            _action("buy", 0, cons("z"), {"c3_0": ONE}),
            _action("save", 0, cons("z"), {"c4_0": ONE}),
        ]},
    ]
    for i, (length, reward) in enumerate(cycles, 1):
        states += _cycle_states(f"c{i}_", length, reward, cons)
    return _build(1, "x", states)


def squander(eps: Fraction = Fraction(1, 10)) -> Mdp:
    """Lottery model: a rarely reached state accumulates constraint slack.

    From x the process reaches y (lottery won) with probability ``eps`` and
    z otherwise. At y: "squander" enters a subchain that is all bad
    (frequency 1, reward 50), "save" a 10-cycle with three bad states (0.3,
    reward 10). At z: "buy" enters a 5-cycle with two bad states (0.4,
    reward 40), "save" a 5-cycle with one bad state (0.2, reward 5). The
    bad-state frequency bound is 0.3. Saving at y has exactly zero slack,
    so buying at z is infeasible from x for every eps and the optimal
    policy always saves at z with slack 0.1; the residual slack at y is
    therefore 0.1 * (1 - 1/eps) exactly. For this calibration, squandering
    at y stays feasible from x (and is feasible in the residual problem at
    y) exactly when eps <= 1/8.
    """
    return _lottery(
        eps, ("squander", "save"), [(1, 50), (10, 10), (5, 40), (5, 5)],
        {"c1_0", "c2_0", "c2_1", "c2_2", "c3_0", "c3_1", "c4_0"},
    )


def yacht(eps: Fraction = Fraction(1, 10)) -> Mdp:
    """Lottery model with a yacht decision at both branches.

    From x the process reaches y (lottery won, probability ``eps``) or z.
    Both states choose between "buy" and "save": at y buying enters a
    5-cycle with one bad state (bad frequency 0.2, reward 50), saving a
    10-cycle (0.1, reward 30); at z buying enters a 5-cycle with two bad
    states (0.4, reward 40), saving a 5-cycle (0.2, reward 10). Bound 0.3:
    buying is sample-path feasible after winning the lottery but never at z.
    """
    return _lottery(
        eps, ("buy", "save"), [(5, 50), (10, 30), (5, 40), (5, 10)],
        {"c1_0", "c2_0", "c3_0", "c3_1", "c4_0"},
    )


def twochain() -> Mdp:
    """Minimal choice-free multichain with a unique certificate.

    The start splits 1/2 - 1/2 between two absorbing states with rewards
    1 and 0 and constraint values -1 and +1, so the constraint is exactly
    binding and the certificate multiplier and gain are pinned at 1/2.
    """
    states = [
        {"id": "x", "actions": [
            _action("go", 0, [0], {"a0": Fraction(1, 2), "b0": Fraction(1, 2)}),
        ]},
        {"id": "a0", "actions": [_action("stay", 1, [-1], {"a0": ONE})]},
        {"id": "b0", "actions": [_action("stay", 0, [1], {"b0": ONE})]},
    ]
    return _build(1, "x", states)


BUNDLED = {
    "haviv": haviv,
    "squander": squander,
    "yacht": yacht,
    "twochain": twochain,
}


def write_bundled(directory: str | Path) -> list[Path]:
    """Write the canonical instance files (builders at default parameters)."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, builder in BUNDLED.items():
        path = target / f"{name}.json"
        path.write_text(instance_to_json(builder()), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "instances"
    for path in write_bundled(out):
        print(path)
