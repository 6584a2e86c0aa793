"""Seeded random model generators shared across the test suite.

Everything here is deterministic given the Random instance handed in, so
frozen seeds in the tests pin down the exact family being checked.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import settings

from cmdpkit.model import Mdp, Policy
from dense_oracle import dense_kernel, sparse_kernel


def examples(n: int) -> int:
    """``max_examples`` for a property test that runs n under the default
    Hypothesis profile, scaled as the loaded profile scales the default's."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


def random_row(rng: random.Random, size: int, support: list[int] | None = None,
               full: bool = False) -> tuple[Fraction, ...]:
    """Random exact distribution over ``size`` states."""
    if full:
        support = list(range(size))
    elif support is None:
        width = rng.randint(1, min(3, size))
        support = rng.sample(range(size), width)
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    row = [Fraction(0)] * size
    for s, w in zip(support, weights):
        row[s] += Fraction(w, total)
    return tuple(row)


def random_value(rng: random.Random, lo: int = -20, hi: int = 20) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_mdp(
    rng: random.Random,
    max_states: int = 8,
    max_actions: int = 3,
    constraint_dims: tuple[int, ...] = (0, 1, 2),
    full_support: bool = False,
    max_policies: int = 64,
    min_states: int = 2,
) -> Mdp:
    """Random finite model with a bounded policy-space size."""
    num_states = rng.randint(min_states, max_states)
    states = tuple(f"s{i}" for i in range(num_states))
    n = rng.choice(constraint_dims)

    action_counts = [1] * num_states
    total = 1
    for i in rng.sample(range(num_states), num_states):
        count = rng.randint(1, max_actions)
        if total * count <= max_policies:
            action_counts[i] = count
            total *= count

    actions = []
    kernel = []
    rewards = []
    constraints = []
    for i in range(num_states):
        labels = tuple(f"a{j}" for j in range(action_counts[i]))
        actions.append(labels)
        kernel.append(tuple(
            random_row(rng, num_states, full=full_support) for _ in labels
        ))
        rewards.append(tuple(random_value(rng) for _ in labels))
        constraints.append(tuple(
            tuple(random_value(rng, -5, 5) for _ in range(n)) for _ in labels
        ))

    return Mdp(
        states=states,
        actions=tuple(actions),
        successors=sparse_kernel(kernel),
        rewards=tuple(rewards),
        constraints=tuple(constraints),
        constraint_dim=n,
        initial_state="s0",
    )


def lazy_variant(mdp: Mdp, alpha: Fraction) -> Mdp:
    """The model with every kernel row mixed with the identity.

    P' = alpha I + (1 - alpha) P, so P' - I = (1 - alpha)(P - I): the
    classes, stationary vectors, absorption probabilities, V and W are
    those of ``mdp``, and every exact solve works on rescaled numbers.
    """
    kernel = tuple(
        tuple(
            tuple((1 - alpha) * p + (alpha if j == i else 0) for j, p in enumerate(row))
            for row in rows
        )
        for i, rows in enumerate(dense_kernel(mdp))
    )
    return mdp._replace(successors=sparse_kernel(kernel))


def random_policy(rng: random.Random, mdp: Mdp) -> Policy:
    return Policy(choice=tuple(
        (state, rng.choice(mdp.actions[i])) for i, state in enumerate(mdp.states)
    ))


def random_decomposable(
    rng: random.Random,
    max_classes: int = 3,
    max_class_size: int = 3,
    constraint_dims: tuple[int, ...] = (1, 2),
) -> Mdp:
    """Trans-policy decomposable model with every class reachable under
    every policy.

    Recurrent classes are choice-free cycles, so the class structure cannot
    depend on the policy; each transient state's every action places
    positive mass on the entry of every class.
    """
    n = rng.choice(constraint_dims)
    num_classes = rng.randint(1, max_classes)
    cycles = [rng.randint(1, max_class_size) for _ in range(num_classes)]
    num_transient = rng.randint(1, 2)

    states: list[str] = [f"t{i}" for i in range(num_transient)]
    entries: list[str] = []
    for c, size in enumerate(cycles):
        entries.append(f"c{c}_0")
        states.extend(f"c{c}_{k}" for k in range(size))
    index = {s: i for i, s in enumerate(states)}

    actions = []
    kernel = []
    rewards = []
    constraints = []
    for state in states:
        if state.startswith("t"):
            count = rng.randint(1, 3)
            labels = tuple(f"a{j}" for j in range(count))
            rows = []
            for _ in labels:
                targets = list(entries)
                if state == "t0" and num_transient == 2:
                    targets.append("t1")
                weights = [rng.randint(1, 9) for _ in targets]
                total = sum(weights)
                row = [Fraction(0)] * len(states)
                for t, w in zip(targets, weights):
                    row[index[t]] = Fraction(w, total)
                rows.append(tuple(row))
        else:
            c, k = state[1:].split("_")
            size = cycles[int(c)]
            labels = ("move",)
            row = [Fraction(0)] * len(states)
            row[index[f"c{c}_{(int(k) + 1) % size}"]] = Fraction(1)
            rows = [tuple(row)]
        actions.append(labels)
        kernel.append(tuple(rows))
        rewards.append(tuple(random_value(rng) for _ in labels))
        constraints.append(tuple(
            tuple(random_value(rng, -4, 6) for _ in range(n)) for _ in labels
        ))

    return Mdp(
        states=tuple(states),
        actions=tuple(actions),
        successors=sparse_kernel(kernel),
        rewards=tuple(rewards),
        constraints=tuple(constraints),
        constraint_dim=n,
        initial_state="t0",
    )
