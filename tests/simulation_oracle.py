"""Per-step reference for ``cmdpkit.samplepath.simulate`` and ``simulation_report``.

This is the walk the package used before it went round a final
deterministic cycle in closed form. It runs a Python loop over
every step, takes one ``getrandbits(64)`` call per stochastic transition
and counts each visit as it happens; its analytic side is the ``Fraction``
route, ``analysis_oracle.analyse_policy``. Property tests require the walk
under test to return an equal ``SimulationReport`` and an equal
``Trajectory``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

from analysis_oracle import analyse_policy
from cmdpkit import chains
from cmdpkit.model import InputError, Mdp, Policy, Trajectory, validate_policy
from cmdpkit.samplepath import MAX_STEPS, SimulationReport, StepLimitError

ZERO = Fraction(0)

_SCALE_BITS = 64
_SCALE = 1 << _SCALE_BITS


def simulate(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int
) -> tuple[Trajectory, SimulationReport]:
    path, report = _walk(mdp, policy, x, steps, seed, record=True)
    trajectory = Trajectory(
        states=tuple(mdp.states[i] for i in path), horizon=steps, seed=seed
    )
    return trajectory, report


def simulation_report(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int
) -> SimulationReport:
    return _walk(mdp, policy, x, steps, seed, record=False)[1]


def _walk(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int, record: bool
) -> tuple[list[int] | None, SimulationReport]:
    """The walk behind ``simulate``; the state path is kept only if ``record``."""
    if steps < 1:
        raise InputError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise StepLimitError(f"steps {steps} exceed the limit of {MAX_STEPS}")
    validate_policy(mdp, policy)
    state = start = mdp.state_index(x)
    analysis = analyse_policy(mdp, policy)

    samplers: list[tuple[tuple[int, ...], list[int]]] = []
    for row in analysis.chain:
        cumulative = ZERO
        thresholds = []
        for _, p in row:
            cumulative += p
            thresholds.append((cumulative.numerator * _SCALE) // cumulative.denominator)
        samplers.append((tuple(j for j, _ in row), thresholds))

    rng = random.Random(seed)
    counts = [0] * mdp.num_states
    path: list[int] | None = [] if record else None
    for _ in range(steps - 1):
        if record:
            path.append(state)
        counts[state] += 1
        targets, thresholds = samplers[state]
        if len(targets) == 1:
            state = targets[0]
        else:
            state = targets[bisect_right(thresholds, rng.getrandbits(_SCALE_BITS))]
    if record:
        path.append(state)
    counts[state] += 1

    total_r = ZERO
    total_c = [ZERO] * mdp.constraint_dim
    for i, count in enumerate(counts):
        if count == 0:
            continue
        j = mdp.actions[i].index(policy.action_for(mdp.states[i]))
        total_r += count * mdp.rewards[i][j]
        for k in range(mdp.constraint_dim):
            total_c[k] += count * mdp.constraints[i][j][k]

    classes = analysis.decomposition.recurrent_classes
    absorbed = next((c for c, cls in enumerate(classes) if state in cls), None)
    if absorbed is None:
        absorbed_class = stationary = reward_gain = constraint_gain = None
    else:
        absorbed_class = tuple(mdp.states[s] for s in classes[absorbed])
        stationary = chains.stationary_distribution(analysis.chain, classes[absorbed])
        reward_gain = analysis.class_gains[absorbed].reward_gain
        constraint_gain = analysis.class_gains[absorbed].constraint_gain

    report = SimulationReport(
        seed=seed,
        steps=steps,
        start=x,
        visit_counts=tuple(counts),
        visit_frequency=tuple(Fraction(c, steps) for c in counts),
        empirical_V=total_r / steps,
        empirical_W=tuple(c / steps for c in total_c),
        absorbed_class=absorbed_class,
        absorbed_stationary=stationary,
        absorbed_reward_gain=reward_gain,
        absorbed_constraint_gain=constraint_gain,
        analytic_absorption=analysis.absorption[start],
    )
    return path, report
