"""Sample-path constraint semantics, per-subchain conversion, simulation.

A sample-path constraint must hold almost surely along trajectories. On a
finite chain the Cesaro limit of the running constraint average equals the
gain of the absorbing recurrent class, so a policy is sample-path feasible
exactly when every reachable class has nonnegative constraint gain.

For models whose recurrent-class structure is the same under every policy
(trans-policy decomposable), sample-path constraints convert to equivalent
expected constraints, one block per subchain; constraints are meaningfully
imposable only on classes whose absorption probability the decision maker
can influence, and the selective conversion keeps exactly those.

Each question makes one pass of its own over the policies, as the product
of the states' successor rows, and keeps nothing per policy;
``convert_classes`` converts any choice of classes.
``simulate`` walks at most ``MAX_STEPS`` steps. Once a walk enters a
recurrent class whose members each have one successor, a cycle the
policy's decomposition already lists, it goes round that cycle in closed
form instead of step by step.
"""

import itertools
from bisect import bisect_right
from fractions import Fraction
from random import Random
from typing import Iterable, Iterator, NamedTuple

from cmdpkit import chains
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import MAX_STEPS, Chain, InputError, Mdp, Policy, Trajectory, _check_cap

ZERO = Fraction(0)


class NotDecomposableError(ValueError):
    """The recurrent-class structure varies across policies."""


class SamplePathVerdict(NamedTuple):
    """Feasibility with probability one, with a failing class as witness."""

    feasible: bool
    witness_class: tuple[str, ...] | None
    witness_gain: tuple[Fraction, ...] | None


def samplepath_feasible(mdp: Mdp, policy: Policy, x: str) -> SamplePathVerdict:
    """Whether the running constraint average is almost surely nonnegative.

    Infeasible iff some recurrent class reachable from x under the policy
    has a constraint-gain component below zero; the first such class (in
    model order) is returned as witness.
    """
    for gain in analyse_policy(mdp, policy, x).class_gains:
        if any(g < 0 for g in gain.constraint_gain):
            return SamplePathVerdict(
                feasible=False,
                witness_class=gain.states,
                witness_gain=gain.constraint_gain,
            )
    return SamplePathVerdict(feasible=True, witness_class=None, witness_gain=None)


def _shared_chains(
    mdp: Mdp, union: chains.ChainDecomposition
) -> Iterator[tuple[Chain, chains.ChainDecomposition]]:
    """Each policy's chain and decomposition, in enumeration order.

    The chains are the product of the states' successor rows, in the order
    ``solver.enumerate_policies`` yields their policies, under the same cap
    on the full product; no ``Policy`` is built. A chain is yielded once
    its recurrent classes are checked to be the union's; the first that
    differs raises NotDecomposableError naming the states in which they
    differ.
    """
    _check_cap(map(len, mdp.actions))
    for chain in itertools.product(*mdp.successors):
        decomposition = chains.decompose(chain)
        classes = decomposition.recurrent_classes
        if classes != union.recurrent_classes:
            differing = sorted(set().union(*(set(union.recurrent_classes) ^ set(classes))))
            offenders = [mdp.states[s] for s in differing]
            raise NotDecomposableError(
                "recurrent-class structure varies with the policy; "
                f"offending states: {offenders}"
            )
        yield chain, decomposition


def trans_policy_decomposition(mdp: Mdp) -> chains.ChainDecomposition:
    """Shared class structure, or NotDecomposableError naming offenders.

    The union support graph over all actions must have the same closed-class
    partition (and the same transient set) as every single-policy chain;
    the first policy (in enumeration order) that differs names the error.
    Only each policy's chain is decomposed; nothing is solved.
    """
    union = chains.closed_classes(chains.union_adjacency(mdp))
    for _ in _shared_chains(mdp, union):
        pass
    return union


def convert_classes(mdp: Mdp, classes: tuple[tuple[int, ...], ...]) -> Mdp:
    """Expected-constraint model with one constraint block per given class.

    Component (i, j) of the new constraint at (s, a) is c_j(s, a) when s
    belongs to ``classes[i]`` (state indices) and zero otherwise. Kernel,
    rewards and hence all objective values are unchanged.
    """
    members = [set(cls) for cls in classes]
    n = mdp.constraint_dim
    constraints = tuple(
        tuple(
            tuple(cvec[j] if i in m else ZERO for m in members for j in range(n))
            for cvec in per_action
        )
        for i, per_action in enumerate(mdp.constraints)
    )
    return mdp._replace(constraints=constraints, constraint_dim=n * len(classes))


def convert_to_expected(mdp: Mdp, x: str) -> Mdp:
    """Equivalent expected-constraint model with one block per subchain.

    ``convert_classes`` over every class of the shared structure, so the
    constraint is zero at transient states.
    """
    mdp.state_index(x)
    return convert_classes(mdp, trans_policy_decomposition(mdp).recurrent_classes)


class ClassControl(NamedTuple):
    states: tuple[str, ...]
    min_prob: Fraction
    max_prob: Fraction

    @property
    def controllable(self) -> bool:
        return self.min_prob != self.max_prob


class ClassControllability(NamedTuple):
    """Absorption-probability range of each subchain across all policies.

    ``classes[c]`` belongs to ``structure.recurrent_classes[c]``, the class
    structure every policy shares.
    """

    classes: tuple[ClassControl, ...]
    structure: chains.ChainDecomposition

    @property
    def controllable_members(self) -> tuple[tuple[int, ...], ...]:
        """State indices of each controllable class, in structure order."""
        return tuple(
            members
            for members, control in zip(self.structure.recurrent_classes, self.classes)
            if control.controllable
        )


def controllable_classes(mdp: Mdp, x: str) -> ClassControllability:
    """Min and max absorption probability from x per class, over all policies.

    A class is controllable when the range is nondegenerate, i.e. some
    decision influences whether the process enters it. One pass over the
    policies checks the shared structure (NotDecomposableError as in
    ``trans_policy_decomposition``) and takes the ranges; each policy's
    absorption row is in structure order. Only decompositions and
    absorption are solved: no stationary vector is needed. The absorption
    is solved in integers, and only x's row becomes ``Fraction``s.
    """
    start = mdp.state_index(x)
    union = chains.closed_classes(chains.union_adjacency(mdp))
    classes = union.recurrent_classes
    lo: tuple[Fraction, ...] | None = None
    hi: tuple[Fraction, ...] | None = None
    for chain, decomposition in _shared_chains(mdp, union):
        numerators, d = chains._solve_along_dag(
            chain, classes, decomposition.transient_components, len(classes), {}
        )[start]
        row = tuple(Fraction(h, d) for h in numerators)
        lo = row if lo is None else tuple(map(min, lo, row))
        hi = row if hi is None else tuple(map(max, hi, row))
    return ClassControllability(
        classes=tuple(
            ClassControl(
                states=tuple(mdp.states[s] for s in cls), min_prob=low, max_prob=high,
            )
            for cls, low, high in zip(classes, lo, hi)
        ),
        structure=union,
    )


def selective_convert(mdp: Mdp, x: str) -> Mdp:
    """Per-subchain conversion restricted to controllable classes.

    With no controllable class the result is unconstrained (dimension 0).
    """
    return convert_classes(mdp, controllable_classes(mdp, x).controllable_members)


# ---------------------------------------------------------------------------
# Monte Carlo

class SimulationReport(NamedTuple):
    """Empirical averages and frequencies with their analytic counterparts.

    Frequencies are exact rationals count/steps, and the empirical V and W
    the run's averages: ``chains.gain`` of the visited states' one-step
    totals weighed by their visit counts. The analytic comparison
    gives the stationary distribution and gains of the class the run was
    absorbed into, plus the absorption probabilities from the start state.
    """

    seed: int
    steps: int
    start: str
    visit_counts: tuple[int, ...]
    visit_frequency: tuple[Fraction, ...]
    empirical_V: Fraction
    empirical_W: tuple[Fraction, ...]
    absorbed_class: tuple[str, ...] | None
    absorbed_stationary: tuple[Fraction, ...] | None
    absorbed_reward_gain: Fraction | None
    absorbed_constraint_gain: tuple[Fraction, ...] | None
    analytic_absorption: tuple[Fraction, ...]


class StepLimitError(InputError):
    """Raised when a walk asks for more than ``MAX_STEPS`` steps."""


_SCALE_BITS = 64
_SCALE = 1 << _SCALE_BITS


def simulate(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int
) -> tuple[Trajectory, SimulationReport]:
    """Seeded random walk of the policy-induced chain, X_0 .. X_{steps-1}.

    Randomness contract: the generator is Python's Mersenne Twister
    (``random.Random(seed)``); each stochastic transition consumes exactly
    one 64-bit draw and picks the successor by comparing the draw against
    floor(cumulative * 2**64) thresholds (quantization below 2**-64);
    deterministic transitions consume no randomness. Identical seeds
    therefore reproduce identical trajectories on every platform. Once the
    walk enters a recurrent class whose members each have one successor,
    that cycle is gone round in closed form; the deterministic steps
    before it are walked one by one and draw nothing either. Raises
    StepLimitError above ``MAX_STEPS``, before walking.
    """
    path, report = _walk(mdp, policy, x, steps, seed, record=True)
    trajectory = Trajectory(
        states=tuple(mdp.states[i] for i in path), horizon=steps, seed=seed
    )
    return trajectory, report


def simulation_report(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int
) -> SimulationReport:
    """The report of ``simulate`` for the same arguments, without the path.

    Visits are counted during the walk, so memory does not grow with steps.
    A walk that ends in a deterministic cycle goes round it in closed form.
    """
    return _walk(mdp, policy, x, steps, seed, record=False)[1]


def _walk(
    mdp: Mdp, policy: Policy, x: str, steps: int, seed: int, record: bool
) -> tuple[Iterable[int] | None, SimulationReport]:
    """The walk behind ``simulate``; the state path is kept only if ``record``.

    The walk goes one step at a time until it enters a recurrent class of
    the policy's decomposition whose members each have one successor, or
    until one state is left to visit. Such a class is a cycle that draws
    nothing; it is read off by following the rows from the entry state and
    gone round in closed form for the rest of the budget. The empirical V
    and W are ``chains.gain`` of ``chains.class_sums`` over the visited
    states, weighed by their visit counts: each step has T = 1, so the step
    sum is ``steps`` times the sums' scale. The analysis holds no
    stationary vectors: only the class the walk ends in gets one
    (``chains.stationary_distribution``), for the report.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise StepLimitError(f"steps {steps} exceed the limit of {MAX_STEPS}")
    analysis = analyse_policy(mdp, policy)
    state = start = mdp.state_index(x)

    samplers: list[tuple[tuple[int, ...], list[int]]] = []
    for row in analysis.chain:
        cumulative = ZERO
        thresholds = []
        for _, p in row:
            cumulative += p
            thresholds.append((cumulative.numerator * _SCALE) // cumulative.denominator)
        samplers.append((tuple(j for j, _ in row), thresholds))
    classes = analysis.decomposition.recurrent_classes
    cyclic = {
        s for cls in classes if all(len(analysis.chain[t]) == 1 for t in cls) for s in cls
    }

    rng = Random(seed)
    counts = [0] * mdp.num_states
    path = [] if record else None
    remaining = steps  # states still to visit, this one included
    while remaining > 1 and state not in cyclic:
        if record:
            path.append(state)
        counts[state] += 1
        remaining -= 1
        targets, thresholds = samplers[state]
        if len(targets) == 1:
            state = targets[0]
        else:
            state = targets[bisect_right(thresholds, rng.getrandbits(_SCALE_BITS))]

    # The rest goes round a cycle that draws nothing, or is this one state.
    cycle = [state]
    if state in cyclic:
        s = samplers[state][0][0]
        while s != state:
            cycle.append(s)
            s = samplers[s][0][0]
    laps, extra = divmod(remaining, len(cycle))
    for i, s in enumerate(cycle):
        counts[s] += laps + (i < extra)
    if record:  # the laps are chained lazily; simulate reads them once
        path = itertools.chain(path, itertools.islice(itertools.cycle(cycle), remaining))

    visited = [s for s, count in enumerate(counts) if count]
    empirical_v, empirical_w = chains.gain(chains.class_sums(
        [counts[s] for s in visited],
        [chains.step_totals(mdp, s, mdp.actions[s].index(policy.action_for(mdp.states[s])))
         for s in visited],
    ))

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
        empirical_V=empirical_v,
        empirical_W=empirical_w,
        absorbed_class=absorbed_class,
        absorbed_stationary=stationary,
        absorbed_reward_gain=reward_gain,
        absorbed_constraint_gain=constraint_gain,
        analytic_absorption=analysis.absorption_at(start),
    )
    return path, report
