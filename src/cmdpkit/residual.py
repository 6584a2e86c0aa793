"""Residual constraint slackness and time-consistency audits.

Moving from the start state x to a reachable state y consumes (or gains)
part of the constraint budget. The residual slackness quantifies that
exactly: it is the negated expected constraint value over the complementary
time-t event, rescaled by the odds of reaching y. The original policy is
feasible, and optimal under certificate hypotheses, for the shifted problem
that starts at y, in which every constraint vector is shifted by -slack.

The audit answers, at every reachable state y, both the unmodified problem
started at y and the shifted one, and reports where plain optimality
breaks. It walks the policies once: a ``PolicyTable`` over the states
reachable from the start holds V and W of every policy, and the shifted
problem needs no model of its own, because a uniform shift moves every W
by exactly -slack (stationary vectors and absorption rows each sum to 1)
and leaves V unchanged. So a policy is feasible in the shifted problem at
y exactly when W(y) - slack >= 0.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Callable, NamedTuple

from cmdpkit import chains
from cmdpkit.certificate import Certificate, find_certificate
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import InputError, Mdp, Policy, induced_chain
from cmdpkit.solver import PolicyTable, SolveResult, _best

ZERO = Fraction(0)


class UnreachableStateError(InputError):
    """Target state has probability zero at the requested time."""


class InfeasibleStartError(ValueError):
    """No policy is feasible at the start state; ``result`` says so."""

    def __init__(self, start: str, result: SolveResult):
        super().__init__(f"no feasible policy from {start!r}; nothing to audit")
        self.result = result


class ResidualSpec(NamedTuple):
    """Slack C consumed in moving from ``source`` to ``target`` at ``time``.

    Invariant (exact): W(source) = (W(target) - slack) * prob_to plus the
    contribution of the complementary time-t event.
    """

    source: str
    target: str
    time: int
    prob_to: Fraction
    slack: tuple[Fraction, ...]


def _slack(
    distribution: dict[int, Fraction],
    target: int,
    w_at: Callable[[int], tuple[Fraction, ...]],
    dim: int,
) -> tuple[Fraction, ...]:
    """-(sum over s != target of Pr{X_t = s} W(s)) / Pr{X_t = target}."""
    slack = [ZERO] * dim
    for s, mass in distribution.items():
        if s == target:
            continue
        w = w_at(s)
        for k in range(dim):
            slack[k] -= mass * w[k]
    prob = distribution[target]
    return tuple(component / prob for component in slack)


def residual_slack(
    mdp: Mdp, policy: Policy, x: str, y: str, t: int | None = None
) -> ResidualSpec:
    """Exact residual slackness of the constraint at y, reached from x at t.

    With ``t=None`` the smallest time with positive reaching probability is
    used. Raises UnreachableStateError when that probability is zero; the
    computation never divides by zero.
    """
    chain = induced_chain(mdp, policy)
    start = mdp.state_index(x)
    target = mdp.state_index(y)

    if t is None:
        sweep = chains.forward_distributions(chain, start, mdp.num_states)
        found = next(
            ((step, d) for step, d in enumerate(sweep) if target in d), None
        )
        if found is None:
            raise UnreachableStateError(
                f"state {y!r} is not reachable from {x!r} under the policy"
            )
        t, distribution = found
    else:
        dense = chains.state_distribution_at(chain, start, t)
        distribution = {s: mass for s, mass in enumerate(dense) if mass}
        if target not in distribution:
            raise UnreachableStateError(
                f"state {y!r} has probability zero at time {t} from {x!r}"
            )

    analysis = analyse_policy(mdp, policy)
    slack = _slack(
        distribution, target, lambda s: analysis.values_at(s)[1], mdp.constraint_dim
    )
    return ResidualSpec(
        source=x, target=y, time=t, prob_to=distribution[target], slack=slack
    )


def build_residual_problem(mdp: Mdp, spec: ResidualSpec) -> Mdp:
    """Same model with every constraint vector shifted by -slack, started at y.

    Kernel and rewards are untouched; the shift applies uniformly to every
    state and action. Solving needs no such model (``PolicyTable.solve``
    takes the slack); this is the shifted problem as a model of its own.
    """
    shifted = tuple(
        tuple(
            tuple(c - d for c, d in zip(cvec, spec.slack))
            for cvec in per_action
        )
        for per_action in mdp.constraints
    )
    return replace(mdp, constraints=shifted, initial_state=spec.target)


class AuditEntry(NamedTuple):
    """Audit of one reachable (state, time) pair.

    ``consistent`` captures decision regret: it is False exactly when the
    *unmodified* problem restarted at this state admits a feasible policy
    doing strictly better than the audited one (or is feasible while the
    audited policy is not). When the unmodified problem is infeasible there
    is no better decision to regret and the entry is vacuously consistent.
    The residual fields describe the shifted problem, for which feasibility
    of the audited policy always transfers.
    """

    state: str
    time: int
    prob: Fraction
    slack: tuple[Fraction, ...]
    policy_value_here: Fraction
    policy_feasible_here: bool
    unmodified_status: str
    unmodified_value: Fraction | None
    unmodified_policy: Policy | None
    consistent: bool
    residual_status: str
    residual_value: Fraction | None
    residual_policy: Policy | None
    policy_feasible_residual: bool
    policy_optimal_residual: bool
    identity: str  # "verified" | "failed" | "not-applicable-no-certificate"


class ConsistencyAuditReport(NamedTuple):
    start: str
    policy: Policy
    value: Fraction
    certificate_status: str  # "found" | "unsat"
    mu: tuple[Fraction, ...] | None
    entries: tuple[AuditEntry, ...]

    @property
    def consistent(self) -> bool:
        return all(entry.consistent for entry in self.entries)


def audit_time_consistency(
    mdp: Mdp, x: str | None = None, all_times: bool = False
) -> ConsistencyAuditReport:
    """Audit the solver's optimal policy at every reachable (state, time).

    By default each reachable state is audited at its smallest reaching
    time; ``all_times=True`` audits every time up to the state count. The
    certificate value identity V(y) = gain - mu . C_y(x) is checked only
    when a certificate exists at x; otherwise it is reported as
    not-applicable and residual optimality is still re-verified directly.
    Raises InfeasibleStartError when no policy is feasible at x.
    """
    start_label = mdp.initial_state if x is None else x
    table = PolicyTable(mdp, chains.reachable_states(mdp, None, start_label))
    base, row = _best(table.rows, table.column(start_label))
    if row is None:
        raise InfeasibleStartError(start_label, base)
    policy = row.policy

    def w_at(s: int) -> tuple[Fraction, ...]:
        return row.W[table.column(mdp.states[s])]

    cert = find_certificate(mdp, start_label, policy)
    cert_found = isinstance(cert, Certificate)

    chain = induced_chain(mdp, policy)
    start = mdp.state_index(start_label)
    sweep = chains.forward_distributions(chain, start, mdp.num_states)
    seen: set[int] = set()
    entries: list[AuditEntry] = []
    for t, distribution in enumerate(sweep):
        for s in sorted(distribution):
            if s in seen and not all_times:
                continue
            seen.add(s)
            y = mdp.states[s]
            slack = _slack(distribution, s, w_at, mdp.constraint_dim)

            value_here = row.V[table.column(y)]
            feasible_here = all(w >= 0 for w in w_at(s))
            unmodified = table.solve(y)
            consistent = unmodified.status != "optimal" or (
                feasible_here and unmodified.value == value_here
            )

            residual = table.solve(y, slack)
            feasible_residual = all(w >= c for w, c in zip(w_at(s), slack))
            optimal_residual = (
                feasible_residual
                and residual.status == "optimal"
                and residual.value == value_here
            )

            if cert_found:
                predicted = cert.gain - sum(
                    (m * c for m, c in zip(cert.mu, slack)), ZERO
                )
                identity = "verified" if value_here == predicted else "failed"
            else:
                identity = "not-applicable-no-certificate"

            entries.append(AuditEntry(
                state=y,
                time=t,
                prob=distribution[s],
                slack=slack,
                policy_value_here=value_here,
                policy_feasible_here=feasible_here,
                unmodified_status=unmodified.status,
                unmodified_value=unmodified.value,
                unmodified_policy=unmodified.policy,
                consistent=consistent,
                residual_status=residual.status,
                residual_value=residual.value,
                residual_policy=residual.policy,
                policy_feasible_residual=feasible_residual,
                policy_optimal_residual=optimal_residual,
                identity=identity,
            ))

    return ConsistencyAuditReport(
        start=start_label,
        policy=policy,
        value=base.value,
        certificate_status="found" if cert_found else "unsat",
        mu=cert.mu if cert_found else None,
        entries=tuple(entries),
    )
