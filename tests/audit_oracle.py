"""Re-solving reference for ``cmdpkit.residual.audit_time_consistency``.

This is the audit the package used before it answered every solve from one
``PolicyTable``. At each reachable (state, time) it re-runs a full solve of
the unmodified problem and of a residual model built with
``build_residual_problem``, takes the slack from one ``evaluate`` per
occupied state, and gets each time's distribution from a fresh
``state_distribution_at``. Its solver is a plain enumerate-evaluate-argmax
loop, so it shares no table or shift logic with the code under test.
Property tests require the two audits to agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

from cmdpkit import chains
from cmdpkit.certificate import Certificate, find_certificate
from cmdpkit.evaluation import evaluate
from cmdpkit.model import Mdp, Policy, induced_chain
from cmdpkit.residual import (
    AuditEntry,
    ConsistencyAuditReport,
    ResidualSpec,
    build_residual_problem,
)
from cmdpkit.solver import SolveResult, enumerate_policies

ZERO = Fraction(0)


def solve(mdp: Mdp, x: str | None = None) -> SolveResult:
    """Best feasible policy from x: first maximum of V(x) with W(x) >= 0."""
    start = mdp.initial_state if x is None else x
    best: Policy | None = None
    best_value: Fraction | None = None
    best_w: tuple[Fraction, ...] | None = None
    feasible = 0
    total = 0
    for policy in enumerate_policies(mdp):
        total += 1
        report = evaluate(mdp, policy, start)
        if any(w < 0 for w in report.W):
            continue
        feasible += 1
        if best_value is None or report.V > best_value:
            best, best_value, best_w = policy, report.V, report.W
    if best is None:
        return SolveResult(
            status="infeasible", policy=None, value=None, W_at_optimum=None,
            feasible_count=0, total_count=total,
        )
    return SolveResult(
        status="optimal", policy=best, value=best_value, W_at_optimum=best_w,
        feasible_count=feasible, total_count=total,
    )


def residual_slack(mdp: Mdp, policy: Policy, x: str, y: str, t: int) -> ResidualSpec:
    """Slack at y reached from x at time t, one evaluate per occupied state."""
    chain = induced_chain(mdp, policy)
    distribution = chains.state_distribution_at(chain, mdp.state_index(x), t)
    target = mdp.state_index(y)
    prob = distribution[target]
    slack = [ZERO] * mdp.constraint_dim
    for s, mass in enumerate(distribution):
        if mass == 0 or s == target:
            continue
        w = evaluate(mdp, policy, mdp.states[s]).W
        for k in range(mdp.constraint_dim):
            slack[k] -= mass * w[k]
    slack = [component / prob for component in slack]
    return ResidualSpec(source=x, target=y, time=t, prob_to=prob, slack=tuple(slack))


def _reachable_times(
    mdp: Mdp, chain, start: int, all_times: bool
) -> list[tuple[int, int]]:
    """(time, state index) pairs to audit, ordered by time then model order."""
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for t in range(mdp.num_states + 1):
        distribution = chains.state_distribution_at(chain, start, t)
        for s, mass in enumerate(distribution):
            if mass > 0 and (all_times or s not in seen):
                pairs.append((t, s))
                seen.add(s)
    return pairs


def audit_time_consistency(
    mdp: Mdp, x: str | None = None, all_times: bool = False
) -> ConsistencyAuditReport:
    """Audit the optimal policy at every reachable (state, time) by re-solving."""
    start_label = mdp.initial_state if x is None else x
    base = solve(mdp, start_label)
    if base.status != "optimal":
        raise ValueError(f"no feasible policy from {start_label!r}; nothing to audit")
    policy = base.policy

    cert = find_certificate(mdp, start_label, policy)
    cert_found = isinstance(cert, Certificate)

    chain = induced_chain(mdp, policy)
    start = mdp.state_index(start_label)
    entries: list[AuditEntry] = []
    for t, s in _reachable_times(mdp, chain, start, all_times):
        y = mdp.states[s]
        spec = residual_slack(mdp, policy, start_label, y, t)

        here = evaluate(mdp, policy, y)
        feasible_here = all(w >= 0 for w in here.W)
        unmodified = solve(mdp, y)
        consistent = unmodified.status != "optimal" or (
            feasible_here and unmodified.value == here.V
        )

        residual_mdp = build_residual_problem(mdp, spec)
        residual = solve(residual_mdp, y)
        shifted = evaluate(residual_mdp, policy, y)
        feasible_residual = all(w >= 0 for w in shifted.W)
        optimal_residual = (
            feasible_residual
            and residual.status == "optimal"
            and residual.value == shifted.V
        )

        if cert_found:
            predicted = cert.gain - sum(
                (m * c for m, c in zip(cert.mu, spec.slack)), ZERO
            )
            identity = "verified" if here.V == predicted else "failed"
        else:
            identity = "not-applicable-no-certificate"

        entries.append(AuditEntry(
            state=y,
            time=t,
            prob=spec.prob_to,
            slack=spec.slack,
            policy_value_here=here.V,
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
