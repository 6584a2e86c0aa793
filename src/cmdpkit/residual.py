"""Residual constraint slackness and time-consistency audits.

Moving from the start state x to a reachable state y consumes (or gains)
part of the constraint budget. The residual slackness C_y(x) quantifies
that exactly, and has a closed form: C_y(x) = W(y) - W(x) / Pr{X_t = y}.
It holds because a stationary policy's gain is harmonic. The Cesaro limit
P* of a stochastic matrix P satisfies P P* = P*, so W = P* c satisfies
P^t W = W: the time-t distribution from x mixes W back to W(x). The
slack is the part of that mix outside y, negated and divided by
Pr{X_t = y}.
So two states' W and one reaching probability give C_y(x); the forward
sweep supplies only the probability and the support.

The residual problem starts at y with every constraint vector shifted by
-slack (``build_residual_problem``). The audited policy's W there is
W(y) - C_y(x) = W(x) / Pr{X_t = y}, so it is feasible in the residual
problem exactly when it is feasible at x; it is optimal there under
certificate hypotheses.

The audit answers, at every reachable state y, both the unmodified problem
started at y and the shifted one, and reports where plain optimality
breaks. It asks two solves per entry, so it walks the policies once: a
``PolicyTable`` over the states reachable from the start holds V and W of
every policy, and the shifted problem needs no model of its own, because a
uniform shift moves every W by exactly -slack (stationary vectors and
absorption rows each sum to 1) and leaves V unchanged. So a policy is
feasible in the shifted problem at y exactly when W(y) - slack >= 0.
"""

from fractions import Fraction
from typing import NamedTuple

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

    Invariant (exact): (W(target) - slack) * prob_to = W(source).
    """

    source: str
    target: str
    time: int
    prob_to: Fraction
    slack: tuple[Fraction, ...]


def _slack(
    w_target: tuple[Fraction, ...], w_start: tuple[Fraction, ...], prob: Fraction
) -> tuple[Fraction, ...]:
    """C_y(x) = W(y) - W(x) / Pr{X_t = y}, from W at y and at x."""
    return tuple(w - c / prob for w, c in zip(w_target, w_start))


def residual_slack(
    mdp: Mdp, policy: Policy, x: str, y: str, t: int | None = None
) -> ResidualSpec:
    """Exact residual slackness of the constraint at y, reached from x at t.

    With ``t=None`` the smallest time with positive reaching probability is
    used. Raises UnreachableStateError when that probability is zero; the
    computation never divides by zero.
    """
    analysis = analyse_policy(mdp, policy, x)
    chain = analysis.chain
    start = mdp.state_index(x)
    target = mdp.state_index(y)

    if t is None:
        sweep = chains.forward_distributions(chain, start, mdp.num_states)
        found = next(
            ((step, d[target]) for step, d in enumerate(sweep) if target in d), None
        )
        if found is None:
            raise UnreachableStateError(
                f"state {y!r} is not reachable from {x!r} under the policy"
            )
        t, prob = found
    else:
        prob = chains.state_distribution_at(chain, start, t)[target]
        if not prob:
            raise UnreachableStateError(
                f"state {y!r} has probability zero at time {t} from {x!r}"
            )

    slack = _slack(analysis.values_at(target)[1], analysis.values_at(start)[1], prob)
    return ResidualSpec(source=x, target=y, time=t, prob_to=prob, slack=slack)


def build_residual_problem(mdp: Mdp, spec: ResidualSpec) -> Mdp:
    """Same model with every constraint vector shifted by -slack, started at y.

    Kernel and rewards are untouched; the shift applies uniformly to every
    state and action. ``solve(shifted, spec.target)`` is the residual
    problem's optimum; the audit, which asks it at many states, takes the
    same answer from ``PolicyTable.solve`` with the slack instead.
    """
    shifted = tuple(
        tuple(
            tuple(c - d for c, d in zip(cvec, spec.slack))
            for cvec in per_action
        )
        for per_action in mdp.constraints
    )
    return mdp._replace(constraints=shifted, initial_state=spec.target)


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
    base, row = _best(table.rows, table.column(start_label), None, table.policy)
    if row is None:
        raise InfeasibleStartError(start_label, base)
    policy = base.policy
    values = [chains.gain(mix) for mix in row.values]
    w_start = values[table.column(start_label)][1]

    cert = find_certificate(mdp, start_label, policy)
    cert_found = isinstance(cert, Certificate)

    chain = induced_chain(mdp, policy)
    start = mdp.state_index(start_label)
    sweep = chains.forward_distributions(chain, start, mdp.num_states)
    seen: set[int] = set()
    # The unmodified answer at a state does not depend on the time.
    unmodified_at: dict[int, SolveResult] = {}
    entries: list[AuditEntry] = []
    for t, distribution in enumerate(sweep):
        # The support at t + 1 is the successors of the support at t, so
        # once a time adds no state, no later time can.
        if not all_times and seen.issuperset(distribution):
            break
        for s in sorted(distribution):
            if s in seen and not all_times:
                continue
            seen.add(s)
            y = mdp.states[s]
            value_here, w_here = values[table.column(y)]
            slack = _slack(w_here, w_start, distribution[s])
            feasible_here = all(w >= 0 for w in w_here)
            if s not in unmodified_at:
                unmodified_at[s] = table.solve(y)
            unmodified = unmodified_at[s]
            consistent = unmodified.status != "optimal" or (
                feasible_here and unmodified.value == value_here
            )

            residual = table.solve(y, slack)
            feasible_residual = all(w >= c for w, c in zip(w_here, slack))
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
