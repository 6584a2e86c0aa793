"""Optimality certificates: verification and exact search.

A certificate (mu, gain, potential) witnesses optimality of a policy from a
fixed start state through five conditions:

  A1  the policy is feasible at the start state,
  A2  the multiplier vector is nonnegative,
  A3  complementary slackness: mu . W = 0,
  A4  a single-gain Bellman equation in the Lagrangian reward
      r(s,a) + mu . c(s,a) holds at every state reachable under the policy,
  A5  the policy attains the max in A4 at every such state.

The search solves an exact feasibility program: multipliers are forced to
zero on strictly slack components (which linearizes A3 exactly), the gain
and the potential are free, and the Bellman rows are imposed over the
whole all-policies reachable closure of the start state, with equality at
the chosen action of states the policy itself reaches and as inequalities
everywhere else. The closure-wide inequalities are what make a found
certificate a genuine optimality proof: every competing feasible policy
walks inside the closure, so its Lagrangian value telescopes below the
certified gain. Certificates are not unique; callers should only rely on
verdicts, the gain value and residuals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from cmdpkit import chains, lp
from cmdpkit.evaluation import ClassGain, analyse_policy, evaluate
from cmdpkit.model import InputError, Mdp, Policy, validate_policy
from cmdpkit.solver import EnumerationCapExceeded

ZERO = Fraction(0)

# Largest all-policies closure the search builds a Bellman program over.
CLOSURE_CAP = 10_000


class MissingPotentialError(InputError, KeyError):
    """The supplied potential lacks a value at a state the check needs."""


class CertificateSearchError(RuntimeError):
    """Internal failure: a certificate the search found fails its own check."""


class Certificate(NamedTuple):
    """Witness (mu, gain, potential) for conditions A1-A5.

    ``potential`` is total on the all-policies reachable closure of the
    start state; states outside the closure are implicitly zero.
    """

    mu: tuple[Fraction, ...]
    gain: Fraction
    potential: dict[str, Fraction]


class CertificateReport(NamedTuple):
    """Per-condition verdicts plus the Bellman slack of every state-action pair.

    ``bellman_residuals[(s, a)]`` is (gain + L(s)) minus the Lagrangian
    one-step value of action a at s; A4 holds at s when the minimum over
    actions is exactly zero, A5 when the chosen action attains it.
    """

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    bellman_residuals: dict[tuple[str, str], Fraction]
    verdict: str
    first_failure: str | None


class CertificateUnsat(NamedTuple):
    """Negative search outcome with the evidence that rules a certificate out.

    ``stage`` is "feasibility" when A1 already fails, "class-gains" when the
    per-class Lagrangian gain equations admit no nonnegative multiplier
    (``conflict`` then names the first contradictory pair of classes), and
    "bellman" when only the full linear program is infeasible.
    ``class_equations`` holds the gains of the classes reachable from the
    start; a certificate needs gain = reward_gain + mu . constraint_gain
    for each.
    """

    stage: str
    reason: str
    W: tuple[Fraction, ...]
    class_equations: tuple[ClassGain, ...]
    conflict: tuple[int, int] | None


def _required_states(mdp: Mdp, reachable: tuple[str, ...]) -> list[str]:
    """Reachable states plus every one-step target under any of their actions."""
    seen = dict.fromkeys(reachable)
    for state in reachable:
        i = mdp.state_index(state)
        for row in mdp.successors[i]:
            for j, _ in row:
                seen.setdefault(mdp.states[j])
    return list(seen)


def _one_step_gap(
    mdp: Mdp,
    cert: Certificate,
    potential: dict[str, Fraction],
    state: str,
    action_index: int,
) -> Fraction:
    i = mdp.state_index(state)
    value = mdp.rewards[i][action_index]
    for mu_k, c_k in zip(cert.mu, mdp.constraints[i][action_index]):
        value += mu_k * c_k
    for j, p in mdp.successors[i][action_index]:
        value += p * potential[mdp.states[j]]
    return cert.gain + potential[state] - value


def check_certificate(
    mdp: Mdp, x: str, policy: Policy, cert: Certificate
) -> CertificateReport:
    """Verify conditions A1-A5 exactly and report every Bellman residual."""
    validate_policy(mdp, policy)
    if len(cert.mu) != mdp.constraint_dim:
        raise InputError(
            f"multiplier has length {len(cert.mu)}, "
            f"model constraint_dim is {mdp.constraint_dim}"
        )
    return _check(
        mdp, policy, cert, evaluate(mdp, policy, x).W,
        chains.reachable_states(mdp, policy, x),
    )


def _check(
    mdp: Mdp,
    policy: Policy,
    cert: Certificate,
    w: tuple[Fraction, ...],
    reachable: tuple[str, ...],
) -> CertificateReport:
    """check_certificate given the policy's W(x) and its states reachable from x."""
    a1 = all(c >= 0 for c in w)
    a2 = all(m >= 0 for m in cert.mu)
    a3 = sum((m * c for m, c in zip(cert.mu, w)), ZERO) == 0

    potential = dict(cert.potential)
    missing = [s for s in _required_states(mdp, reachable) if s not in potential]
    if missing:
        raise MissingPotentialError(
            f"potential missing required states: {missing}"
        )

    residuals: dict[tuple[str, str], Fraction] = {}
    a4 = True
    a5 = True
    for state in reachable:
        i = mdp.state_index(state)
        gaps = []
        for j, action in enumerate(mdp.actions[i]):
            gap = _one_step_gap(mdp, cert, potential, state, j)
            residuals[(state, action)] = gap
            gaps.append(gap)
        if min(gaps) != 0:
            a4 = False
        if residuals[(state, policy.action_for(state))] != 0:
            a5 = False

    flags = {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5}
    first_failure = next((name for name, ok in flags.items() if not ok), None)
    return CertificateReport(
        a1=a1, a2=a2, a3=a3, a4=a4, a5=a5,
        bellman_residuals=residuals,
        verdict="pass" if first_failure is None else "fail",
        first_failure=first_failure,
    )


def _class_system_feasible(
    equations: tuple[ClassGain, ...], free_mu: list[int]
) -> bool:
    # Variables: mu components that A3 leaves free, then the shared gain.
    gain_var = len(free_mu)
    constraints = [
        lp.LinearConstraint.of(
            {gain_var: Fraction(1)}
            | {k: -eq.constraint_gain[i] for k, i in enumerate(free_mu)},
            lp.EQ,
            eq.reward_gain,
        )
        for eq in equations
    ]
    point = lp.find_feasible_point(
        num_vars=len(free_mu) + 1,
        constraints=constraints,
        nonnegative=set(range(len(free_mu))),
    )
    return point is not None


def find_certificate(
    mdp: Mdp, x: str, policy: Policy
) -> Certificate | CertificateUnsat:
    """Search for a certificate; every returned one passes check_certificate.

    Returns CertificateUnsat when the program has no witness: either the
    policy is infeasible at x, or the classes it reaches would need
    distinct Lagrangian gains, or the closure-wide Bellman feasibility
    program has no solution. Raises CertificateSearchError if a found
    certificate fails the check, which only a defect in the search can cause.
    """
    validate_policy(mdp, policy)
    analysis = analyse_policy(mdp, policy)
    start = mdp.state_index(x)
    _, w = analysis.values_at(start)
    equations = tuple(
        gain
        for prob, gain in zip(analysis.absorption[start], analysis.class_gains)
        if prob > 0
    )
    if any(c < 0 for c in w):
        return CertificateUnsat(
            stage="feasibility",
            reason="policy violates the constraint at the start state (A1)",
            W=w,
            class_equations=equations,
            conflict=None,
        )

    closure = chains.reachable_states(mdp, None, x)
    if len(closure) > CLOSURE_CAP:
        raise EnumerationCapExceeded(
            f"reachable closure has {len(closure)} states, cap is {CLOSURE_CAP}"
        )

    free_mu = [i for i, c in enumerate(w) if c == 0]
    if not _class_system_feasible(equations, free_mu):
        conflict = None
        for a in range(len(equations)):
            for b in range(a + 1, len(equations)):
                if not _class_system_feasible(
                    (equations[a], equations[b]), free_mu
                ):
                    conflict = (a, b)
                    break
            if conflict:
                break
        return CertificateUnsat(
            stage="class-gains",
            reason=(
                "reachable recurrent classes admit no common Lagrangian gain "
                "with nonnegative multipliers"
            ),
            W=w,
            class_equations=equations,
            conflict=conflict,
        )

    # The closure is closed under every action, so it is exactly the
    # domain the Bellman rows need.
    reachable = chains.reachable_states(mdp, policy, x)
    reached = set(reachable)
    var_of_state = {s: len(free_mu) + 1 + k for k, s in enumerate(closure)}
    gain_var = len(free_mu)
    num_vars = len(free_mu) + 1 + len(closure)

    constraints = []
    for state in closure:
        i = mdp.state_index(state)
        chosen = policy.action_for(state)
        for j, action in enumerate(mdp.actions[i]):
            coeffs: dict[int, Fraction] = {gain_var: Fraction(1)}
            coeffs[var_of_state[state]] = coeffs.get(var_of_state[state], ZERO) + 1
            for target, p in mdp.successors[i][j]:
                v = var_of_state[mdp.states[target]]
                coeffs[v] = coeffs.get(v, ZERO) - p
            for k, comp in enumerate(free_mu):
                coeffs[k] = coeffs.get(k, ZERO) - mdp.constraints[i][j][comp]
            sense = lp.EQ if (state in reached and action == chosen) else lp.GE
            constraints.append(
                lp.LinearConstraint.of(coeffs, sense, mdp.rewards[i][j])
            )

    point = lp.find_feasible_point(
        num_vars=num_vars,
        constraints=constraints,
        nonnegative=set(range(len(free_mu))),
    )
    if point is None:
        return CertificateUnsat(
            stage="bellman",
            reason="the closure-wide Bellman feasibility program is infeasible",
            W=w,
            class_equations=equations,
            conflict=None,
        )

    mu = [ZERO] * mdp.constraint_dim
    for k, comp in enumerate(free_mu):
        mu[comp] = point[k]
    potential = {s: point[var_of_state[s]] for s in closure}
    cert = Certificate(mu=tuple(mu), gain=point[gain_var], potential=potential)

    verification = _check(mdp, policy, cert, w, reachable)
    if verification.verdict != "pass":
        raise CertificateSearchError(
            f"searched certificate fails {verification.first_failure}"
        )
    return cert
