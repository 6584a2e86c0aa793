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
everywhere else. Each row is read off the model's numerators and
denominators as integers over one scale, the form ``lp.find_feasible_point``
takes, so no Fraction is built before the simplex returns its point; the
policy is analysed over the start's reach alone (``evaluation.analyse_policy``
with x), which gives W, the class equations and the states the policy
reaches. The check evaluates the same rows, built over the policy's reach,
at the certificate's point brought over one integer scale. The
closure-wide inequalities are what make a found certificate a genuine
optimality proof: every competing feasible policy walks inside the
closure, so its Lagrangian value telescopes below the certified gain.
Certificates are not unique; callers should only rely on verdicts, the
gain value and residuals.
"""

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Container, Iterable, NamedTuple, Sequence

from cmdpkit import chains, lp
from cmdpkit.evaluation import ClassGain, analyse_policy
from cmdpkit.model import InputError, Mdp, Policy, validate_policy
from cmdpkit.solver import EnumerationCapExceeded

ZERO = Fraction(0)
ONE = Fraction(1)

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


def check_certificate(
    mdp: Mdp, x: str, policy: Policy, cert: Certificate
) -> CertificateReport:
    """Verify A1-A5 exactly, for rational values only, and report every Bellman residual."""
    validate_policy(mdp, policy)
    if len(cert.mu) != mdp.constraint_dim:
        raise InputError(
            f"multiplier has length {len(cert.mu)}, "
            f"model constraint_dim is {mdp.constraint_dim}"
        )
    for field, values in (
        ("mu", cert.mu), ("gain", (cert.gain,)), ("potential", cert.potential.values())
    ):
        for value in values:
            if not isinstance(value, Rational):
                raise InputError(f"certificate {field} value {value!r} is not rational")
    analysis = analyse_policy(mdp, policy, x)
    w = analysis.values_at(mdp.state_index(x))[1]
    return _check(mdp, policy, cert, w, tuple(mdp.states[s] for s in analysis.reach))


def _check(
    mdp: Mdp,
    policy: Policy,
    cert: Certificate,
    w: tuple[Fraction, ...],
    reachable: tuple[str, ...],
) -> CertificateReport:
    """check_certificate given the policy's W(x) and its states reachable from x.

    Each residual is the Bellman row ``_bellman_rows`` builds at a
    reachable state, evaluated at the point (mu, gain, L) brought over the
    lcm of its denominators: one ``Fraction`` per residual.
    """
    a1 = all(c >= 0 for c in w)
    a2 = all(m >= 0 for m in cert.mu)
    a3 = sum((m * c for m, c in zip(cert.mu, w)), ZERO) == 0

    required = _required_states(mdp, reachable)
    missing = [s for s in required if s not in cert.potential]
    if missing:
        raise MissingPotentialError(
            f"potential missing required states: {missing}"
        )

    point = [*cert.mu, cert.gain, *(cert.potential[s] for s in required)]
    scale = lcm(*(v.denominator for v in point))
    scaled = [v.numerator * (scale // v.denominator) for v in point]
    rows = _bellman_rows(
        mdp, policy, required, reachable, set(reachable), range(mdp.constraint_dim)
    )
    actions = {state: mdp.actions[mdp.state_index(state)] for state in reachable}
    pairs = [(state, action) for state in reachable for action in actions[state]]
    residuals = {
        pair: Fraction(sum(c * scaled[k] for k, c in coeffs.items()) - rhs * scale, d * scale)
        for pair, (coeffs, _, rhs, d) in zip(pairs, rows)
    }
    a4 = all(min(residuals[(s, a)] for a in actions[s]) == 0 for s in reachable)
    a5 = all(residuals[(s, policy.action_for(s))] == 0 for s in reachable)

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
        lp.from_rationals(
            {gain_var: ONE} | {k: -eq.constraint_gain[i] for k, i in enumerate(free_mu)},
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


def _bellman_rows(
    mdp: Mdp,
    policy: Policy,
    potential: Sequence[str],
    states: Iterable[str],
    reached: Container[str],
    mu: Sequence[int],
) -> list[lp.Constraint]:
    """Rows gain + L(s) - sum_t p(t) L(t) - mu . c(s, a) >= r(s, a); = at reached choices.

    One row per action of each of ``states``, in order. Columns: the
    components ``mu`` of the multiplier, gain, then L on ``potential``,
    which must hold every state those actions reach. Entries are read off
    the model: -p, -c, and 1 - p at a self-loop, as integers over the lcm d
    of the row's p, c and r denominators (the ``lp.Constraint`` form); a
    zero entry is not stored.
    """
    gain_var = len(mu)
    column = {mdp.state_index(s): gain_var + 1 + k for k, s in enumerate(potential)}
    rows = []
    for state in states:
        i = mdp.state_index(state)
        own = column[i]
        chosen = policy.action_for(state) if state in reached else None
        for j, action in enumerate(mdp.actions[i]):
            successors = mdp.successors[i][j]
            costs = [mdp.constraints[i][j][comp] for comp in mu]
            reward = mdp.rewards[i][j]
            d = lcm(reward.denominator, *(p.denominator for _, p in successors),
                    *(c.denominator for c in costs))
            coeffs = {k: -c.numerator * (d // c.denominator) for k, c in enumerate(costs) if c}
            coeffs[gain_var] = coeffs[own] = d
            for target, p in successors:
                x = p.numerator * (d // p.denominator)
                if target != i:
                    coeffs[column[target]] = -x
                elif x == d:
                    del coeffs[own]
                else:
                    coeffs[own] = d - x
            sense = lp.EQ if action == chosen else lp.GE
            rows.append((coeffs, sense, reward.numerator * (d // reward.denominator), d))
    return rows


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
    analysis = analyse_policy(mdp, policy, x)
    w = analysis.values_at(mdp.state_index(x))[1]
    equations = analysis.class_gains
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

    reachable = tuple(mdp.states[s] for s in analysis.reach)
    gain_var = len(free_mu)
    point = lp.find_feasible_point(
        num_vars=gain_var + 1 + len(closure),
        constraints=_bellman_rows(mdp, policy, closure, closure, set(reachable), free_mu),
        nonnegative=set(range(gain_var)),
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
    potential = dict(zip(closure, point[gain_var + 1:]))
    cert = Certificate(mu=tuple(mu), gain=point[gain_var], potential=potential)

    verification = _check(mdp, policy, cert, w, reachable)
    if verification.verdict != "pass":
        raise CertificateSearchError(
            f"searched certificate fails {verification.first_failure}"
        )
    return cert
