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
everywhere else. The policy is analysed over the start's reach alone
(``evaluation.analyse_policy`` with x), which gives W, the class sums and
the states the policy reaches. The closure (``chains._closure``) and the
reach stay state indices; labels appear only as the keys of the returned
potential. Every row is integers over one positive scale, the form
``lp.find_feasible_point`` takes: a class's gain row is T gain - C . mu = R
over the class's integer ``[R, *C, T]`` sums, and a Bellman row is read off
the model's numerators and denominators. The program is built once, and
no Fraction is built for it. The search then evaluates that same row list
at the point the simplex returned, in integers, and raises
CertificateSearchError unless mu >= 0 (A2), mu is 0 wherever W is not
(A3), every inequality row is >= 0 (A4) and every equality row is 0 (A5).
``check_certificate`` evaluates the rows built over the policy's reach at
the certificate's point the same way, with one Fraction per residual. The
closure-wide inequalities are what make a found certificate a genuine
optimality proof: every competing feasible policy walks inside the
closure, so its Lagrangian value telescopes below the certified gain.
Certificates are not unique; callers should only rely on verdicts, the
gain value and residuals.
"""

import itertools
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Container, Iterable, NamedTuple, Sequence

from cmdpkit import chains, lp
from cmdpkit.evaluation import ClassGain, analyse_policy
from cmdpkit.model import EnumerationCapExceeded, InputError, Mdp, Policy, validate_policy

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


def check_certificate(
    mdp: Mdp, x: str, policy: Policy, cert: Certificate
) -> CertificateReport:
    """Verify A1-A5 exactly, for rational values only, and report every Bellman residual.

    Each residual is the Bellman row ``_bellman_rows`` builds at a state of
    the policy's reach, with L on the reach and every one-step target of
    its actions, evaluated at the certificate's point by ``_values``: one
    ``Fraction`` per residual.
    """
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
    reach = analysis.reach
    required = list(dict.fromkeys(
        [*reach, *(j for i in reach for row in mdp.successors[i] for j, _ in row)]
    ))
    missing = [mdp.states[s] for s in required if mdp.states[s] not in cert.potential]
    if missing:
        raise MissingPotentialError(
            f"potential missing required states: {missing}"
        )

    rows = _bellman_rows(mdp, policy, required, reach, set(reach), range(mdp.constraint_dim))
    scale, values = _values(
        rows, [*cert.mu, cert.gain, *(cert.potential[mdp.states[s]] for s in required)]
    )
    pairs = [(mdp.states[i], action) for i in reach for action in mdp.actions[i]]
    residuals = {
        pair: Fraction(value, d * scale)
        for pair, value, (_, _, _, d) in zip(pairs, values, rows)
    }
    a1 = all(c >= 0 for c in w)
    a2 = all(m >= 0 for m in cert.mu)
    a3 = sum((m * c for m, c in zip(cert.mu, w)), ZERO) == 0
    a4 = all(min(residuals[(mdp.states[i], a)] for a in mdp.actions[i]) == 0 for i in reach)
    a5 = all(value == 0 for value, (_, sense, _, _) in zip(values, rows) if sense == lp.EQ)

    flags = {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5}
    first_failure = next((name for name, ok in flags.items() if not ok), None)
    return CertificateReport(
        a1=a1, a2=a2, a3=a3, a4=a4, a5=a5,
        bellman_residuals=residuals,
        verdict="pass" if first_failure is None else "fail",
        first_failure=first_failure,
    )


def _values(rows: Sequence[lp.Constraint], point: Sequence[Rational]) -> tuple[int, list[int]]:
    """The scale s the point is brought over, and each row's integer residual at it.

    s is the lcm of the point's denominators; row r's residual, its left
    side minus its right, is the integer here over d_r * s, where d_r is
    the row's own scale. No ``Fraction`` is built.
    """
    scale = lcm(*(v.denominator for v in point))
    scaled = [v.numerator * (scale // v.denominator) for v in point]
    return scale, [
        sum(c * scaled[k] for k, c in coeffs.items()) - rhs * scale for coeffs, _, rhs, _ in rows
    ]


def _class_system_feasible(sums: Sequence[Sequence[int]], free_mu: list[int]) -> bool:
    """Whether one gain and mu >= 0 on ``free_mu`` meet every class's gain equation.

    ``sums`` are classes' integer ``[R, *C, T]`` ``class_sums``. The row of
    one class is T gain - C . mu = R over the scale T: gain = R/T + mu . C/T,
    its Lagrangian gain.
    """
    # Variables: mu components that A3 leaves free, then the shared gain.
    gain_var = len(free_mu)
    rows = [
        ({gain_var: s[-1]} | {k: -s[1 + i] for k, i in enumerate(free_mu)}, lp.EQ, s[0], s[-1])
        for s in sums
    ]
    return lp.find_feasible_point(gain_var + 1, rows, set(range(gain_var))) is not None


def _bellman_rows(
    mdp: Mdp,
    policy: Policy,
    potential: Sequence[int],
    states: Iterable[int],
    reached: Container[int],
    mu: Sequence[int],
) -> list[lp.Constraint]:
    """Rows gain + L(s) - sum_t p(t) L(t) - mu . c(s, a) >= r(s, a); = at reached choices.

    One row per action of each of ``states``, in order. Columns: the
    components ``mu`` of the multiplier, gain, then L on ``potential``,
    which must hold every state those actions reach. States are indices.
    Entries are read off the model: -p, -c, and 1 - p at a self-loop, as
    integers over the lcm d of the row's p, c and r denominators (the
    ``lp.Constraint`` form); a zero entry is not stored.
    """
    gain_var = len(mu)
    column = {s: gain_var + 1 + k for k, s in enumerate(potential)}
    rows = []
    for i in states:
        own = column[i]
        chosen = policy.action_for(mdp.states[i]) if i in reached else None
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
    program has no solution. Raises CertificateSearchError if the point the
    simplex returns fails the program's own check, which only a defect in
    the search can cause.
    """
    analysis = analyse_policy(mdp, policy, x)
    start = mdp.state_index(x)
    w = analysis.values_at(start)[1]

    def unsat(stage: str, reason: str, conflict: tuple[int, int] | None = None) -> CertificateUnsat:
        return CertificateUnsat(stage, reason, w, analysis.class_gains, conflict)

    if any(c < 0 for c in w):
        return unsat("feasibility", "policy violates the constraint at the start state (A1)")

    closure = chains._closure(mdp.successors, (start,))
    if len(closure) > CLOSURE_CAP:
        raise EnumerationCapExceeded(
            f"reachable closure has {len(closure)} states, cap is {CLOSURE_CAP}"
        )

    free_mu = [i for i, c in enumerate(w) if c == 0]
    sums = analysis.class_sums
    if not _class_system_feasible(sums, free_mu):
        conflict = next((
            pair for pair in itertools.combinations(range(len(sums)), 2)
            if not _class_system_feasible([sums[k] for k in pair], free_mu)
        ), None)
        return unsat(
            "class-gains",
            "reachable recurrent classes admit no common Lagrangian gain "
            "with nonnegative multipliers",
            conflict,
        )

    gain_var = len(free_mu)
    rows = _bellman_rows(mdp, policy, closure, closure, set(analysis.reach), free_mu)
    point = lp.find_feasible_point(
        num_vars=gain_var + 1 + len(closure),
        constraints=rows,
        nonnegative=set(range(gain_var)),
    )
    if point is None:
        return unsat("bellman", "the closure-wide Bellman feasibility program is infeasible")

    mu = [ZERO] * mdp.constraint_dim
    for k, comp in enumerate(free_mu):
        mu[comp] = point[k]
    values = _values(rows, point)[1]
    failure = (
        "A2" if any(m < 0 for m in mu)
        else "A3" if any(m and c for m, c in zip(mu, w))
        else "A4" if any(value < 0 for value in values)
        else "A5" if any(value for value, (_, sense, _, _) in zip(values, rows) if sense == lp.EQ)
        else None
    )
    if failure:
        raise CertificateSearchError(f"searched certificate fails {failure}")
    potential = dict(zip((mdp.states[s] for s in closure), point[gain_var + 1:]))
    return Certificate(mu=tuple(mu), gain=point[gain_var], potential=potential)
