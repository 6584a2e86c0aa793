"""The Fraction builders of the certificate's Bellman rows and residuals, kept as oracles.

``certificate._bellman_rows`` reads each coefficient off the model's
numerators and denominators, as integers over one scale per row; this
builder sums every entry into ``Fraction`` maps, as the search once did.
Row for row, each integer over its row's scale must equal the rational
here, and a zero here must be absent there.

``one_step_gap`` is the check's residual before the check evaluated those
rows at the certificate's point over one integer scale: one ``Fraction``
sum per (state, action). ``check_certificate``'s residuals must equal it.

``class_system_rows`` are the class-gain rows as the search built them
before it read them off the integer class sums: gain - mu . C = R with the
``ClassGain`` fractions, through ``lp_oracle.from_rationals``.
"""

from fractions import Fraction

import lp_oracle
from cmdpkit import lp

ZERO = Fraction(0)
ONE = Fraction(1)


def bellman_rows(mdp, policy, closure, reached, free_mu):
    """The Bellman rows over (free mu, gain, potential of each closure state)."""
    var_of_state = {s: len(free_mu) + 1 + k for k, s in enumerate(closure)}
    gain_var = len(free_mu)

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
            constraints.append((coeffs, sense, mdp.rewards[i][j]))
    return constraints


def one_step_gap(mdp, cert, state, action_index):
    """gain + L(s) - r - mu . c - sum_t p(t) L(t) at one state and action."""
    i = mdp.state_index(state)
    gap = cert.gain + cert.potential[state] - mdp.rewards[i][action_index]
    gap -= sum((m * c for m, c in zip(cert.mu, mdp.constraints[i][action_index])), ZERO)
    gap -= sum((p * cert.potential[mdp.states[j]] for j, p in mdp.successors[i][action_index]), ZERO)
    return Fraction(gap)


def class_system_rows(equations, free_mu):
    """Rows over (free mu, gain): gain - mu . constraint_gain = reward_gain per class."""
    gain_var = len(free_mu)
    return [
        lp_oracle.from_rationals(
            {gain_var: ONE} | {k: -eq.constraint_gain[i] for k, i in enumerate(free_mu)},
            lp.EQ,
            eq.reward_gain,
        )
        for eq in equations
    ]
