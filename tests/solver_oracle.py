"""Every-policy reference for ``cmdpkit.solver``.

This is the pass the solver made before it analysed only canonical
policies: every policy ``enumerate_policies`` yields gets its own
``analyse_policy``, no class solve is reused from the policy before, and
each row counts once. ``best`` filters the rows the way the solver's
``_best`` did then. Property tests require the solver's ``SolveResult``s to
equal these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import Mdp
from cmdpkit.solver import SolveResult, TableRow, enumerate_policies


def rows(mdp: Mdp, indices: list[int]) -> Iterator[TableRow]:
    """Every policy, analysed on its own, in ``enumerate_policies`` order."""
    for policy in enumerate_policies(mdp):
        analysis = analyse_policy(mdp, policy)
        values = [analysis.values_at(i) for i in indices]
        yield TableRow(
            policy=policy,
            V=tuple(v for v, _ in values),
            W=tuple(w for _, w in values),
            count=1,
        )


def best(
    rows: Iterable[TableRow], k: int, slack: tuple[Fraction, ...] | None = None
) -> SolveResult:
    """The first row with the largest V[k] among those with W[k] - slack >= 0."""
    found: TableRow | None = None
    found_w: tuple[Fraction, ...] | None = None
    feasible = total = 0
    for row in rows:
        total += 1
        w = row.W[k]
        if slack is not None:
            w = tuple(c - d for c, d in zip(w, slack))
        if any(c < 0 for c in w):
            continue
        feasible += 1
        if found is None or row.V[k] > found.V[k]:
            found, found_w = row, w
    if found is None:
        return SolveResult(
            status="infeasible", policy=None, value=None, W_at_optimum=None,
            feasible_count=0, total_count=total,
        )
    return SolveResult(
        status="optimal", policy=found.policy, value=found.V[k],
        W_at_optimum=found_w, feasible_count=feasible, total_count=total,
    )


def solve(mdp: Mdp, x: str | None = None) -> SolveResult:
    """Best feasible policy from x over every policy."""
    start = mdp.initial_state if x is None else x
    return best(rows(mdp, [mdp.state_index(start)]), 0)
