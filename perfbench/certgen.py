"""certify-lp input generator, run in its own process.

Walks the candidates of the pinned certify-lp family in order, solves each
with ``solver.solve`` and searches a certificate for the optimum. A
candidate is kept when the search reaches the closure-wide Bellman LP
(stage "found" or "bellman"). Prints one JSON document: the kept bases
with their optimal policy (decision states only), value, W and stage, and
the time the generation took (raw and scaled, see speed.py).

Running this in a separate process keeps every analysis it caches out of
the process that times the certificate searches.

    python3 perfbench/certgen.py        # from the root of a checkout
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import package
import speed
import workloads

# Enough for the pinned family; a guard against a search that never ends.
MAX_CANDIDATES = 200


def _rat(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def generate(count: int) -> dict:
    stopwatch = speed.Stopwatch()
    package.import_cmdpkit(Path.cwd())
    from cmdpkit.certificate import Certificate, find_certificate
    from cmdpkit.model import parse_instance
    from cmdpkit.solver import solve

    kept = []
    tried = 0
    while len(kept) < count:
        if tried == MAX_CANDIDATES:
            raise RuntimeError(f"only {len(kept)} of {count} candidates reach the Bellman LP")
        doc = workloads.certify_candidate_doc(tried)
        mdp = parse_instance(json.dumps(doc))
        tried += 1
        result = solve(mdp)
        stopwatch.lap()
        if result.status != "optimal":
            continue
        found = find_certificate(mdp, mdp.initial_state, result.policy)
        stopwatch.lap()
        stage = "found" if isinstance(found, Certificate) else found.stage
        if stage not in workloads.CERTIFY_KEPT_STAGES:
            continue
        kept.append({
            "candidate": tried - 1,
            "policy": {
                state: action for state, action in result.policy.choice
                if len(mdp.actions[mdp.state_index(state)]) > 1
            },
            "value": _rat(result.value),
            "W": [_rat(w) for w in result.W_at_optimum],
            "stage": stage,
        })
    stopwatch.lap()
    return {"candidates_tried": tried, "family": kept,
            "raw_s": stopwatch.raw_s, "scaled_s": stopwatch.scaled_s}


if __name__ == "__main__":
    json.dump(generate(workloads.CERTIFY_FAMILY_SIZE), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
