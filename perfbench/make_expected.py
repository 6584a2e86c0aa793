"""Write the expected results of the pinned seed to perfbench/expected/.

    python3 perfbench/make_expected.py [bundled-cli] [random-solve] [certify-lp]

Run from the root of a checkout whose outputs are known to be right; the
benchmark then checks every later run against these files. The values the
acceptance tests pin by hand are checked by the benchmark on every run, so
a wrong file cannot go unnoticed there.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads

SEED = workloads.PINNED_SEED


def bundled_cli() -> dict:
    bench = worker.BundledCli(SEED, expected=False)
    commands = {}
    for argv in bench.commands:
        result = json.loads(bench._fork(argv, 0)[0])
        commands[workloads.command_key(argv)] = {
            "argv": argv, "exit": result["exit"], "stdout": result["stdout"],
        }
    return {"seed": SEED, "commands": commands}


def random_solve() -> dict:
    bench = worker.RandomSolve(SEED, expected=False)
    solver = sys.modules["cmdpkit.solver"]
    family = []
    for base, doc in zip(bench.family, bench.base_docs):
        mdp = bench.model.parse_instance(json.dumps(doc))
        family.append(dict(base, **worker.solve_doc(mdp, solver.solve(mdp))))
    pinned = [worker.solve_doc(op[2], bench.operation(op)) for op in bench.pool]
    return {"seed": SEED, "family": family, "pinned": pinned}


def certify_lp() -> dict:
    bench = worker.CertifyLp(SEED, expected=False)
    stages = [worker.certify_stage(bench.operation(op)) for op in bench.pool]
    return {"seed": SEED, "family": bench.family, "pinned_stages": stages}


MAKERS = {"bundled-cli": bundled_cli, "random-solve": random_solve, "certify-lp": certify_lp}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(MAKERS):
        doc = MAKERS[name]()
        worker.EXPECTED_DIR.mkdir(exist_ok=True)
        path = worker.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
