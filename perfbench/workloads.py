"""Seeded input generators for the three benchmark workloads.

Everything here is standard library only: the generators write instance
*documents* (the JSON format ``cmdpkit`` reads, every number a "p/q"
string), so a refactor of ``src/`` cannot change the inputs. The same seed
always gives the same inputs.

bundled-cli
    Every subcommand on each of the four bundled instances where it
    applies: 38 ``cli.run`` argument lists per sweep. The seed shuffles the
    order of each sweep and picks the seed of the 10^6-step ``simulate``.
    Chosen because it is what users run and what the byte-identical stdout
    contract covers; ``audit`` dominates it.

random-solve
    ``solver.solve`` on random models: sizes alternating 16 and 24 states,
    2 actions on the first 4 states (16 policies), one constraint. Rows and
    values follow ``tests/randmdp.random_row`` (support <= 3) and
    ``random_value``; the two helpers are mirrored below so that the inputs
    stay fixed when the test helpers change. Chosen because every policy is
    analysed exactly once, so no cache can help: the dense exact
    elimination dominates and cache growth shows in memory.

certify-lp
    ``certificate.find_certificate`` for the solver's optimum on random
    models (16 and 24 states, 2 actions on the first 3 states) that reach
    the closure-wide Bellman LP. The exact phase-1 simplex dominates.
    Filtering rule: a candidate is kept only when ``solve`` finds an
    optimum and ``find_certificate`` on it returns a certificate (stage
    "found") or ``CertificateUnsat`` with stage "bellman". Candidates that
    are infeasible or stop at "class-gains" are dropped. ``certgen.py``
    applies the rule, in its own process.

Families and variants. The random models come from a *pinned family* of
base models, and the seed draws every operation's instance as a *lazy
variant* of one base: each kernel row mixed with the identity,
P' = alpha I + (1 - alpha) P, with alpha = k / 1009 and k distinct for
every variant of a base. Then P' - I = (1 - alpha)(P - I): stationary
vectors, absorption probabilities, V, W, the optimum and the certificate
stage are the base's, and the eliminations and the simplex take the same
pivots on rescaled numbers. So every operation is a model no earlier
operation has seen (every kernel entry differs), its answer is known on
every seed, and its cost is the base's. Drawing the random-solve models
themselves from the seed spread the 90th-percentile latency by 12% across
five seeds (quartile distance over the median), against 3% for the pinned
family; and a certify-lp model costs a full solve and search (about 0.3 s)
to find, so a large seed-drawn family would take minutes to set up.
Operations cycle through the family in a seed-shuffled order, so each
base carries the same weight in a run.
"""

from __future__ import annotations

import random
from fractions import Fraction

PINNED_SEED = 1

INSTANCES = ("haviv", "squander", "yacht", "twochain")

# Policies the CLI is asked about: the audited optimum where one exists,
# and the policy the README examples use.
_POLICY = {
    "haviv": "y=a",
    "squander": "y=squander,z=buy",
    "yacht": "y=buy,z=save",
    "twochain": "",
}

SIMULATE_STEPS = 1_000_000

RANDOM_SOLVE_SIZES = (16, 24)
RANDOM_SOLVE_DECISION_STATES = 4
RANDOM_SOLVE_FAMILY_SIZE = 56

CERTIFY_SIZES = (16, 24)
CERTIFY_DECISION_STATES = 3
# Odd, so that the median and the 90th percentile of a run that cycles
# through the bases fall inside one base's cluster of latencies rather
# than on the boundary between two.
CERTIFY_FAMILY_SIZE = 13
CERTIFY_KEPT_STAGES = ("found", "bellman")

# Variants mix each kernel with the identity by alpha = k / ALPHA_DENOMINATOR;
# a prime, so that no two variants share a kernel entry by cancellation.
ALPHA_DENOMINATOR = 1009


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# bundled-cli

def simulate_seed(seed: int) -> int:
    return random.Random(f"bundled-cli/simulate/{seed}").randrange(1 << 31)


def bundled_cli_commands(seed: int) -> list[list[str]]:
    """One sweep's argument lists, in canonical (unshuffled) order."""
    commands: list[list[str]] = []
    for name in INSTANCES:
        path = f"instances/{name}.json"
        policy = _POLICY[name]
        commands += [
            ["validate", path],
            ["solve", path],
            ["evaluate", path, "--policy", policy],
            ["samplepath", path, "--policy", policy],
            ["decompose", path],
            ["decompose", path, "--selective"],
            ["certify", path, "--policy", policy, "--search"],
            ["audit", path],
        ]
    haviv = "instances/haviv.json"
    commands += [
        ["audit", haviv, "--all-times"],
        ["residual", haviv, "--to", "y"],
        ["solve", haviv, "--start", "y"],
        ["certify", haviv, "--policy", "y=a", "--mu", "0", "--gain", "5"],
        ["certify", "instances/twochain.json", "--policy", "",
         "--mu", "1/2", "--gain", "1/2"],
        ["simulate", haviv, "--policy", "y=a",
         "--steps", str(SIMULATE_STEPS), "--seed", str(simulate_seed(seed))],
    ]
    return commands


def command_key(argv: list[str]) -> str:
    """Seed-independent name of a command (simulate's seed left out)."""
    if argv[0] == "simulate":
        argv = argv[: argv.index("--seed")]
    return " ".join(repr(a) if a == "" else a for a in argv)


def sweep_order(seed: int, sweep: int, count: int) -> list[int]:
    order = list(range(count))
    random.Random(f"bundled-cli/order/{seed}/{sweep}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# random models (mirrors tests/randmdp.random_row and random_value)

def random_row(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    width = rng.randint(1, min(3, size))
    support = rng.sample(range(size), width)
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    row = [Fraction(0)] * size
    for s, w in zip(support, weights):
        row[s] += Fraction(w, total)
    return tuple(row)


def random_value(rng: random.Random, lo: int = -20, hi: int = 20) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_doc(rng: random.Random, num_states: int, decision_states: int) -> dict:
    """Instance document: 2 actions on the first states, 1 constraint."""
    labels = [f"s{i}" for i in range(num_states)]
    states = []
    for i, label in enumerate(labels):
        actions = ("a0", "a1") if i < decision_states else ("a0",)
        rows = [random_row(rng, num_states) for _ in actions]
        rewards = [random_value(rng) for _ in actions]
        constraints = [random_value(rng, -5, 5) for _ in actions]
        states.append({"id": label, "actions": [
            {
                "id": action,
                "reward": _rat(reward),
                "constraint": [_rat(constraint)],
                "transitions": {
                    labels[k]: _rat(p) for k, p in enumerate(row) if p != 0
                },
            }
            for action, row, reward, constraint in zip(actions, rows, rewards, constraints)
        ]})
    return {"constraint_dim": 1, "initial_state": "s0", "states": states}


def random_solve_base_doc(index: int) -> dict:
    """Base model ``index`` of the pinned random-solve family."""
    rng = random.Random(f"random-solve/family/{index}")
    size = RANDOM_SOLVE_SIZES[index % len(RANDOM_SOLVE_SIZES)]
    return random_doc(rng, size, RANDOM_SOLVE_DECISION_STATES)


# ---------------------------------------------------------------------------
# certify-lp

def certify_candidate_doc(index: int) -> dict:
    """Candidate base model ``index`` of the pinned certify-lp family."""
    rng = random.Random(f"certify-lp/family/{index}")
    size = CERTIFY_SIZES[index % len(CERTIFY_SIZES)]
    return random_doc(rng, size, CERTIFY_DECISION_STATES)


def lazy_variant(doc: dict, alpha: Fraction) -> dict:
    """The base with every kernel row mixed with the identity.

    P' = alpha I + (1 - alpha) P. Then P' - I = (1 - alpha)(P - I), so
    stationary vectors, absorption probabilities, V, W, the optimum and
    the certificate stage are those of the base, and the exact
    eliminations and the simplex take the same pivots on rescaled numbers.
    """
    states = []
    for state in doc["states"]:
        label = state["id"]
        actions = []
        for action in state["actions"]:
            row = {
                target: (1 - alpha) * Fraction(p)
                for target, p in action["transitions"].items()
            }
            row[label] = row.get(label, Fraction(0)) + alpha
            actions.append(dict(action, transitions={t: _rat(p) for t, p in row.items()}))
        states.append({"id": label, "actions": actions})
    return dict(doc, states=states)


def alpha_sequence(workload: str, seed: int, base: int) -> list[Fraction]:
    """The mixing weights of a base's variants, one per cycle, all distinct."""
    numerators = list(range(1, ALPHA_DENOMINATOR // 2 + 1))
    random.Random(f"{workload}/alpha/{seed}/{base}").shuffle(numerators)
    return [Fraction(k, ALPHA_DENOMINATOR) for k in numerators]


def cycle_order(workload: str, seed: int, sizes: list[int]) -> list[int]:
    """Seed-shuffled order of a family's bases, model sizes alternating."""
    rng = random.Random(f"{workload}/order/{seed}")
    groups = []
    for size in sorted(set(sizes)):
        group = [i for i, s in enumerate(sizes) if s == size]
        rng.shuffle(group)
        groups.append(group)
    order = []
    for k in range(max(len(g) for g in groups)):
        order += [g[k] for g in groups if k < len(g)]
    return order
