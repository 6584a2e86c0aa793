"""The command line's exit-code contract on random models.

Each example writes a ``tests/randmdp.py`` model to a file, with LF, CRLF
or CR-only line endings, sometimes with one transition row made to sum to
something other than 1, and runs every command form of the cold-start
check (``tests/test_cold_start.py``) on it through ``cli.run``. Every
outcome must exit 0, 1 or 2 and never report an internal error, a
repeated call must return the same bytes, and exit 1 must come only with
a report that declares the command's negative verdict.
"""

import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from cmdpkit import cli, model
from randmdp import examples, random_decomposable, random_mdp, random_value


def command_forms(rng: random.Random, mdp: model.Mdp) -> list[list[str]]:
    """The cold-start check's forms on haviv, each haviv-specific argument
    drawn for ``mdp``; FILE goes right after the command name."""
    policy = ",".join(
        f"{state}={rng.choice(acts)}"
        for state, acts in zip(mdp.states, mdp.actions) if len(acts) > 1
    )
    mu = ",".join(model.format_rational(random_value(rng, 0, 4))
                  for _ in range(mdp.constraint_dim))
    gain = model.format_rational(random_value(rng, 0))  # "-3/2" would read as an option
    return [
        ["validate"],
        ["solve"],
        ["evaluate", "--policy", policy],
        ["residual", "--to", rng.choice(mdp.states)],
        ["certify", "--policy", policy, "--search"],
        ["certify", "--policy", policy, "--mu", mu, "--gain", gain],
        ["audit"],
        ["samplepath", "--policy", policy],
        ["decompose", "--selective"],
        ["simulate", "--policy", policy, "--steps", "50", "--seed", str(rng.randint(0, 9))],
        ["--help"],
        ["certify", "--help"],
        ["certify", "--po", policy],
    ]


# The negative verdict each command may exit 1 with; the others never do.
NEGATIVE_VERDICTS = {
    "validate": lambda doc: doc["valid"] is False,
    "solve": lambda doc: doc["status"] == "infeasible",
    "residual": lambda doc: doc.get("status") == "infeasible",
    "certify": lambda doc: doc.get("status") == "unsat" or doc.get("verdict") == "fail",
    "audit": lambda doc: doc.get("consistent") is False or doc.get("status") == "infeasible",
    "samplepath": lambda doc: doc["feasible"] is False,
    "decompose": lambda doc: doc["decomposable"] is False,
}


def instance_text(rng: random.Random, mdp: model.Mdp) -> str:
    doc = model.serialize_instance(mdp)
    if rng.random() < 0.15:  # one row no longer sums to 1
        transitions = rng.choice(rng.choice(doc["states"])["actions"])["transitions"]
        target = rng.choice(sorted(transitions))
        transitions[target] = rng.choice(["0", "2", "-1/2", "1/3"])
    return model.render_json(doc).replace("\n", rng.choice(["\n", "\r\n", "\r"]))


@settings(max_examples=examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_command_keeps_the_exit_code_contract(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=6) if rng.random() < 0.7 else random_decomposable(rng)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "model.json")
        with open(path, "w", encoding="utf-8", newline="") as file:
            file.write(instance_text(rng, mdp))
        for form in command_forms(rng, mdp):
            argv = [form[0], path, *form[1:]] if form[0] != "--help" else form
            outcome = cli.run(argv)
            assert outcome.exit_code in (0, 1, 2), (argv, outcome)
            assert "internal error" not in outcome.error, (argv, outcome)
            assert cli.run(argv) == outcome, argv
            if outcome.exit_code == 1:
                assert outcome.error == ""
                assert NEGATIVE_VERDICTS[argv[0]](json.loads(outcome.report)), (argv, outcome)
