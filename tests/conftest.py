import json
import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from cmdpkit import instances
from cmdpkit.model import Policy

INSTANCES_DIR = Path(__file__).resolve().parent.parent / "instances"

# HYPOTHESIS_PROFILE=deep runs every property test at 5x its examples: the
# profile's own max_examples for tests that set none, and through
# ``randmdp.examples`` for those that do.
settings.register_profile("deep", max_examples=5 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def haviv():
    return instances.haviv()


@pytest.fixture(scope="session")
def haviv_a(haviv):
    return Policy.from_mapping(haviv, {"y": "a"})


@pytest.fixture(scope="session")
def haviv_b(haviv):
    return Policy.from_mapping(haviv, {"y": "b"})


@pytest.fixture(scope="session")
def twochain():
    return instances.twochain()


@pytest.fixture(scope="session")
def yacht():
    return instances.yacht()


@pytest.fixture(scope="session")
def instances_dir():
    return INSTANCES_DIR


def _long_answer_document() -> dict:
    """12 states in a cycle, state k staying with probability 1/(490 sevens, k).

    A valid instance whose optimal value has more digits than the
    int-to-str limit allows to print.
    """
    n = 12
    states = []
    for k in range(n):
        q = int("7" * 490 + str(k))
        states.append({"id": f"s{k}", "actions": [{
            "id": "a", "reward": str(k), "constraint": [],
            "transitions": {f"s{k}": f"1/{q}", f"s{(k + 1) % n}": f"{q - 1}/{q}"},
        }]})
    return {"constraint_dim": 0, "initial_state": "s0", "states": states}


def _many_policies_document(digits: int) -> dict:
    """An infeasible start x (one action, constraint -1) and, unreachable
    from it, enough two-action self-loops that the policy count, which an
    infeasible answer prints, has more than ``digits`` digits."""
    states = [{"id": "x", "actions": [
        {"id": "a", "reward": "0", "constraint": ["-1"], "transitions": {"x": "1"}},
    ]}]
    for k in range(math.ceil(digits / math.log10(2)) + 1):
        states.append({"id": f"s{k}", "actions": [
            {"id": a, "reward": "0", "constraint": ["0"], "transitions": {f"s{k}": "1"}}
            for a in ("a", "b")
        ]})
    return {"constraint_dim": 1, "initial_state": "x", "states": states}


@pytest.fixture
def oversized_inputs(tmp_path, instances_dir):
    """(argv, exit code, stderr) of inputs that overflow the JSON parser or a digit limit.

    Nesting too deep for the parser, in FILE and in --potential, exits 2
    with one error line. So do a JSON integer, an answer and a policy count
    past the int-to-str limit when the interpreter sets one. With no limit
    (0, or Python 3.10), the integer parses and the document then lacks its
    initial state, the long answer prints, and so does the infeasible
    verdict with its policy count, exiting 1.
    """
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    digits = tmp_path / "digits.json"
    digits.write_text('{"constraint_dim": ' + "1" * 5001 + "}")
    long_answer = tmp_path / "long.json"
    long_answer.write_text(json.dumps(_long_answer_document()))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    many_policies = tmp_path / "many_policies.json"
    many_policies.write_text(json.dumps(_many_policies_document(limit or 4300)))
    count_commands = [["solve"], ["residual", "--to", "x"], ["audit"]]
    if limit:
        over = f"more than {limit} digits, the limit set by PYTHONINTMAXSTRDIGITS"
        digit_cases = [
            (["solve", str(digits)], 2,
             f"cmdpkit: error: {digits}: an integer literal has {over}\n"),
            (["solve", str(long_answer)], 2, f"cmdpkit: error: a number to print has {over}\n"),
            *(([name, str(many_policies), *options], 2,
               f"cmdpkit: error: a number to print has {over}\n")
              for name, *options in count_commands),
        ]
    else:
        digit_cases = [
            (["solve", str(digits)], 2,
             f"cmdpkit: error: {digits}: missing key 'initial_state' in document\n"),
            (["solve", str(long_answer)], 0, ""),
            *(([name, str(many_policies), *options], 1, "") for name, *options in count_commands),
        ]
    twochain = str(instances_dir / "twochain.json")
    return [
        (["solve", str(deep)], 2, f"cmdpkit: error: {deep}: JSON nested too deeply\n"),
        (["certify", twochain, "--policy", "", "--gain", "1/2", "--potential", str(deep)], 2,
         f"cmdpkit: error: {deep}: JSON nested too deeply\n"),
        *digit_cases,
    ]
