"""The ``residual`` command against its table route, and what it calls.

``residual_oracle`` is the command as it ran on a ``PolicyTable`` over the
start's closure; ``cli.run`` now solves the model, then the model that
``build_residual_problem`` returns. Every argv must give the same exit
code, stdout and stderr on both, including the usage, unknown-state,
unreachable-time and time-limit errors. A ``check_certificate`` with a
zero potential only on the closure must report what it reports with a
zero potential at every state, which is the certify check's default.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import residual_oracle
from cmdpkit import cli, residual, solver
from cmdpkit.certificate import Certificate, check_certificate
from cmdpkit.chains import reachable_states
from cmdpkit.model import load_instance, serialize_instance
from randmdp import random_decomposable, random_mdp, random_policy

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
BUNDLED = sorted(INSTANCES.glob("*.json"))
TIMES = [None, 0, 1, 2, 3, -1, 10001]


def random_models(count: int, seed: int):
    """Seeded random models, every other one trans-policy decomposable."""
    rng = random.Random(seed)
    return [
        random_decomposable(rng) if k % 2 else random_mdp(rng, max_states=6, max_policies=16)
        for k in range(count)
    ]


def write(mdp, path: Path) -> str:
    path.write_text(json.dumps(serialize_instance(mdp)), encoding="utf-8")
    return str(path)


def argvs(file: str, states):
    for target in [*states, "no-such-state"]:
        for t in TIMES:
            time = [] if t is None else ["--time", str(t)]
            yield ["residual", file, "--to", target, *time]


def run_oracle(argv, monkeypatch):
    with monkeypatch.context() as patch:
        command = cli._COMMANDS["residual"]
        patch.setitem(cli._COMMANDS, "residual",
                      command._replace(handler=residual_oracle._cmd_residual))
        return cli.run(argv)


def assert_same_outcomes(file: str, states, monkeypatch) -> set[int]:
    codes = set()
    for argv in argvs(file, states):
        got = cli.run(argv)
        assert got == run_oracle(argv, monkeypatch), argv
        codes.add(got.exit_code)
    return codes


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_residual_equals_table_route(path, monkeypatch):
    codes = assert_same_outcomes(str(path), load_instance(str(path)).states, monkeypatch)
    assert 2 in codes


def test_random_residual_equals_table_route(tmp_path, monkeypatch):
    codes = set()
    for k, mdp in enumerate(random_models(60, seed=2011)):
        file = write(mdp, tmp_path / f"m{k}.json")
        codes |= assert_same_outcomes(file, mdp.states, monkeypatch)
    # Infeasible starts, answered reports and errors all occur.
    assert codes == {0, 1, 2}


def test_one_residual_command_builds_one_problem_and_solves_twice(monkeypatch):
    starts = []
    built = []
    rows, build = solver._rows, residual.build_residual_problem

    def counted_rows(mdp, indices):
        starts.append(list(indices))
        return rows(mdp, indices)

    def counted_build(mdp, spec):
        built.append(spec)
        return build(mdp, spec)

    monkeypatch.setattr(solver, "_rows", counted_rows)
    monkeypatch.setattr(residual, "build_residual_problem", counted_build)
    outcome = cli.run(["residual", str(INSTANCES / "haviv.json"), "--to", "y"])
    assert outcome.exit_code == 0
    assert len(built) == 1
    assert [len(indices) for indices in starts] == [1, 1]


def policies(rng: random.Random):
    for path in BUNDLED:
        mdp = load_instance(str(path))
        yield mdp, [random_policy(rng, mdp) for _ in range(4)]
    for mdp in random_models(30, seed=1996):
        yield mdp, [random_policy(rng, mdp) for _ in range(3)]


def test_zero_potential_on_the_closure_equals_zero_everywhere():
    rng = random.Random(7)
    checked = 0
    for mdp, chosen in policies(rng):
        x = mdp.initial_state
        closure = reachable_states(mdp, None, x)
        for policy in chosen:
            mu = tuple(Fraction(rng.randint(0, 4), 2) for _ in range(mdp.constraint_dim))
            gain = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            on_closure = Certificate(mu, gain, {s: Fraction(0) for s in closure})
            everywhere = Certificate(mu, gain, dict.fromkeys(mdp.states, Fraction(0)))
            report = check_certificate(mdp, x, policy, everywhere)
            assert check_certificate(mdp, x, policy, on_closure) == report
            checked += 1
    assert checked == 4 * len(BUNDLED) + 90
