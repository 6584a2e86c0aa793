"""The benchmark's own tests (not part of the package's test suite).

    python -m pytest -q perfbench        # from the root of a checkout, a few minutes

They run the benchmark itself: the traced runs must repeat their per-
operation work counts exactly (cold isolation), the output checks must
reject wrong answers, and the benchmark must refuse to run without the
package.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(workload: str, trace: int, seconds: int = 1, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced_counts(workload: str, seed: int) -> dict:
    proc = _run(workload, 1, seed=seed)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0, proc.stderr
    counts = BENCH_DIR / "out" / f"trace-{workload}-seed{seed}.counts.json"
    return json.loads(counts.read_text(encoding="utf-8"))["op_counts"]


@pytest.mark.parametrize("workload", ["bundled-cli", "random-solve", "certify-lp"])
def test_traced_counts_repeat_exactly(workload):
    """Warm caches leaking between operations would change these counts."""
    first = _traced_counts(workload, seed=2)
    second = _traced_counts(workload, seed=2)
    assert first == second
    if workload == "bundled-cli":  # the same command in both sweeps
        commands = {key.split(":", 1)[1] for key in first}
        for command in commands:
            assert first[f"0:{command}"] == first[f"1:{command}"], command


_FRESH_PROCESS = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import package, tracer
package.import_cmdpkit(Path.cwd())
t = tracer.Tracer()
t.install()
before = t.begin(0)
sys.modules["cmdpkit.cli"].run(sys.argv[1:])
print(json.dumps(t.end(before)))
"""


def test_forked_command_counts_match_a_fresh_interpreter():
    """The fork parent has run nothing: a child does the work of a new process."""
    key = "audit instances/haviv.json"
    forked = _traced_counts("bundled-cli", seed=1)[f"0:{key}"]
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, *key.split()[:2]],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(fresh.stdout) == forked
    assert forked["cli.run.calls"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("random-solve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _twochain_certificate():
    expected = json.loads((BENCH_DIR / "expected" / "bundled-cli.json").read_text())
    doc = json.loads(expected["commands"]["certify instances/twochain.json --policy '' --search"]["stdout"])
    model = checks.ModelData(json.loads((ROOT / "instances" / "twochain.json").read_text()))
    potential = {s: Fraction(v) for s, v in doc["potential"].items()}
    return model, (Fraction(doc["mu"][0]),), Fraction(doc["gain"]), potential


def test_certificate_check_accepts_the_pinned_certificate():
    model, mu, gain, potential = _twochain_certificate()
    checks.check_certificate(model, {}, mu, gain, potential)


@pytest.mark.parametrize("field", ["mu", "gain", "potential"])
def test_certificate_check_rejects_a_perturbed_certificate(field):
    model, mu, gain, potential = _twochain_certificate()
    if field == "mu":
        mu = (mu[0] + Fraction(1, 7),)
    elif field == "gain":
        gain += Fraction(1, 7)
    else:
        state = sorted(potential)[0]
        potential[state] += Fraction(1, 7)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(model, {}, mu, gain, potential)


def test_lazy_variant_mixes_every_row_with_the_identity():
    base = workloads.certify_candidate_doc(0)
    alpha = workloads.alpha_sequence("certify-lp", 1, 0)[0]
    variant = workloads.lazy_variant(base, alpha)
    assert 0 < alpha < 1
    assert [s["id"] for s in variant["states"]] == [s["id"] for s in base["states"]]
    for state, original in zip(variant["states"], base["states"]):
        for action, before in zip(state["actions"], original["actions"]):
            row = {t: Fraction(p) for t, p in action["transitions"].items()}
            assert sum(row.values()) == 1
            for target, p in before["transitions"].items():
                expected = (1 - alpha) * Fraction(p) + (alpha if target == state["id"] else 0)
                assert row[target] == expected


def test_variants_of_a_base_never_share_a_kernel():
    alphas = workloads.alpha_sequence("random-solve", 1, 0)
    assert len(set(alphas)) == len(alphas)


def test_inputs_depend_only_on_the_seed():
    assert workloads.random_solve_base_doc(5) == workloads.random_solve_base_doc(5)
    assert workloads.alpha_sequence("certify-lp", 3, 0) == workloads.alpha_sequence("certify-lp", 3, 0)
    assert workloads.alpha_sequence("certify-lp", 3, 0) != workloads.alpha_sequence("certify-lp", 4, 0)
    assert workloads.cycle_order("random-solve", 3, [16, 24] * 4) != \
        workloads.cycle_order("random-solve", 4, [16, 24] * 4)
    assert workloads.bundled_cli_commands(3) == workloads.bundled_cli_commands(3)
