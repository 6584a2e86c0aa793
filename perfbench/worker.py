"""One benchmark process: set up a workload, then run its operations.

Started by ``run.py``; by hand, ``--mode fixed`` is an untimed correctness
pass. Protocol on stdout, one JSON object per line: ``{"ready": true, ...}``
with the set-up time once set-up is done, then (unless ``--mode setup``)
one result object with the latencies, the failures and the peak RSS.

Modes:
  setup  set up and exit (``run.py`` repeats set-up to take its median);
  timed  closed loop, one operation in flight, for ``--seconds`` and at
         least ``MIN_SAMPLES`` operations;
  fixed  the workload's fixed traced operation set, with or without the
         tracer, so that the traced and untraced runs do identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import package
import speed
import workloads
from checks import CheckFailed, exact, rational, require

# The 90th percentile needs at least 10 samples above it.
MIN_SAMPLES = 100
FIXED_SWEEPS = 2  # bundled-cli: a repeat sweep checks cold isolation

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
OUT_DIR = BENCH_DIR / "out"

_clock = time.perf_counter


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def _rat(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8"))


class Workload:
    """Set-up, one operation, and its output check."""

    def __init__(self, seed: int, expected: bool = True):
        self.stopwatch = speed.Stopwatch()  # times the set-up
        self.seed = seed
        self.pinned = seed == workloads.PINNED_SEED
        self.expected = expected
        self.tracer = None
        self.op_counts: dict[str, dict[str, int]] = {}
        self.problems: list[str] = []

    def run_op(self, index: int) -> tuple[float, str | None]:
        """(latency in seconds, failure message or None) of operation ``index``."""
        raise NotImplementedError

    def op_limit(self, mode: str) -> int | None:
        raise NotImplementedError

    def run(self, mode: str, seconds: float) -> dict:
        limit = self.op_limit(mode)
        latencies: list[float] = []
        refs = [speed.reference_ms()]  # the speed reference around every operation
        failures: list[str] = []
        start = _clock()
        index = 0
        while True:
            if limit is not None:
                if index >= limit:
                    break
            elif _clock() - start >= seconds and index >= MIN_SAMPLES and self.boundary(index):
                break
            latency, failure = self.run_op(index)
            latencies.append(latency)
            refs.append(speed.reference_ms())
            if failure is not None:
                failures.append(f"op {index}: {failure}")
            index += 1
        wall = _clock() - start
        return {
            "latencies": latencies,
            "refs_ms": refs,
            "wall_s": wall,
            "failed": len(failures),
            "failures": failures[:20],
            "peak_rss_kb": self.peak_rss_kb(),
            "problems": self.problems,
        }

    def boundary(self, index: int) -> bool:
        """Whether a timed run may stop before operation ``index``."""
        return True

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced(self, key: str, call):
        """Run ``call`` under the tracer (if any), recording its counts."""
        if self.tracer is None:
            return call()
        before = self.tracer.begin(len(self.op_counts))
        try:
            return call()
        finally:
            self.op_counts[key] = self.tracer.end(before)

    def trace_report(self) -> dict:
        return {
            "counts": _sum_counts(self.op_counts.values()),
            "self_ms": self.tracer.self_ms(),
            "absent": self.tracer.absent,
            "op_counts": self.op_counts,
            "spans": self.tracer.spans,
        }


def _sum_counts(per_op) -> dict[str, int]:
    total: dict[str, int] = {}
    for counts in per_op:
        for name, value in counts.items():
            total[name] = total.get(name, 0) + value
    return total


# ---------------------------------------------------------------------------
# bundled-cli: each command in a child forked from a parent that has
# imported cmdpkit and run nothing.

# Values the acceptance tests pin by hand.
_PINS = {
    "solve instances/haviv.json": {"value": "5/1", "W": ["0/1"]},
    "certify instances/twochain.json --policy '' --search": {"mu": ["1/2"], "gain": "1/2"},
}


class BundledCli(Workload):
    def __init__(self, seed: int, expected: bool = True):
        super().__init__(seed, expected)
        package.import_cmdpkit(Path.cwd())
        self.cli = sys.modules["cmdpkit.cli"]
        self.commands = workloads.bundled_cli_commands(seed)
        self.expected_outputs = _load_expected("bundled-cli")["commands"] if expected else {}
        self.models = {
            name: checks.ModelData(json.loads(
                Path(f"instances/{name}.json").read_text(encoding="utf-8")))
            for name in workloads.INSTANCES
        }
        self.stopwatch.lap()
        self.peak_child_kb = 0
        self.sweep_counts: dict[str, dict[str, int]] = {}
        self.self_ns: dict[str, int] = {}
        self.spans: list = []

    def op_limit(self, mode):
        return FIXED_SWEEPS * len(self.commands) if mode == "fixed" else None

    def boundary(self, index):
        return index % len(self.commands) == 0  # whole sweeps only

    def run_op(self, index):
        sweep, position = divmod(index, len(self.commands))
        argv = self.commands[workloads.sweep_order(self.seed, sweep, len(self.commands))[position]]
        start = _clock()
        payload, maxrss_kb = self._fork(argv, index)
        latency = _clock() - start
        self.peak_child_kb = max(self.peak_child_kb, maxrss_kb)
        try:
            result = json.loads(payload)
            if "exception" in result:
                return latency, f"{' '.join(argv)} raised {result['exception']}"
            if self.tracer is not None:
                self._collect_trace(sweep, argv, result)
            self.check(argv, result["exit"], result["stdout"])
        except (CheckFailed, ValueError, KeyError) as exc:
            return latency, f"{' '.join(argv)}: {exc}"
        return latency, None

    def _fork(self, argv: list[str], op_id: int) -> tuple[bytes, int]:
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: run one command, report, never return
            status = 1
            try:
                os.close(read_end)
                result: dict = {}
                try:
                    if self.tracer is not None:
                        before = self.tracer.begin(op_id)
                    outcome = self.cli.run(list(argv))
                    result = {"exit": outcome.exit_code, "stdout": outcome.report,
                              "stderr": outcome.error}
                    if self.tracer is not None:
                        result["counts"] = self.tracer.end(before)
                        result["self_ns"] = self.tracer.self_ns
                        result["spans"] = self.tracer.spans
                except Exception as exc:  # a traceback escaping cli.run is a failure
                    result = {"exception": repr(exc)}
                with os.fdopen(write_end, "w", encoding="utf-8") as out:
                    out.write(json.dumps(result))
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            payload = reader.read()
        _, _, usage = os.wait4(pid, 0)
        return payload, usage.ru_maxrss

    def _collect_trace(self, sweep, argv, result):
        key = workloads.command_key(argv)
        counts = result["counts"]
        first = self.sweep_counts.setdefault(key, counts)
        if first != counts:
            diff = sorted(n for n in counts if counts[n] != first.get(n))
            self.problems.append(f"cold isolation: counts of {key!r} differ in sweep {sweep}: {diff}")
        self.op_counts[f"{sweep}:{key}"] = counts
        for name, ns in result["self_ns"].items():
            self.self_ns[name] = self.self_ns.get(name, 0) + ns
        self.spans += result["spans"]

    def trace_report(self):
        return {
            "counts": _sum_counts(self.op_counts.values()),
            "self_ms": {f"{fn}.self_ms": ns / 1e6 for fn, ns in self.self_ns.items()},
            "absent": self.tracer.absent,
            "op_counts": self.op_counts,
            "spans": self.spans,
        }

    def peak_rss_kb(self):
        return self.peak_child_kb

    def check(self, argv: list[str], exit_code: int, stdout: str) -> None:
        key = workloads.command_key(argv)
        require(exit_code in (0, 1), f"exit code {exit_code}")
        doc = json.loads(stdout)
        _check_rationals(doc)
        expected = self.expected_outputs[key]
        if argv[0] != "simulate" or self.pinned:
            require(exit_code == expected["exit"], f"exit {exit_code} != {expected['exit']}")
            require(stdout == expected["stdout"], "stdout differs from the expected bytes")
        else:
            self._check_simulate(argv, exit_code, doc, json.loads(expected["stdout"]))
        for field, value in _PINS.get(key, {}).items():
            require(doc.get(field) == value, f"{field} = {doc.get(field)!r}, pinned {value!r}")
        instance = Path(argv[1]).stem
        if argv[0] == "solve" and doc["status"] == "optimal":
            require(all(rational(w) >= 0 for w in doc["W"]), "W < 0 at the optimum")
        if argv[0] == "certify" and "--search" in argv and doc["status"] == "certificate":
            decisions = dict(item.split("=") for item in argv[argv.index("--policy") + 1].split(",") if item)
            checks.check_certificate(
                self.models[instance], decisions,
                tuple(rational(m) for m in doc["mu"]), rational(doc["gain"]),
                {s: rational(v) for s, v in doc["potential"].items()},
            )

    def _check_simulate(self, argv, exit_code, doc, pinned_doc):
        require(exit_code == 0, f"simulate exit {exit_code}")
        require(doc.keys() == pinned_doc.keys(), "simulate report keys differ")
        require(doc["seed"] == int(argv[argv.index("--seed") + 1]), "simulate seed")
        require(doc["steps"] == workloads.SIMULATE_STEPS, "simulate steps")
        for field in ("start", "policy"):
            require(doc[field] == pinned_doc[field], f"simulate {field}")
        require(doc["analytic"]["absorption"] == pinned_doc["analytic"]["absorption"],
                "analytic absorption depends on the seed")
        total = sum((rational(f) for f in doc["visit_frequency"].values()), Fraction(0))
        require(total == 1, f"visit frequencies sum to {total}")


def _check_rationals(node) -> None:
    """Every number-like string in a CLI report is a canonical p/q."""
    if isinstance(node, dict):
        for value in node.values():
            _check_rationals(value)
    elif isinstance(node, list):
        for value in node:
            _check_rationals(value)
    elif isinstance(node, str) and node[:1].lstrip("-")[:1].isdigit():
        rational(node)


# ---------------------------------------------------------------------------
# random-solve and certify-lp: one long-lived process; every operation is a
# distinct lazy variant (workloads.lazy_variant) of a base of a pinned
# family, cycling through the family in a seed-shuffled order.

class FamilyWorkload(Workload):
    name = ""
    fixed_ops = 0  # size of the traced operation set

    def __init__(self, seed: int, expected: bool = True):
        super().__init__(seed, expected)
        package.import_cmdpkit(Path.cwd())
        self.model = sys.modules["cmdpkit.model"]
        self.stopwatch.lap()
        self.family = self.load_family()
        self.base_docs = [self.base_doc(base) for base in self.family]
        self.order = workloads.cycle_order(
            self.name, seed, [len(doc["states"]) for doc in self.base_docs])
        self.alphas: dict[int, list[Fraction]] = {}
        cycles = -(-MIN_SAMPLES // len(self.order))
        self.pool = []
        for i in range(cycles * len(self.order)):
            self.pool.append(self.variant(i))
            self.stopwatch.lap()
        self.pool_peak_kb = None

    def load_family(self) -> list[dict]:
        raise NotImplementedError

    def base_doc(self, base: dict) -> dict:
        raise NotImplementedError

    def op_limit(self, mode):
        return self.fixed_ops if mode == "fixed" else None

    def boundary(self, index):
        return index % len(self.order) == 0  # whole cycles only

    def variant(self, index: int) -> tuple[dict, dict, object]:
        """(base, variant document, parsed model) of operation ``index``."""
        cycle, position = divmod(index, len(self.order))
        base = self.order[position]
        if base not in self.alphas:
            self.alphas[base] = workloads.alpha_sequence(self.name, self.seed, base)
        alphas = self.alphas[base]
        doc = workloads.lazy_variant(self.base_docs[base], alphas[cycle % len(alphas)])
        return self.family[base], doc, self.model.parse_instance(json.dumps(doc))

    def peak_rss_kb(self):
        """Peak RSS over the pool's operations, so that the run's length cannot move it."""
        return self.pool_peak_kb or super().peak_rss_kb()

    def run_op(self, index):
        # Inputs past the pool are made outside the timed region.
        if index == len(self.pool):
            self.pool_peak_kb = super().peak_rss_kb()
        op = self.pool[index] if index < len(self.pool) else self.variant(index)
        start = _clock()
        try:
            result = self.traced(f"op {index}", lambda: self.operation(op))
        except Exception as exc:
            return _clock() - start, f"raised {exc!r}"
        latency = _clock() - start
        try:
            self.check(index, op, result)
        except CheckFailed as exc:
            return latency, str(exc)
        return latency, None


class RandomSolve(FamilyWorkload):
    name = "random-solve"
    fixed_ops = 20

    def load_family(self):
        expected = _load_expected("random-solve") if self.expected else {}
        self.pinned_results = expected.get("pinned", []) if self.pinned else []
        if not self.expected:  # writing the expected results: bases only
            return [{"index": i} for i in range(workloads.RANDOM_SOLVE_FAMILY_SIZE)]
        return expected["family"]

    def base_doc(self, base):
        return workloads.random_solve_base_doc(base["index"])

    def operation(self, op):
        return sys.modules["cmdpkit.solver"].solve(op[2])

    def check(self, index, op, result):
        base, _, mdp = op
        doc = solve_doc(mdp, result)
        require(result.total_count == 2 ** workloads.RANDOM_SOLVE_DECISION_STATES,
                f"total_count {result.total_count}")
        require(result.status == base["status"], f"status {result.status!r}")
        require(result.feasible_count == base["feasible_count"],
                f"feasible_count {result.feasible_count} != {base['feasible_count']}")
        if result.status == "optimal":
            require(exact(result.value) == Fraction(base["value"]),
                    f"value {result.value} != the base's {base['value']}")
            require(all(exact(w) >= 0 for w in result.W_at_optimum), "W < 0 at the optimum")
            if doc["policy"] == base["policy"]:  # ties may pick another optimum
                require(doc["W"] == base["W"], f"W {doc['W']} != {base['W']}")
        if index < len(self.pinned_results):
            require(doc == self.pinned_results[index],
                    f"{doc} != pinned {self.pinned_results[index]}")


def solve_doc(mdp, result) -> dict:
    """The fields of a SolveResult that the expected results pin."""
    doc = {"status": result.status, "feasible_count": result.feasible_count}
    if result.status == "optimal":
        doc["value"] = _rat(result.value)
        doc["W"] = [_rat(w) for w in result.W_at_optimum]
        doc["policy"] = {
            state: action for state, action in result.policy.choice
            if len(mdp.actions[mdp.state_index(state)]) > 1
        }
    return doc


class CertifyLp(FamilyWorkload):
    name = "certify-lp"
    fixed_ops = 2 * workloads.CERTIFY_FAMILY_SIZE

    def load_family(self):
        self.stopwatch.lap()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "certgen.py")],
            stdout=subprocess.PIPE, check=True, timeout=150,
        )
        generated = json.loads(proc.stdout)
        self.stopwatch.add(generated["raw_s"], generated["scaled_s"])
        family = generated["family"]
        self.pinned_stages = []
        if self.expected:
            committed = _load_expected("certify-lp")
            if self.pinned:
                self.pinned_stages = committed["pinned_stages"]
            if family != committed["family"]:
                self.problems.append("generator output differs from the committed family")
        return family

    def base_doc(self, base):
        return workloads.certify_candidate_doc(base["candidate"])

    def variant(self, index):
        op = super().variant(index)
        return op + (self.model.Policy.from_mapping(op[2], op[0]["policy"]),)

    def operation(self, op):
        mdp, policy = op[2], op[3]
        return sys.modules["cmdpkit.certificate"].find_certificate(
            mdp, mdp.initial_state, policy)

    def check(self, index, op, found):
        base, doc = op[:2]
        stage = certify_stage(found)
        require(stage == base["stage"], f"stage {stage!r}, base reached {base['stage']!r}")
        if index < len(self.pinned_stages):
            require(stage == self.pinned_stages[index], "stage differs from the pinned run")
        if stage == "found":
            mu = tuple(exact(m) for m in found.mu)
            gain = exact(found.gain)
            potential = {s: exact(v) for s, v in found.potential.items()}
            # gain == V(x) is complementary slackness, given the residuals.
            require(gain == Fraction(base["value"]), f"gain {gain} != V(x) = {base['value']}")
            checks.check_certificate(checks.ModelData(doc), base["policy"], mu, gain, potential)
        else:
            W = [_rat(exact(w)) for w in found.W]
            require(W == base["W"], f"W {W} != {base['W']}")


def certify_stage(found) -> str | None:
    return "found" if type(found).__name__ == "Certificate" else getattr(found, "stage", None)


WORKLOADS = {"bundled-cli": BundledCli, "random-solve": RandomSolve, "certify-lp": CertifyLp}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One core for the worker, its children and the speed reference, so
    # that the reference measures the core the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](args.seed)
    _emit({"ready": True, "setup_raw_s": workload.stopwatch.raw_s,
           "setup_s": workload.stopwatch.scaled_s})
    if args.mode == "setup":
        return
    if args.trace:
        import tracer

        workload.tracer = tracer.Tracer()
        workload.tracer.install()
    result = workload.run(args.mode, args.seconds)
    if args.trace:
        report = workload.trace_report()
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as out:
            out.write('["span", "name", "start_ns", "end_ns", "parent", "op"]\n')
            for span in report.pop("spans"):
                out.write(json.dumps(span) + "\n")
        Path(f"{stem}.counts.json").write_text(
            json.dumps({"absent": report["absent"], "op_counts": report["op_counts"]},
                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
        result["trace"] = {k: report[k] for k in ("counts", "self_ms", "absent")}
    _emit(result)


if __name__ == "__main__":
    main()
