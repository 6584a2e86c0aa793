"""cmdpkit benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload bundled-cli --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Workloads: bundled-cli, random-solve,
certify-lp (see workloads.py and README.md). With ``--trace 0`` it sets the
workload up SETUP_REPEATS times in fresh processes, runs the last one for
``--seconds`` (closed loop, one operation in flight) and prints the
end-to-end metrics; with ``--trace 1`` it runs the workload's fixed
operation set twice in fresh processes, untraced and traced, and prints the
per-layer metrics. Every output is checked. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import package  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("bundled-cli", "random-solve", "certify-lp")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, trace: int):
    """Run one worker; returns ((raw, scaled) set-up seconds, result or None)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--trace", str(trace)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or not ready.strip():
        raise WorkerFailed(f"{mode} worker for {workload} exited {proc.returncode}")
    ready = json.loads(ready)
    result = json.loads(rest) if mode != "setup" else None
    return (ready["setup_raw_s"], ready["setup_s"]), result


def _scaled(result: dict) -> list[float]:
    """Operation latencies at nominal speed (speed.py)."""
    refs = result["refs_ms"]
    return [speed.scale(x, refs[i], refs[i + 1]) for i, x in enumerate(result["latencies"])]


def _quantiles(latencies: list[float]) -> tuple[float, float, int]:
    """(median, 90th percentile, samples above it) of latencies in seconds."""
    p90 = statistics.quantiles(latencies, n=10)[8]
    return statistics.median(latencies), p90, sum(1 for x in latencies if x > p90)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    setups = [_worker(workload, seed, seconds, "setup", 0)[0]
              for _ in range(SETUP_REPEATS - 1)]
    setup, result = _worker(workload, seed, seconds, "timed", 0)
    setups.append(setup)
    raw = result["latencies"]
    latencies = _scaled(result)
    p50, p90, above = _quantiles(latencies)
    raw_p50, raw_p90, _ = _quantiles(raw)
    n = len(latencies)
    busy = sum(latencies)  # the timed phase: output checks are left out
    setup_s = statistics.median(scaled for _, scaled in setups)
    metrics = {
        "ops_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    lines = [
        f"times scaled to the nominal speed of the reference loop (speed.py); raw in brackets",
        f"ops_per_s       {n / busy:10.3f} 1/s  [{n / sum(raw):.3f}] "
        f"({n} operations; {result['wall_s']:.2f} s wall with the checks)",
        f"latency_p50_ms  {p50 * 1e3:10.3f} ms   [{raw_p50 * 1e3:.3f}] (n={n})",
        f"latency_p90_ms  {p90 * 1e3:10.3f} ms   [{raw_p90 * 1e3:.3f}] (n={n}, {above} above)",
        f"setup_s         {setup_s:10.4f} s    (median of {SETUP_REPEATS}: "
        + ", ".join(f"{scaled:.3f} [{raw_s:.3f}]" for raw_s, scaled in setups) + ")",
        f"peak_rss_mb     {result['peak_rss_kb'] / 1024:10.3f} MB",
        f"failed_frac     {result['failed'] / n:10.4f}      ({result['failed']}/{n})",
    ]
    return _summary(result, n, metrics), lines


def per_layer(workload: str, seed: int) -> tuple[dict, list[str]]:
    _, plain = _worker(workload, seed, 0, "fixed", 0)
    _, traced = _worker(workload, seed, 0, "fixed", 1)
    trace = traced["trace"]
    absent = set(trace["absent"])
    metrics = {}
    for name in tracer.metric_names():
        base = name.rsplit(".", 1)[0]
        if name in absent or base in absent:
            continue
        if name.endswith(".self_ms"):
            metrics[name] = (trace["self_ms"][name], "ms")
        else:
            metrics[name] = (trace["counts"][name], "count")
    untraced_ms = sum(_scaled(plain)) * 1e3
    traced_ms = sum(_scaled(traced)) * 1e3
    metrics["trace.untraced_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    lines = [f"absent: {sorted(absent)}"] if absent else []
    lines.append(f"traced {len(traced['latencies'])} operations: {traced_ms:.1f} ms at nominal speed, "
                 f"untraced {untraced_ms:.1f} ms, overhead {traced_ms - untraced_ms:.1f} ms")
    failed = traced["failed"] + plain["failed"]
    merged = dict(traced, failed=failed,
                  failures=plain["failures"] + traced["failures"],
                  problems=plain["problems"] + traced["problems"])
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    return _summary(merged, attempted, metrics), lines


def _summary(result: dict, attempted: int, metrics: dict) -> dict:
    for message in result["failures"] + result["problems"]:
        print(f"FAILED: {message}", file=sys.stderr)
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        package.require_checkout(Path.cwd())
        if args.trace:
            summary, lines = per_layer(args.workload, args.seed)
        else:
            summary, lines = end_to_end(args.workload, args.seed, args.seconds)
    except (package.MissingPackage, WorkerFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]}")
    for line in lines:
        print(line)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
