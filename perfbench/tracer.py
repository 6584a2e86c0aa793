"""Outside-in tracer: wraps public functions of the ``cmdpkit`` modules.

Nothing inside the package is changed on disk. ``from x import f`` copies
the binding, so each listed function is replaced at *every* ``cmdpkit.*``
module attribute bound to it, not only at its home module. A function a
later refactor removes is reported as absent rather than crashing the run.

Each wrapped call records a span (name, start, end, parent span, operation
id) in memory; spans are written out once, when the run ends. Self time is
a span's duration minus the time of its direct child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from fractions import Fraction

# Layer (module) -> public functions whose calls and self time are reported.
LAYERS = {
    "model": ("load_instance", "validate", "induced_chain"),
    "chains": ("decompose", "stationary_distribution", "absorption_map",
               "state_distribution_at", "reachable_states"),
    "evaluation": ("evaluate",),
    "solver": ("solve",),
    "certificate": ("find_certificate", "check_certificate"),
    "lp": ("find_feasible_point",),
    "residual": ("audit_time_consistency", "residual_slack", "build_residual_problem"),
    "samplepath": ("samplepath_feasible", "trans_policy_decomposition",
                   "controllable_classes", "simulate"),
    "cli": ("run",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Work counts, recorded at the same boundaries.
COUNTS = (
    "solver.policies_enumerated",
    "lp.rows",
    "lp.vars",
    "chains.stationary_distribution.class_states",
    "fraction.hash_calls",
)

_now = time.perf_counter_ns


def metric_names() -> list[str]:
    names = []
    for fn in FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_ms"]
    return names + list(COUNTS)


def _package_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "cmdpkit" or name.startswith("cmdpkit."))
    ]


def _rebind(original, replacement) -> int:
    """Replace ``original`` at every cmdpkit module attribute bound to it."""
    hits = 0
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


class Tracer:
    def __init__(self) -> None:
        self.calls = {fn: 0 for fn in FUNCTIONS}
        self.self_ns = {fn: 0 for fn in FUNCTIONS}
        self.counts = {name: 0 for name in COUNTS}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._hash_calls = [0]
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_span = 0
        self.op_id: int | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function; call after importing all of cmdpkit."""
        for fn in FUNCTIONS:
            mod_name, name = fn.split(".")
            module = sys.modules.get(f"cmdpkit.{mod_name}")
            original = getattr(module, name, None) if module else None
            if not callable(original):
                self.absent.append(fn)
                continue
            _rebind(original, self._wrap(fn, original, self._arg_counter(fn, original)))

        solver = sys.modules.get("cmdpkit.solver")
        enumerate_policies = getattr(solver, "enumerate_policies", None)
        if inspect.isgeneratorfunction(enumerate_policies):
            _rebind(enumerate_policies, self._count_yields(enumerate_policies))
        else:
            self.absent.append("solver.policies_enumerated")

        counter = self._hash_calls
        original_hash = Fraction.__hash__

        def counting_hash(value):
            counter[0] += 1
            return original_hash(value)

        Fraction.__hash__ = counting_hash

    def _arg_counter(self, fn: str, original):
        """Work counts summed from the arguments of some functions."""
        wanted = {
            "lp.find_feasible_point": (("num_vars", "lp.vars", None),
                                       ("constraints", "lp.rows", len)),
            "chains.stationary_distribution": (
                ("cls", "chains.stationary_distribution.class_states", len),),
        }.get(fn)
        if wanted is None:
            return None
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        if signature is None or any(p not in signature.parameters for p, _, _ in wanted):
            self.absent += [count for _, count, _ in wanted]
            return None
        counts = self.counts

        def add(args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            for param, count, measure in wanted:
                value = bound[param]
                counts[count] += measure(value) if measure else value

        return add

    def _wrap(self, fn: str, original, arg_counter):
        tracer = self

        def traced(*args, **kwargs):
            if arg_counter is not None:
                arg_counter(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = _now()
            try:
                return original(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                tracer.calls[fn] += 1
                tracer.self_ns[fn] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((
                    span_id, fn, start, end,
                    parent[0] if parent is not None else None, tracer.op_id,
                ))

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", fn)
        return traced

    def _count_yields(self, original):
        counts = self.counts

        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts["solver.policies_enumerated"] += 1
                yield item

        counted.__wrapped__ = original
        return counted

    # -- per-operation snapshots ------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Current work counts: every ``<fn>.calls`` and every count."""
        snap = {f"{fn}.calls": self.calls[fn] for fn in FUNCTIONS}
        snap.update(self.counts)
        snap["fraction.hash_calls"] = self._hash_calls[0]
        return snap

    def begin(self, op_id: int) -> dict[str, int]:
        self.op_id = op_id
        return self.snapshot()

    def end(self, before: dict[str, int]) -> dict[str, int]:
        """Counts of the operation that ``begin`` returned ``before`` for."""
        after = self.snapshot()
        self.op_id = None
        return {name: after[name] - before[name] for name in after}

    def self_ms(self) -> dict[str, float]:
        return {f"{fn}.self_ms": ns / 1e6 for fn, ns in self.self_ns.items()}
