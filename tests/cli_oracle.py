"""The argparse command line: the reference for ``cmdpkit.cli``'s parser.

``_build_parser`` and ``_Parser`` are the parser the CLI built on every
call before it read argv against its command table. ``outcome(argv)``
runs this parser and reports what happened, in the form the differential
test compares: ``("ok", vars(namespace))``, ``("usage", message)`` or
``("help", "")``. The message is the error text argparse formatted, usage
line included, with ``COLUMNS`` set wide so that the usage line does not
wrap.

Property tests require the table parser to give the same outcome for
every argv drawn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os

from cmdpkit import samplepath as samplepath_mod
from cmdpkit.chains import MAX_TIME
from cmdpkit.cli import _UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep run() in control of the exit code
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmdpkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="instance JSON document")
        return p

    cmd("validate", help="check instance invariants")

    p = cmd("solve", help="best feasible policy")
    p.add_argument("--start", help="start state (default: instance initial state)")

    p = cmd("evaluate", help="V and W of a policy")
    p.add_argument("--policy", required=True, help="comma-separated state=action pairs")
    p.add_argument("--start", help="start state (default: instance initial state)")

    p = cmd("residual", help="residual slackness at a reachable state")
    p.add_argument("--to", required=True, help="target state")
    p.add_argument(
        "--time", type=int,
        help=f"reaching time (default: smallest; at most {MAX_TIME})",
    )

    p = cmd("certify", help="check or search an optimality certificate")
    p.add_argument("--policy", required=True)
    p.add_argument("--search", action="store_true", help="search instead of check")
    p.add_argument("--mu", help="comma-separated multiplier components")
    p.add_argument("--gain", help="gain value, p/q or decimal")
    p.add_argument("--potential", help="JSON file mapping state -> p/q")

    p = cmd("audit", help="time-consistency audit of the optimal policy")
    p.add_argument("--all-times", action="store_true",
                   help="audit every reaching time, not only the smallest per state")

    p = cmd("samplepath", help="almost-sure feasibility of a policy")
    p.add_argument("--policy", required=True)

    p = cmd("decompose", help="per-subchain expected-constraint conversion")
    p.add_argument("--selective", action="store_true",
                   help="impose constraints only on controllable subchains")

    p = cmd("simulate", help="seeded Monte Carlo trajectory")
    p.add_argument("--policy", required=True)
    p.add_argument("--steps", type=int, required=True,
                   help=f"walk length (at most {samplepath_mod.MAX_STEPS})")
    p.add_argument("--seed", type=int, required=True)

    return parser


@contextlib.contextmanager
def _wide_terminal():
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "10000"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def outcome(argv: list[str]) -> tuple[str, object]:
    """What the argparse parser does with ``argv``; help output is discarded."""
    try:
        with _wide_terminal(), contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(_build_parser().parse_args(argv))
    except _UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return ("help", "") if exc.code in (0, None) else ("usage", "")
