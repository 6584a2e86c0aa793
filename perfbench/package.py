"""Import the ``cmdpkit`` under test from ``src/`` of the checkout.

The benchmark always runs from the root of a checkout. It refuses to run
against any other copy of the package (an installed one, say), and fails
when the checkout has no ``src/cmdpkit``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

MODULES = ("model", "chains", "evaluation", "solver", "certificate", "lp",
           "residual", "samplepath", "instances", "cli")


class MissingPackage(Exception):
    pass


def require_checkout(root: Path) -> None:
    for needed in ("src/cmdpkit/__init__.py", "instances/haviv.json"):
        if not (root / needed).is_file():
            raise MissingPackage(f"{needed} not found under {root}; "
                                 "run the benchmark from the root of a cmdpkit checkout")


def import_cmdpkit(root: Path):
    """Import every cmdpkit module from ``root/src``; returns the package."""
    require_checkout(root)
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("cmdpkit")
    if Path(package.__file__).resolve().parent != src / "cmdpkit":
        raise MissingPackage(f"imported cmdpkit from {package.__file__}, not from {src}")
    for name in MODULES:
        importlib.import_module(f"cmdpkit.{name}")
    return package
