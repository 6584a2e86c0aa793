"""Every module import happens when ``cmdpkit.cli`` is imported.

The command line runs each command in a fresh interpreter (or a cold
forked child), so an import deferred into a function is paid on the call
path of every command that reaches it. Imports stay at module level, and
importing the CLI loads every module it can reach.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cmdpkit"

# Builds the bundled instance files (``python -m cmdpkit.instances``); the
# command line never reads it, and a package import of it would make that
# ``-m`` run warn that the module was imported before it ran.
NOT_ON_THE_CLI_PATH = {"cmdpkit.instances"}


def test_no_import_inside_a_function():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(scope):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        nested.append(f"{path.name}:{node.lineno} in {getattr(scope, 'name', 'lambda')}")
    assert nested == []


def test_importing_the_cli_loads_every_module():
    expected = {
        "cmdpkit" if path.stem == "__init__" else f"cmdpkit.{path.stem}"
        for path in PACKAGE.glob("*.py")
    } - NOT_ON_THE_CLI_PATH
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, cmdpkit.cli; "
         "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'cmdpkit'))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert set(loaded) == expected
