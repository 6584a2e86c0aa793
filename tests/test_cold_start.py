"""Every module import happens when ``cmdpkit.cli`` is imported.

The command line runs each command in a fresh interpreter (or a cold
forked child), so an import deferred into a function is paid on the call
path of every command that reaches it. Imports stay at module level, and
importing the CLI loads every module it can reach.

Leftovers of a refactor are caught here too: every function the benchmark
tracer (``perfbench/tracer.py``) wraps still exists with the parameters it
counts, and no module-level import goes unused. Inputs that overflow an
interpreter limit are run through ``main()`` in a fresh interpreter too.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import cmdpkit.chains
import cmdpkit.lp
import cmdpkit.solver

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


def test_only_mdp_and_policy_are_dataclasses():
    # Defining a dataclass costs about ten times a NamedTuple at import,
    # which every cold command pays; Mdp and Policy keep a lookup map that
    # equality ignores, which a NamedTuple cannot hold.
    decorated = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                        decorated.append(f"{path.name}:{node.name}")
    assert decorated == ["model.py:Mdp", "model.py:Policy"]


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


def _tracer_functions() -> tuple[str, ...]:
    """``perfbench/tracer.FUNCTIONS``, read from the file without installing anything."""
    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.FUNCTIONS


def test_every_traced_function_exists_with_its_counted_parameters():
    # The benchmark reports a traced function the package lacks as absent,
    # and its checks require that none is.
    functions = _tracer_functions()
    assert functions
    for name in functions:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"cmdpkit.{module}"), function, None)), name
    assert "cls" in inspect.signature(cmdpkit.chains.stationary_distribution).parameters
    lp_parameters = inspect.signature(cmdpkit.lp.find_feasible_point).parameters
    assert {"num_vars", "constraints"} <= set(lp_parameters)
    assert inspect.isgeneratorfunction(cmdpkit.solver.enumerate_policies)


def test_no_unused_module_level_import():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            element.value
            for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in node.value.elts
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used | exported
        ]
    assert unused == []


# Each subcommand on haviv, plus help and a usage error.
COMMANDS_ON_HAVIV = [
    ["validate"],
    ["solve"],
    ["evaluate", "--policy", "y=a"],
    ["residual", "--to", "y"],
    ["certify", "--policy", "y=a", "--search"],
    ["certify", "--policy", "y=a", "--mu", "1/2", "--gain", "5"],
    ["audit"],
    ["samplepath", "--policy", "y=a"],
    ["decompose", "--selective"],
    ["simulate", "--policy", "y=a", "--steps", "50", "--seed", "1"],
    ["--help"],
    ["certify", "--help"],
    ["certify", "--po", "y=a"],
]


def test_commands_load_no_module_the_import_did_not():
    # A module a command loads is paid on every cold call of that command.
    haviv = str(SRC.parent / "instances" / "haviv.json")
    argvs = [[argv[0], haviv, *argv[1:]] if argv[0] != "--help" else argv
             for argv in COMMANDS_ON_HAVIV]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (
        "import json, sys\n"
        "import cmdpkit.cli\n"
        "imported = set(sys.modules)\n"
        "codes = [cmdpkit.cli.run(argv).exit_code for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'loaded': sorted(set(sys.modules) - imported),\n"
        "                  'imported': sorted(imported)}))\n"
    )
    result = json.loads(subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout)
    assert result["codes"] == [0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 2]
    assert result["loaded"] == []
    assert not {"argparse", "gettext", "locale"} & set(result["imported"])


def test_oversized_inputs_exit_two_without_a_traceback(oversized_inputs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, code, error in oversized_inputs:
        proc = subprocess.run(
            [sys.executable, "-m", "cmdpkit.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (code, error)
        assert bool(proc.stdout) == (code == 0)
