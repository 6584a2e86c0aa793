"""Each command of the command line loads only the modules it runs.

The command line runs each command in a fresh interpreter (or a cold
forked child), so every module a command loads is paid on every call of
it. ``import cmdpkit.cli`` loads only the package and ``cmdpkit.model``
(the package resolves its public names on first use), and each
``cli._cmd_*`` handler imports the ``cmdpkit`` modules it runs as its first
statements. Nowhere else does a function import, so an import never hides
deep in a call path, and the modules each command loads are pinned here.

Leftovers of a refactor are caught here too: every function the benchmark
tracer (``perfbench/tracer.py``) wraps still exists with the parameters it
counts, and no module-level import goes unused. Inputs that overflow an
interpreter limit are run through ``main()`` in a fresh interpreter too.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import cmdpkit.chains
import cmdpkit.lp
import cmdpkit.solver

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cmdpkit"


def _imports_a_package_module(node: ast.Import | ast.ImportFrom) -> bool:
    """Whether ``node`` imports only modules of the package (or names from one)."""
    modules = {f"cmdpkit.{path.stem}" for path in PACKAGE.glob("*.py")} - {"cmdpkit.__init__"}
    if isinstance(node, ast.Import):
        return all(alias.name in modules for alias in node.names)
    if node.module == "cmdpkit":
        return all(f"cmdpkit.{alias.name}" in modules for alias in node.names)
    return node.level == 0 and node.module in modules


def _handler_heads(tree: ast.Module) -> set[ast.AST]:
    """The imports of package modules that open each ``_cmd_*`` handler."""
    heads = set()
    for function in tree.body:
        if isinstance(function, ast.FunctionDef) and function.name.startswith("_cmd_"):
            for statement in function.body:
                if not (isinstance(statement, (ast.Import, ast.ImportFrom))
                        and _imports_a_package_module(statement)):
                    break
                heads.add(statement)
    return heads


def test_no_import_inside_a_function():
    # But for the package modules a ``_cmd_*`` handler imports as its first
    # statements: which modules a command loads reads off its handler, and
    # any other import in a function would be paid deep in the call path of
    # whatever reaches it.
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = _handler_heads(tree) if path.name == "cli.py" else set()
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(scope):
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in allowed:
                        nested.append(f"{path.name}:{node.lineno} in {getattr(scope, 'name', 'lambda')}")
    assert nested == []


def test_no_module_uses_dataclasses():
    # Importing dataclasses loads inspect, ast, dis and tokenize, which
    # every cold command would pay; Mdp and Policy are slotted classes.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} import {alias.name}"
                          for alias in node.names if alias.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append(f"{path.name}:{node.lineno} from {node.module}")
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                        found.append(f"{path.name}:{node.name} @dataclass")
    assert found == []


# Standard-library modules that importing dataclasses loads; the package
# needs none of them.
NOT_LOADED_BY_THE_CLI = {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy"}


def test_importing_the_cli_loads_no_dataclass_machinery():
    # Every command, since each loads modules the import of the CLI does not.
    for argv, run in zip(COMMANDS_ON_HAVIV, cold_runs()):
        loaded = set(run["imported"]) | set(run["loaded"])
        assert "cmdpkit.model" in loaded
        assert NOT_LOADED_BY_THE_CLI & loaded == set(), argv


def records():
    """Every record class (one with ``_fields``) the package defines, by qualified name."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "cmdpkit" if path.stem == "__init__" else f"cmdpkit.{path.stem}"
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and hasattr(value, "_fields")):
                yield f"{name}.{value.__qualname__}", value


def test_no_record_annotation_is_a_string_or_forward_ref():
    # A string annotation becomes a typing.ForwardRef in a NamedTuple, which
    # compiles the string when the class is created, on every cold import.
    def unresolved(annotation):
        if isinstance(annotation, (str, typing.ForwardRef)):
            return True
        return any(unresolved(arg) for arg in typing.get_args(annotation))

    found = dict(records())
    assert {"cmdpkit.model.Mdp", "cmdpkit.solver.SolveResult"} <= set(found)
    assert [
        f"{name}.{field}"
        for name, record in found.items()
        for field, annotation in record.__annotations__.items()
        if unresolved(annotation)
    ] == []


def test_importing_the_cli_loads_only_the_model():
    for run in cold_runs():
        assert package_modules(run["imported"]) == {"cmdpkit", "cmdpkit.model", "cmdpkit.cli"}


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
        # __all__ as the module computes it; the package's is built from a table.
        module = "cmdpkit" if path.stem == "__init__" else f"cmdpkit.{path.stem}"
        exported = set(getattr(importlib.import_module(module), "__all__", ()))
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used | exported
        ]
    assert unused == []


# Each subcommand on haviv, plus help and a usage error, with its exit code
# and the package modules it loads beyond those the import of the CLI did.
SOLVER = {"cmdpkit.chains", "cmdpkit.lp", "cmdpkit.solver"}
EVALUATE = {"cmdpkit.chains", "cmdpkit.lp", "cmdpkit.evaluation"}
CERTIFICATE = EVALUATE | {"cmdpkit.certificate"}
RESIDUAL = CERTIFICATE | SOLVER | {"cmdpkit.residual"}
SAMPLEPATH = EVALUATE | {"cmdpkit.samplepath"}
COMMANDS_ON_HAVIV = [
    (["validate"], 0, set()),
    (["solve"], 0, SOLVER),
    (["evaluate", "--policy", "y=a"], 0, EVALUATE),
    (["residual", "--to", "y"], 0, RESIDUAL),
    (["certify", "--policy", "y=a", "--search"], 1, CERTIFICATE),
    (["certify", "--policy", "y=a", "--mu", "1/2", "--gain", "5"], 1, CERTIFICATE),
    (["audit"], 1, RESIDUAL),
    (["samplepath", "--policy", "y=a"], 1, SAMPLEPATH),
    (["decompose", "--selective"], 0, SAMPLEPATH),
    (["simulate", "--policy", "y=a", "--steps", "50", "--seed", "1"], 0, SAMPLEPATH),
    (["--help"], 0, set()),
    (["certify", "--help"], 0, set()),
    (["certify", "--po", "y=a"], 2, set()),
]


def package_modules(names) -> set[str]:
    return {name for name in names if name.split(".")[0] == "cmdpkit"}


@functools.cache
def cold_runs() -> tuple[dict, ...]:
    """Each of COMMANDS_ON_HAVIV run by ``cli.run`` in a fresh interpreter:
    its exit code, the modules loaded once ``import cmdpkit.cli`` is done and
    those the command loaded after it. -S keeps site hooks out, so the
    interpreter alone loads nothing beyond its start-up modules."""
    haviv = str(SRC.parent / "instances" / "haviv.json")
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import cmdpkit.cli\n"
        "imported = set(sys.modules)\n"
        "code = cmdpkit.cli.run(json.loads(sys.argv[2])).exit_code\n"
        "print(json.dumps({'code': code,\n"
        "                  'imported': sorted(imported),\n"
        "                  'loaded': sorted(set(sys.modules) - imported)}))\n"
    )
    runs = []
    for argv, _, _ in COMMANDS_ON_HAVIV:
        argv = argv if argv[0] == "--help" else [argv[0], haviv, *argv[1:]]
        runs.append(json.loads(subprocess.run(
            [sys.executable, "-S", "-c", script, str(SRC), json.dumps(argv)],
            capture_output=True, text=True, check=True,
        ).stdout))
    return tuple(runs)


def test_each_command_loads_exactly_its_modules():
    # A module a command loads is paid on every cold call of that command.
    for (argv, code, modules), run in zip(COMMANDS_ON_HAVIV, cold_runs()):
        assert (run["code"], package_modules(run["loaded"])) == (code, modules), argv
        assert not {"argparse", "gettext", "locale"} & {*run["imported"], *run["loaded"]}, argv


def test_oversized_inputs_exit_two_without_a_traceback(oversized_inputs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, code, error in oversized_inputs:
        proc = subprocess.run(
            [sys.executable, "-m", "cmdpkit.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stderr) == (code, error)
        assert bool(proc.stdout) == (code != 2)
