"""The package needs numpy alone at runtime: scipy is a test dependency
(tests/oracles.py), so importing pinnctl must not load it.  The ascent
workspace sits at the bottom of the import graph, below network, and
objectives imports none of the master equation's internals from propagation."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pinnctl

SRC = Path(pinnctl.__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    code = "import sys, pinnctl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sources_never_name_scipy():
    hits = [f"{path.relative_to(SRC)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if "scipy" in line]
    assert not hits


def imported_modules(name: str) -> set[str]:
    """The pinnctl modules that src/pinnctl/<name>.py imports ("pinnctl" for the package)."""
    found = set()
    for node in ast.walk(ast.parse((SRC / "pinnctl" / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            found.update([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
        else:
            dotted = [node.module or ""] if isinstance(node, ast.ImportFrom) else (
                [alias.name for alias in node.names] if isinstance(node, ast.Import) else [])
            found.update(d.split(".")[1] if "." in d else d
                         for d in dotted if d.split(".")[0] == "pinnctl")
    return found


def imported_below(name: str) -> set[str]:
    """Every pinnctl module that <name> imports, directly or through another."""
    seen, todo = set(), [name]
    while todo:
        for module in imported_modules(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


def test_workspace_imports_nothing_from_pinnctl():
    assert imported_modules("workspace") == set()


def test_network_imports_no_module_above_it():
    below = imported_below("network")
    assert "workspace" in below
    assert not below & {"network", "propagation", "objectives", "optimizer"}


def imported_names(name: str, module: str) -> set[str]:
    """The names that src/pinnctl/<name>.py imports from its sibling <module> (from .module import ...)."""
    return {alias.name for node in ast.walk(ast.parse((SRC / "pinnctl" / f"{name}.py").read_text()))
            if isinstance(node, ast.ImportFrom) and node.level and node.module == module
            for alias in node.names}


def test_objectives_knows_no_lindblad_representation():
    # the dissipative gradient's coordinates, chunks and reverse pass live in propagation
    assert {n for n in imported_names("objectives", "propagation") if n.startswith("_")} == {
        "_as_pulse", "_complex_matmul"}
    assert imported_names("objectives", "spins") <= {"NoiseModel", "SpinSystem", "control_operator_stack"}
