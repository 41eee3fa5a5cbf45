"""The demos and the README stay in step with the package: every name they
import from pinnctl exists, each demo compiles, and each documented
`pinnctl` command line parses.  Nothing here runs a demo or a command."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from pinnctl.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def pinnctl_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every `from pinnctl[...] import name` in the source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pinnctl"
        for alias in node.names
    ]


def readme_commands() -> list[str]:
    """Each `pinnctl ...` command of the README's shell blocks, continuation lines joined."""
    text = "\n".join(readme_blocks("sh")).replace("\\\n", " ")
    lines = (" ".join(line.split()) for line in text.splitlines())
    return [line for line in lines if line.startswith("pinnctl ")]


SOURCES = {path.name: path.read_text() for path in DEMOS}
SOURCES.update({f"README.md[{k}]": block for k, block in enumerate(readme_blocks("python"))})


def test_sources_found():
    assert DEMOS and any(name.startswith("README") for name in SOURCES)
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_imported_names_resolve(name):
    imports = pinnctl_imports(SOURCES[name])
    assert imports
    missing = [f"{mod}.{attr}" for mod, attr in imports
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles(path):
    compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command)
    assert argv[0] == "pinnctl"
    build_parser().parse_args(argv[1:])
