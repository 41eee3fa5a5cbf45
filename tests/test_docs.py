"""The demos and the README stay in step with the package: every name they
import from pinnctl exists, each demo compiles, each documented `pinnctl`
command line parses, every name the README's module map cites exists in
its row's module, and the run-configuration paragraph names exactly the keys
a run configuration accepts.  Nothing here runs a demo or a command."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from pinnctl.cli import RUN_CONFIG_KEYS, build_parser

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


def module_map() -> list[tuple[str, list[str]]]:
    """(module, backticked Python names) per row of the README's module map.
    A call such as `synthesize(cfg)` cites its name; the package and its modules
    (`pinnctl`, `pinnctl.spins`) are skipped."""
    section = README.read_text().split("## Module map", 1)[1]
    rows = []
    for module, text in re.findall(r"^\| `(pinnctl\.\w+)` \|(.*)\|$", section, re.M):
        names = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", text)
        rows.append((module, [name for name in names if name.split(".")[0] != "pinnctl"]))
    return rows


def run_config_keys() -> set[str]:
    """Backticked key names (`key` or `block.key`) of the README's paragraph on
    the run configuration; quoted values and class names do not match."""
    paragraph = README.read_text().split("Run configuration schema", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`([a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)?)`", paragraph))


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


def test_module_map_lists_every_module():
    assert len(module_map()) == len(list((ROOT / "src" / "pinnctl").glob("[!_]*.py")))


@pytest.mark.parametrize("module, names", module_map(), ids=[row[0] for row in module_map()])
def test_module_map_names_resolve(module, names):
    """Each name is an attribute of the module or of one of its classes."""
    mod = importlib.import_module(module)
    classes = [obj for obj in vars(mod).values() if isinstance(obj, type)]

    def resolves(owner, dotted):
        for part in dotted.split("."):
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    missing = [n for n in names
               if not resolves(mod, n) and not any(resolves(cls, n) for cls in classes)]
    assert not missing


def test_run_config_paragraph_names_every_accepted_key():
    accepted = {key if block is None else f"{block}.{key}"
                for block, keys in RUN_CONFIG_KEYS.items() for key in keys}
    assert run_config_keys() == accepted
