"""The package imports no third-party module beyond its declared runtime
dependencies: scipy and the other test tools stay out of `src/folevy`.
Nor does a module of it import a name it never uses, and only its command
line imports the modules that write files."""

from __future__ import annotations

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels(path):
    # every absolute import, at module level or inside a function
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    imported = set().union(*(_imported_top_levels(path) for path in
                             sorted((ROOT / "src" / "folevy").glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"folevy"}
    distributions = packages_distributions()
    assert {dist.lower() for module in third_party
            for dist in distributions.get(module, [module])} == declared
    assert third_party == {"numpy", "yaml"}


def test_only_the_command_line_writes_files():
    # the library returns results; cli.py alone lays out a run directory
    modules = sorted((ROOT / "src" / "folevy").glob("*.py"))
    writers = [path.name for path in modules
               if _imported_top_levels(path) & {"json", "pathlib"}]
    assert writers == ["cli.py"]


# imported but unused on purpose: perfbench/spans.py rebinds these names
# on `experiments`
_REBIND_TARGETS = {("src/folevy/experiments.py", "_drift_rk4"),
                   ("src/folevy/experiments.py", "jump_flow")}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.relative_to(ROOT).as_posix(), name)
            for name in imported - used}


def test_modules_have_no_unused_imports():
    # the package's __init__ imports only to re-export
    modules = sorted({path for folder in ("src/folevy", "tools", "demos",
                                          "tests")
                      for path in (ROOT / folder).glob("*.py")}
                     - {ROOT / "src" / "folevy" / "__init__.py"})
    assert len(modules) > 20
    unused = set().union(*(_unused_imports(path) for path in modules))
    assert sorted(unused - _REBIND_TARGETS) == []
