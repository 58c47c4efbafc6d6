"""The package imports no third-party module beyond its declared runtime
dependencies: scipy and the other test tools stay out of `src/folevy`."""

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
