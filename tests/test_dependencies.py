"""The package imports no third-party module beyond its declared runtime
dependencies: scipy and the other test tools stay out of `src/folevy`.
Nor does a module of it import a name it never uses or declare a public
dataclass field that nothing reads, and only its command line imports
the modules that write files."""

from __future__ import annotations

import ast
import dataclasses
import inspect
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


def test_every_dataclass_field_is_read():
    # a field that no program reads outside its own __post_init__ is dead
    # weight, though a test may read it; a summary() that returns
    # vars(self) reads them all
    import folevy
    reads = {}
    for path in (p for d in ("src", "perfbench", "tools", "demos")
                 for p in sorted((ROOT / d).rglob("*.py"))):
        tree = ast.parse(path.read_text(), str(path))
        inits = {id(n): c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body
                 if getattr(f, "name", None) == "__post_init__"
                 for n in ast.walk(f)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.attr, set()).add(inits.get(id(n)))
    unread = [f"{c.__name__}.{f.name}"
              for c in (*map(vars(folevy).get, folevy.__all__),
                        *folevy.config._SECTIONS.values())
              if isinstance(c, type) and dataclasses.is_dataclass(c)
              for f in dataclasses.fields(c)
              if not reads.get(f.name, set()) - {c.__name__}
              and "vars(self)" not in inspect.getsource(
                  getattr(c, "summary", lambda: None))]
    assert unread == []
