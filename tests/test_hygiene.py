"""Source hygiene checks over the package modules."""

import ast
import re
import sys
from pathlib import Path

import pytest

import impsolve

PACKAGE = Path(impsolve.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
REFERENCING_DIRS = ("src", "tests", "scripts", "perfbench")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_is_detected():
    source = "from typing import Iterable, Sequence\n\nx: Sequence[int] = []\n"
    assert _unused_imports(source) == ["line 1: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [f"line {node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    return foreign


def test_foreign_import_is_detected():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy\n"
              "from .series import Series\n"
              "def f():\n"
              "    from hypothesis import given\n")
    assert _foreign_imports(source) == ["line 2: numpy", "line 5: hypothesis"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_runtime_is_stdlib_only(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []


def _definitions(tree: ast.AST) -> dict[str, int]:
    """Functions, methods and classes defined in a module, dunders exempt."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _unreferenced(defining: dict[str, str], referencing: list[str],
                  named_elsewhere: frozenset[str] = frozenset()) -> list[str]:
    used = set(named_elsewhere)
    for source in referencing:
        used |= _references(ast.parse(source))
    return [f"{module} line {line}: {name}"
            for module, source in sorted(defining.items())
            for name, line in sorted(_definitions(ast.parse(source)).items())
            if name not in used]


def test_unreferenced_definition_is_detected():
    module = ("class Vec:\n"
              "    def __len__(self): return 0\n"
              "    def zeros(self): return Vec()\n"
              "    @property\n"
              "    def size(self): return 0\n"
              "def unused(): pass\n")
    caller = "from mod import Vec as V\nV().size\n"
    assert _unreferenced({"mod": module}, [caller]) == [
        "mod line 6: unused", "mod line 3: zeros"]
    assert _unreferenced({"mod": module}, [caller],
                         frozenset({"unused", "zeros"})) == []


def _package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((ROOT / "src" / "impsolve").glob("*.py"))}


def test_every_definition_is_referenced():
    defining = _package_sources()
    referencing = [p.read_text(encoding="utf-8")
                   for d in REFERENCING_DIRS
                   for p in sorted((ROOT / d).rglob("*.py"))]
    # entry points, "module:function", are named only in pyproject.toml
    entry_points = frozenset(re.findall(
        r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    assert _unreferenced(defining, referencing, entry_points) == []


# Named outside the unit tests by nothing, and kept on purpose.
LIBRARY_ONLY = frozenset({
    "is_zero",  # tests of the solver and of residuals check results with it
    "from_records",  # the one round-trip check of to_records, which solve writes
    "residual",  # documented library capability: the defect of a solution
    "resolve_linear",  # documented library capability: the linear-y normal form
})


def test_every_definition_is_used_beyond_its_unit_tests():
    users = [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p.name != "__init__.py"]
    users += sorted((ROOT / "scripts").rglob("*.py"))
    users += [p for p in sorted((ROOT / "perfbench").rglob("*.py"))
              if not p.name.startswith("test_")]
    users.append(ROOT / "tests" / "test_acceptance.py")
    referencing = [p.read_text(encoding="utf-8") for p in users]
    assert _unreferenced(_package_sources(), referencing, LIBRARY_ONLY) == []
