"""Source hygiene checks over the package modules."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import impsolve

PACKAGE = Path(impsolve.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# the package's __init__.py re-exports, so it imports what it never uses
IMPORTING = MODULES + sorted(p for d in ("tests", "scripts")
                             for p in (ROOT / d).glob("*.py"))
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


def test_import_loads_no_dataclasses_inspect_or_csv():
    # dataclasses pulls in inspect, ast, dis and tokenize, and decorating
    # with it took 14 of the 18 ms that importing impsolve cost a CLI verb;
    # csv cost about 0.6 ms of every import, and only the CSV writers use it
    probe = ("import sys, impsolve.cli; "
             "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert done.stdout == "[]\n"


def _path_id(p: Path) -> str:
    return p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("path", IMPORTING, ids=_path_id)
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


# perfbench's modules besides its tests, which a script may import as it may the package
BENCH_MODULES = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))
FIRST_PARTY = ("impsolve", *(p.stem for p in BENCH_MODULES))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + BENCH_MODULES
                         + sorted((ROOT / "scripts").glob("*.py")), ids=_path_id)
def test_runtime_is_stdlib_only(path):
    # every shipped file: the package, perfbench's modules, and the scripts,
    # which may import both
    assert [f for f in _foreign_imports(path.read_text(encoding="utf-8"))
            if not re.search(rf": ({'|'.join(FIRST_PARTY)})(\.|$)", f)] == []


def _definitions(tree: ast.AST) -> list[tuple[str, int, bool]]:
    """Functions, methods and classes defined in a module, dunders exempt,
    as ``(name, line, is_method)``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, kinds)}
    return [(node.name, node.lineno, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Names used bare or imported, and attribute names.  An attribute of a
    module bound by a plain import from outside the package, such as
    ``calibrate.scale``, is not one of ours and does not count."""
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != "impsolve"}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names, attrs


def _unreferenced(defining: dict[str, str], referencing: list[str],
                  named_elsewhere: frozenset[str] = frozenset()) -> list[str]:
    """Definitions no referencing source names; a method counts as named
    only through an attribute, never by a bare name of the same spelling."""
    names, attrs = set(named_elsewhere), set(named_elsewhere)
    for source in referencing:
        bare, dotted = _references(ast.parse(source))
        names |= bare
        attrs |= dotted
    return [f"{module} line {line}: {name}"
            for module, source in sorted(defining.items())
            for name, line, is_method in sorted(_definitions(ast.parse(source)))
            if name not in attrs and (is_method or name not in names)]


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


def test_a_method_is_not_used_by_a_bare_name_or_a_foreign_module():
    module = ("class Vec:\n"
              "    def scale(self): return self\n"
              "def scale(): pass\n")
    bare = "from mod import Vec\nscale = Vec()\n"
    foreign = "from mod import Vec, scale\nimport calibrate\ncalibrate.scale(1.0)\n"
    ours = "import impsolve.mod\nimpsolve.mod.Vec().scale()\n"
    assert _unreferenced({"mod": module}, [bare]) == ["mod line 2: scale"]
    assert _unreferenced({"mod": module}, [foreign]) == ["mod line 2: scale"]
    assert _unreferenced({"mod": module}, [ours]) == []


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


CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _constants(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level constants, upper-case names bound by a plain or an
    annotated assignment, as ``(name, line)``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
    return found


def _read_names(tree: ast.AST) -> set[str]:
    """Names read bare, as an attribute, or imported by name; an assignment
    binds its name without reading it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _unread_constants(defining: dict[str, str], referencing: list[str]) -> list[str]:
    read = set().union(*(_read_names(ast.parse(source)) for source in referencing))
    return [f"{module} line {line}: {name}"
            for module, source in sorted(defining.items())
            for name, line in _constants(ast.parse(source)) if name not in read]


def test_unread_constant_is_detected():
    module = ("STEPS = 10\n"
              "PUSHES: tuple = (1e-14, 1e-12)\n"
              "LOW, HIGH = 0, 1\n"
              "def run():\n"
              "    return STEPS + HIGH\n")
    assert _unread_constants({"mod": module}, [module]) == [
        "mod line 2: PUSHES", "mod line 3: LOW"]
    assert _unread_constants({"mod": module}, [module, "from mod import PUSHES, LOW\n"]) == []


def test_every_constant_is_read():
    # a knob left behind when the code that read it went; the package's
    # __init__.py only re-exports, which reads nothing
    referencing = [p.read_text(encoding="utf-8")
                   for d in REFERENCING_DIRS for p in sorted((ROOT / d).rglob("*.py"))
                   if p != PACKAGE / "__init__.py"]
    assert _unread_constants(_package_sources(), referencing) == []


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


def _raised_names(source: str) -> set[str]:
    """Names in the first argument of every ``pytest.raises(...)`` call,
    bare or as the last part of a dotted name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises" and node.args):
            for sub in ast.walk(node.args[0]):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


def test_raised_exception_is_detected():
    source = ("import pytest, impsolve\n"
              "with pytest.raises((KeyError, impsolve.DomainError), match='x'):\n"
              "    raise ValueError\n")
    assert _raised_names(source) == {"KeyError", "impsolve", "DomainError"}


def test_every_exception_is_raised_in_a_test():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        raised |= _raised_names(path.read_text(encoding="utf-8"))
    assert sorted(defined - raised) == []


def _instance_dicts(source: str) -> list[int]:
    """Lines that read or write an object's ``__dict__``; comments and
    docstrings are not code, so they do not count."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"]


def test_instance_dict_use_is_detected():
    source = ('"""Fields kept out of __dict__."""\n'
              "out = object()  # not out.__dict__\n"
              "out.__dict__.update(a=1)\n")
    assert _instance_dicts(source) == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=_path_id)
def test_no_module_touches_an_instance_dict(path):
    # a write through __dict__ moves every field of the instance out of
    # line, and CPython 3.11 then reads each field more slowly;
    # series._set keeps the fields inline
    assert _instance_dicts(path.read_text(encoding="utf-8")) == []


def _bracket_readers(source: str) -> list[str]:
    """The top-level definitions, by name, that read an attribute
    ``_bracket``; a read outside any definition is named ``<module>``."""
    return [getattr(node, "name", "<module>") for node in ast.parse(source).body
            if any(isinstance(sub, ast.Attribute) and sub.attr == "_bracket"
                   for sub in ast.walk(node))]


def test_bracket_reader_is_detected():
    source = ("def bound(cmp):\n    return cmp._bracket\n"
              "def other(cmp):\n    return cmp.psi\n"
              "class Check:\n    def run(self, cmp):\n        return cmp._bracket[0]\n"
              "LO = CMP._bracket[0]\n")
    assert _bracket_readers(source) == ["bound", "Check", "<module>"]


def test_only_the_bound_evaluator_reads_the_bracket():
    # the rule that turns a nearest kernel call into a certified bound (the
    # bracket's gate, lo or hi, the Fraction fallback) lives in
    # kantorovich._bounds; lattice.py builds the bracket
    readers = {f"{module}:{name}" for module, source in _package_sources().items()
               if module != "lattice.py" for name in _bracket_readers(source)}
    assert readers == {"kantorovich.py:_bounds"}
