"""Source hygiene: no unused imports, no unused definitions, no bare asserts.

The scans read the sources as syntax trees.  For imports, in the package
and the tests, a name counts as used where it is loaded anywhere in the
module, where a string annotation names it, or where the module lists it in
__all__ to re-export it.  For definitions, every module-level function,
class and constant of the package, and every method and property of those
classes, must be loaded by name, bare or as an attribute, in the package or
the bench scripts, outside its own body or assignment; tests alone do not
keep a definition alive.  Dunder names, which Python reads itself, and rows
registered with @check, whose decorator is their use, are exempt.  The
package states its invariants with raise AssertionError, never an assert
statement, which python -O strips.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "gosset"
PACKAGE = sorted(PACKAGE_DIR.rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree):
    """(bound name, line) for each import in the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_catches_its_cases():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy.linalg\n"
        "from typing import Sequence, Iterator\n"
        "from .a import b, c\n"
        "from .d import e\n"
        "__all__ = ['b']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return numpy.linalg.norm(x)\n"
    )
    assert unused_imports(source) == [("os", 2), ("osp", 2), ("Iterator", 4), ("c", 5), ("e", 6)]


def _loads(node):
    """Each name loaded under node, bare or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _is_check_row(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "check"
        for d in node.decorator_list
    )


def _definitions(tree):
    """Each module-level function, class and constant, then the methods and
    properties of each class, as (qualified name, name, node); dunders and
    @check rows aside.  A constant's node is its assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_check_row(node):
            yield node.name, node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                    yield f"{node.name}.{member.name}", member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if isinstance(name.ctx, ast.Store) and not _is_dunder(name.id):
                    yield name.id, name.id, node


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unused_definitions(package, others):
    """(module, qualified name) of each definition in package that no source
    loads outside its own body.  Both arguments map module names to source
    text; only package is scanned for definitions."""
    trees = {module: ast.parse(source) for module, source in {**others, **package}.items()}
    loads = Counter(name for tree in trees.values() for name in _loads(tree))
    unused = []
    for module in package:
        for qualified, name, node in _definitions(trees[module]):
            if loads[name] == Counter(_loads(node))[name]:
                unused.append((module, qualified))
    return unused


def test_no_unused_definitions():
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE}
    bench = {f"perfbench/{p.name}": p.read_text() for p in BENCH}
    assert unused_definitions(package, bench) == []


def test_unused_definition_scan_catches_its_cases():
    package = {
        "a": (
            "def used(): pass\n"
            "def by_attribute(): pass\n"
            "def bench_only(): pass\n"
            "def tests_only(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Itself:\n"
            "    def copy(self): return Itself()\n"
            "def decorator(f): return f\n"
            "@decorator\n"
            "def decorated(): pass\n"
            "@check('suite', 'row')\n"
            "def _row(c): pass\n"
        ),
        "b": "from .a import used, tests_only\nfrom . import a\nused()\na.by_attribute()\n",
    }
    bench = {"bench": "from gosset.a import bench_only\nbench_only()\n"}
    assert unused_definitions(package, bench) == [
        ("a", "tests_only"), ("a", "recursive"), ("a", "Itself"), ("a", "Itself.copy"),
        ("a", "decorated"),
    ]
    assert unused_definitions(package, {}) == [
        ("a", "bench_only"), ("a", "tests_only"), ("a", "recursive"), ("a", "Itself"),
        ("a", "Itself.copy"), ("a", "decorated"),
    ]


def test_unused_definition_scan_covers_methods_and_properties():
    package = {
        "a": (
            "class Table:\n"
            "    size: int\n"
            "    def __init__(self): self.size = 0\n"
            "    def __len__(self): return self.size\n"
            "    def called(self): return self.helper()\n"
            "    def helper(self): return 1\n"
            "    def recursive(self): return self.recursive()\n"
            "    def tests_only(self): pass\n"
            "    @property\n"
            "    def read(self): return 1\n"
            "    @property\n"
            "    def unread(self): return 2\n"
            "    @staticmethod\n"
            "    def build(): return Table()\n"
        ),
        "b": "from .a import Table\nt = Table.build()\nt.called()\nprint(t.read)\n",
    }
    assert unused_definitions(package, {}) == [
        ("a", "Table.recursive"), ("a", "Table.tests_only"), ("a", "Table.unread")
    ]


def test_unused_definition_scan_covers_constants():
    package = {
        "a": (
            "ZERO = 0\n"
            "ONE: int = 1\n"
            "LOW, HIGH = 0, 9\n"
            "UNREAD = ZERO + ONE\n"
            "TESTS_ONLY = 2\n"
            "__all__ = []\n"
            "def f(): return LOW\n"
        ),
        "b": "from .a import f, HIGH\nf(HIGH)\n",
    }
    assert unused_definitions(package, {}) == [("a", "UNREAD"), ("a", "TESTS_ONLY")]


def bare_asserts(source):
    """Line of each assert statement in the module."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.relative_to(PACKAGE_DIR).as_posix())
def test_no_bare_asserts_in_the_package(path):
    assert bare_asserts(path.read_text()) == []


def test_bare_assert_scan_catches_its_cases():
    source = (
        "assert top_level\n"
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if x is None:\n"
        "        raise AssertionError('kept under -O')\n"
        "    return 'assert x'\n"
        "class C:\n"
        "    def g(self):\n"
        "        assert self\n"
    )
    assert bare_asserts(source) == [1, 3, 9]
