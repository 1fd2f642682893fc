import ast
from pathlib import Path

import pytest

import stablecons

SOURCES = sorted(Path(stablecons.__file__).parent.glob("*.py"))


def called_name(callee):
    """The name a call reaches: ``f(...)``, ``self.f(...)`` or ``cls.f(...)``;
    a call on anything else, such as ``super().f(...)``, is another function."""
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
        if callee.value.id in ("self", "cls"):
            return callee.attr
    return None


def self_calls(tree):
    """(function, line) of every call a function makes to its own name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and called_name(inner.func) == node.name:
                    found.append((node.name, inner.lineno))
    return found


def test_the_sources_are_found():
    assert {path.name for path in SOURCES} >= {"decision.py", "formulas.py"}


def test_no_function_calls_itself():
    # deep formulas must never hit the interpreter's recursion limit
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert self_calls(tree) == [], path.name


def test_a_self_call_is_detected():
    source = (
        "def f(x):\n"
        "    return f(x - 1) if x else 0\n"
        "class C:\n"
        "    def g(self):\n"
        "        return super().g() + self.g()\n"
    )
    assert self_calls(ast.parse(source)) == [("f", 2), ("g", 5)]


def imports_numpy(tree):
    """Whether a module imports numpy or a submodule of it, anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            return True
    return False


def test_only_semantics_imports_numpy():
    # the lattice representation (dtype, top value, connective forms,
    # interval stacking) lives in one module
    found = [
        path.name
        for path in SOURCES
        if imports_numpy(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == ["semantics.py"]


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np\n", True),
        ("import os, numpy.linalg\n", True),
        ("def f():\n    from numpy import minimum\n", True),
        ("import numpyish\nfrom . import numpy\nx = numpy\n", False),
    ],
)
def test_a_numpy_import_is_detected(source, found):
    assert imports_numpy(ast.parse(source)) is found


REPOSITORY = Path(stablecons.__file__).parents[2]
PROGRAMS = [path for path in SOURCES if path.name != "__init__.py"] + sorted(
    path for folder in ("bench", "scripts") for path in (REPOSITORY / folder).glob("*.py")
)


def names_read(tree):
    """Every name a module reads, as a variable or an attribute, outside the
    top-level definition of that name itself."""
    found = set()
    for statement in tree.body:
        read = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        read.discard(getattr(statement, "name", None))
        found |= read
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    assert {path.parent.name for path in PROGRAMS} == {"stablecons", "bench", "scripts"}
    read = set()
    for path in PROGRAMS:
        read |= names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(stablecons.__all__) - read) == []


def test_a_name_read_only_by_its_own_definition_is_not_read():
    source = (
        "def f(x):\n"
        "    return f(x - 1) + g.h\n"
        "class C:\n"
        "    def m(self):\n"
        "        return C()\n"
        "y = f\n"
    )
    assert names_read(ast.parse(source)) == {"x", "g", "h", "f"}
