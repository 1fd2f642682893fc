import ast
from pathlib import Path

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
