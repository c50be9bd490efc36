"""No module of the package imports a name it does not use, and every
exception type it defines is raised somewhere.

Read with the standard library's ast, so no linter is needed: a name bound by
an import statement counts as used when it is read anywhere in the module.
The package's __init__.py is exempt, since its imports are the re-exports,
and so are __future__ imports. An exception type counts as raised when a
raise statement calls it or names it.
"""

import ast
from pathlib import Path

import jicert

SRC = Path(jicert.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_the_guard_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from collections import deque as dq, Counter\n"
        "x = math.pi + len(Counter())\n"
    )
    assert unused_imports(source) == ["dq (line 3)", "os (line 2)"]


def test_package_modules_import_only_what_they_use():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def defined_exceptions(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def raised_names(source: str) -> set[str]:
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return raised


def test_the_guard_sees_raised_exceptions():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise KeyError\n"
        "err = TypeError('never raised')\n"
    )
    assert raised_names(source) == {"ValueError", "KeyError"}


def test_every_exception_type_is_raised():
    errors = defined_exceptions((SRC / "errors.py").read_text())
    assert "JicertError" in errors and len(errors) >= 10
    raised = set().union(*(raised_names(p.read_text()) for p in SRC.glob("*.py")))
    assert sorted(set(errors) - {"JicertError"} - raised) == []
