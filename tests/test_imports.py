"""No module of the package imports a name it does not use.

Read with the standard library's ast, so no linter is needed: a name bound by
an import statement counts as used when it is read anywhere in the module.
The package's __init__.py is exempt, since its imports are the re-exports,
and so are __future__ imports.
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
