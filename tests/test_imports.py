"""No module of the package imports a name it does not use, every exception
type it defines is raised somewhere, and every public function and method
it defines is read by name somewhere in the package or its tests.

Read with the standard library's ast, so no linter is needed: a name bound by
an import statement counts as used when it is read anywhere in the module.
The package's __init__.py is exempt, since its imports are the re-exports,
and so are __future__ imports. An exception type counts as raised when a
raise statement calls it or names it. A function or method counts as read
when a name or attribute of its name is read outside its own body.
"""

import ast
from collections import Counter
from pathlib import Path

import jicert

SRC = Path(jicert.__file__).parent
TESTS = Path(__file__).parent


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


def public_definitions(source: str) -> list[str]:
    """Module-level functions and class methods whose names have no leading
    underscore, as name or Class.name."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            out.extend(f"{node.name}.{item.name}" for item in methods)
    return [name for name in out if not name.rpartition(".")[2].startswith("_")]


def read_names(source: str) -> Counter:
    """How often each name is read as a name or an attribute, less the reads
    inside a function of the same name (its recursion)."""
    tree = ast.parse(source)

    def reads(node) -> Counter:
        found = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found[sub.id] += 1
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                found[sub.attr] += 1
        return found

    total = reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            total[node.name] -= reads(node)[node.name]
    return +total


def test_the_guard_sees_unread_definitions():
    source = (
        "def used(n):\n"
        "    return 0 if n == 0 else used(n - 1)\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def _private():\n"
        "    pass\n"
        "class K:\n"
        "    def method(self):\n"
        "        return used(1)\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    assert public_definitions(source) == ["used", "recursive", "K.method"]
    read = read_names(source)
    assert (read["used"], read["recursive"], read["method"]) == (1, 0, 0)


def test_every_public_function_is_read():
    read = Counter()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]:
        read.update(read_names(path.read_text()))
    unread = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in public_definitions(path.read_text())
        if not read[name.rpartition(".")[2]]
    ]
    assert len(read) > 100 and unread == []
