"""No module of the package, its tests or its scripts imports a name it never reads,
no module of the package defines a private top-level name the package never reads,
and none defines a public one that no module of the package, its scripts, its tests
or the benchmark reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
#: the package's __init__ imports its public API, which it does not read itself
FILES = sorted(p for d in ("src/invop", "tests", "scripts") for p in (ROOT / d).glob("*.py")
               if p != ROOT / "src" / "invop" / "__init__.py")
PACKAGE = sorted((ROOT / "src" / "invop").glob("*.py"))


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n" \
             "from a import b, c as d\nprint(os.path.sep, d)\n"
    assert unused_imports(source) == ["np", "b"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list:
    """The top-level functions, classes and assigned names of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(source: str) -> list:
    """The top-level names of ``source`` that start with one underscore."""
    return [name for name in definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set:
    """The names ``source`` reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_scan_finds_an_unread_private_helper():
    source = "_A = 1\n__all__ = []\ndef _b():\n    return _A\ndef _c(): pass\n" \
             "class _D: pass\nx = m._D\n_b()\n"
    assert [n for n in private_definitions(source) if n not in read_names(source)] == ["_c"]


def test_no_unread_private_helper():
    sources = {p.name: p.read_text() for p in PACKAGE}
    read = set().union(*(read_names(s) for s in sources.values()))
    assert [f"{name}: {helper}" for name, s in sources.items()
            for helper in private_definitions(s) if helper not in read] == []


#: modules whose reads keep a public name of the package in use; the
#: package's __init__ imports its API without reading it
READERS = sorted(p for d in ("src/invop", "scripts", "tests", "perfbench")
                 for p in (ROOT / d).glob("*.py"))


def test_scan_finds_an_unread_public_name():
    source = "A = 1\n__all__ = []\ndef b():\n    return A\ndef c(): pass\nclass D: pass\n"
    reader = "from m import D\nx = D\nm.b()\n"
    read = read_names(source) | read_names(reader)
    assert [n for n in definitions(source) if not n.startswith("_") and n not in read] == ["c"]


def test_no_unread_public_name():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    assert [f"{p.name}: {name}" for p in PACKAGE if p.name != "__init__.py"
            for name in definitions(p.read_text())
            if not name.startswith("_") and name not in read] == []
