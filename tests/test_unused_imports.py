"""No module of the package, its tests or its scripts imports a name it never reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
#: the package's __init__ imports its public API, which it does not read itself
FILES = sorted(p for d in ("src/invop", "tests", "scripts") for p in (ROOT / d).glob("*.py")
               if p != ROOT / "src" / "invop" / "__init__.py")


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
