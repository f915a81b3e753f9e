"""The file format lives in one module: only ``serialize`` imports ``zipfile``
or calls numpy's file readers and writers, so no other part of the package or
its scripts writes or parses a file of its own layout."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted(p for d in ("src/invop", "scripts") for p in (ROOT / d).glob("*.py"))
FILE_CALLS = {"save", "savez", "load", "loadtxt", "savetxt"}


def format_uses(source: str) -> set:
    """``import zipfile`` and the calls ``np.<name>`` or ``numpy.<name>`` of
    FILE_CALLS that ``source`` makes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                   else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(m.split(".")[0] == "zipfile" for m in modules):
            found.add("import zipfile")
        f = node.func if isinstance(node, ast.Call) else None
        if (isinstance(f, ast.Attribute) and f.attr in FILE_CALLS
                and isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")):
            found.add(f"np.{f.attr}")
    return found


def test_scan_finds_each_use():
    source = ("import zipfile as z\nfrom zipfile import ZipFile\nimport numpy as np\n"
              "def f(p):\n    np.savez(p, a=1)\n    return np.load(p), cfg.load(p)\n")
    assert format_uses(source) == {"import zipfile", "np.savez", "np.load"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_serialize_reads_or_writes_the_format(path):
    uses = format_uses(path.read_text())
    if path == ROOT / "src" / "invop" / "serialize.py":
        assert uses == {"import zipfile", "np.savez", "np.load"}
    else:
        assert uses == set()
