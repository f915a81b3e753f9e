"""A grid function's nodal values fix its mesh, so no call in the package or
its scripts passes a cell count beside them: ``GridFunction`` takes the
values alone, and the array kernels take their arrays and a space.  A call
in the old form raises TypeError only when it runs; this scan also covers
the paths that no test runs."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted(p for d in ("src/invop", "scripts") for p in (ROOT / d).glob("*.py"))

#: kernel -> the number of arguments of each call
KERNEL_ARITY = {"_inner_nodal": 3, "gram_apply": 2, "gram_solve": 2,
                "_assemble": 2, "_galerkin_factors": 2, "_galerkin_solve": 3}


def calls(source: str, name: str) -> list:
    """(line, positional count, keyword names) of each call of ``name`` in
    ``source``, bare or as an attribute; a starred argument counts as -1."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                found.append((node.lineno, -1 if starred else len(node.args),
                              [k.arg for k in node.keywords]))
    return found


def all_calls(name: str) -> list:
    return [(f"{p.relative_to(ROOT)}:{line}", n, kw)
            for p in FILES for line, n, kw in calls(p.read_text(), name)]


def test_scan_counts_arguments():
    source = "import g\ng.f(1, 2)\ndef h(a):\n    return f(a, k=3) + f(*a)\n"
    assert calls(source, "f") == [(2, 2, []), (4, 1, ["k"]), (4, -1, [])]


def test_grid_functions_are_built_from_their_values_alone():
    found = all_calls("GridFunction")
    assert len(found) > 20
    assert [c for c in found if c[1:] != (1, [])] == []


@pytest.mark.parametrize("name,arity", KERNEL_ARITY.items())
def test_kernels_take_no_cell_count(name, arity):
    found = all_calls(name)
    assert found
    assert [c for c in found if c[1] < 0 or c[1] + len(c[2]) != arity] == []
