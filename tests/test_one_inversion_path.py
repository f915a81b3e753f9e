"""Each inversion in the package and its scripts goes through
``tikhonov.solve_inverse_problem``: it alone applies the parameter rule
alpha ~ max(delta, rho), and ``tikhonov.surrogate_map`` alone pairs a
surrogate map with its rho."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted(p for d in ("src/invop", "scripts") for p in (ROOT / d).glob("*.py"))


def callers(source: str, name: str) -> set:
    """The innermost functions of ``source`` that call ``name``, bare or as an
    attribute; a call at module level counts as ``<module>``."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_each_caller():
    source = "import m\nm.f(1)\ndef g():\n    def h():\n        return f()\n    return h\n" \
             "def k():\n    return f\n"
    assert callers(source, "f") == {"<module>", "h"}


def all_callers(name: str) -> set:
    return {f"{p.relative_to(ROOT)}:{fn}" for p in FILES for fn in callers(p.read_text(), name)}


@pytest.mark.parametrize("name,allowed", [
    ("choose_parameters", {"src/invop/tikhonov.py:solve_inverse_problem"}),
    # the verify command's gradient check evaluates the functional, it solves nothing
    ("TikhonovConfig", {"src/invop/tikhonov.py:solve_inverse_problem",
                        "src/invop/cli.py:grp_gradient"}),
    ("RankMap", {"src/invop/tikhonov.py:surrogate_map", "src/invop/cli.py:grp_gradient"}),
    ("NeuralMap", {"src/invop/tikhonov.py:surrogate_map", "src/invop/cli.py:grp_gradient"}),
])
def test_only_the_entry_point_builds_an_inversion(name, allowed):
    assert all_callers(name) == allowed
