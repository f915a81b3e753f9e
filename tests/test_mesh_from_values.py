"""A grid function's nodal values fix its mesh, so no call in the package or
its scripts passes a cell count beside them: ``GridFunction`` takes the
values alone, and the array kernels take their arrays and a space.  In the
same way a forward map brings its problem and the neural map its center:
no call passes a problem to ``solve_inverse_problem`` or a center pair to
``NeuralMap``.  A call in the old form fails only when it runs, or not at
all; this scan also covers the paths that no test runs."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
FILES = sorted(p for d in ("src/invop", "scripts") for p in (ROOT / d).glob("*.py"))

#: kernel -> the number of arguments of each call
KERNEL_ARITY = {"_inner_nodal": 3, "gram_apply": 2, "gram_solve": 2,
                "_assemble": 2, "_galerkin_factors": 2, "_galerkin_solve": 3}


#: entry points that take their problem or center from a map or expansion
#: -> the number of arguments of each call
ENTRY_ARITY = {"solve_inverse_problem": 10, "NeuralMap": 2}


def call_nodes(source: str, name: str) -> list:
    """Each call of ``name`` in ``source``, bare or as an attribute."""
    return [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) == name]


def calls(source: str, name: str) -> list:
    """(line, positional count, keyword names) of each call of ``name`` in
    ``source``, bare or as an attribute; a starred argument counts as -1."""
    return [(node.lineno, -1 if any(isinstance(a, ast.Starred) for a in node.args)
             else len(node.args), [k.arg for k in node.keywords])
            for node in call_nodes(source, name)]


def restated(source: str, name: str) -> list:
    """Lines of the calls of ``name`` whose arity is not ENTRY_ARITY's, or
    that pass a ``problem`` or ``center`` keyword, a tuple display or an
    attribute named ``problem`` or ``center``."""
    def names_one(node):
        return (isinstance(node, ast.Tuple) or isinstance(node, ast.Starred)
                or getattr(node, "attr", None) in ("problem", "center"))

    return [node.lineno for node in call_nodes(source, name)
            if len(node.args) + len(node.keywords) != ENTRY_ARITY[name]
            or any(k.arg in ("problem", "center") or names_one(k.value) for k in node.keywords)
            or any(map(names_one, node.args))]


def all_calls(name: str) -> list:
    return [(f"{p.relative_to(ROOT)}:{line}", n, kw)
            for p in FILES for line, n, kw in calls(p.read_text(), name)]


def test_scan_counts_arguments():
    source = "import g\ng.f(1, 2)\ndef h(a):\n    return f(a, k=3) + f(*a)\n"
    assert calls(source, "f") == [(2, 2, []), (4, 1, ["k"]), (4, -1, [])]


def test_scan_finds_a_restated_problem_or_center():
    source = ("solve_inverse_problem(h, rho, prob, x0, xt, y, d, s, c, xi, it)\n"
              "solve_inverse_problem(h, rho, x0, xt, y, d, s, c, xi, it, problem=p)\n"
              "solve_inverse_problem(h, rho, ex.problem, xt, y, d, s, c, xi, it)\n"
              "solve_inverse_problem(h, rho, x0, xt, y, d, s, c, xi, it)\n"
              "m.NeuralMap(coeffs, ls.center)\nNeuralMap(coeffs, (x0, y0))\n"
              "NeuralMap(coeffs, center=c)\nNeuralMap(coeffs, ls)\n")
    assert restated(source, "solve_inverse_problem") == [1, 2, 3]
    assert restated(source, "NeuralMap") == [5, 6, 7]


@pytest.mark.parametrize("name", ENTRY_ARITY)
def test_maps_bring_their_problem_and_center(name):
    assert all_calls(name)
    assert [f"{p.relative_to(ROOT)}:{line}"
            for p in FILES for line in restated(p.read_text(), name)] == []


def test_grid_functions_are_built_from_their_values_alone():
    found = all_calls("GridFunction")
    assert len(found) > 20
    assert [c for c in found if c[1:] != (1, [])] == []


@pytest.mark.parametrize("name,arity", KERNEL_ARITY.items())
def test_kernels_take_no_cell_count(name, arity):
    found = all_calls(name)
    assert found
    assert [c for c in found if c[1] < 0 or c[1] + len(c[2]) != arity] == []
