"""A grid function's nodal values fix its mesh, so no call in the package or
its scripts passes a cell count beside them: ``GridFunction`` takes the
values alone, and the array kernels take their arrays and a space.  In the
same way a forward map brings its problem, its center and its rho: no call
passes a problem, a center or a rho to ``solve_inverse_problem``, a problem
or a prior to ``TikhonovConfig`` or a center pair to ``NeuralMap``, and the
package reads neither off a ``TikhonovConfig``: the functional takes X, nu
and the prior center from the map.  ``FemMap``, which is given its problem
and center, takes exactly those and its load.  A call in the old form fails
only when it runs, or not at all; this scan also covers the paths that no
test runs."""

import ast
from pathlib import Path

import numpy as np
import pytest

from invop.fem import ProblemKind
from invop.grid import GridFunction, SpaceKind, inner, norm
from invop.tikhonov import (RankMap, TikhonovConfig, add_noise, minimize_tikhonov,
                            tikhonov_value_and_gradient)
from invop.training import PerturbationSpec, build_linear_surrogate, generate_training_set

ROOT = Path(__file__).parents[1]
FILES = sorted(p for d in ("src/invop", "scripts") for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "invop").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: kernel -> the number of arguments of each call
KERNEL_ARITY = {"_inner_nodal": 3, "gram_apply": 2, "gram_solve": 2,
                "_assemble": 2, "_galerkin_factors": 2, "_galerkin_solve": 3}


#: entry points -> the number of arguments of each call; all but FemMap take
#: their problem and center from a map or expansion
ENTRY_ARITY = {"solve_inverse_problem": 8, "NeuralMap": 2, "FemMap": 3}


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
    """Lines of the calls of ``name`` whose arity is not ENTRY_ARITY's, or,
    but for ``FemMap``, that pass a ``problem`` or ``center`` keyword, a
    tuple display or an attribute named ``problem`` or ``center``."""
    def names_one(node):
        return (isinstance(node, ast.Tuple) or isinstance(node, ast.Starred)
                or getattr(node, "attr", None) in ("problem", "center"))

    return [node.lineno for node in call_nodes(source, name)
            if len(node.args) + len(node.keywords) != ENTRY_ARITY[name]
            or name != "FemMap" and (
                any(k.arg in ("problem", "center") or names_one(k.value) for k in node.keywords)
                or any(map(names_one, node.args)))]


def all_calls(name: str) -> list:
    return [(f"{p.relative_to(ROOT)}:{line}", n, kw)
            for p in FILES for line, n, kw in calls(p.read_text(), name)]


def test_scan_counts_arguments():
    source = "import g\ng.f(1, 2)\ndef h(a):\n    return f(a, k=3) + f(*a)\n"
    assert calls(source, "f") == [(2, 2, []), (4, 1, ["k"]), (4, -1, [])]


def test_scan_finds_a_restated_problem_or_center():
    source = ("solve_inverse_problem(h, rho, x0, xt, y, d, s, c, xi, it)\n"
              "solve_inverse_problem(h, xt, y, d, s, c, xi, problem=p)\n"
              "solve_inverse_problem(h, ex.center, y, d, s, c, xi, it)\n"
              "solve_inverse_problem(h, xt, y, d, s, c, xi, it)\n"
              "m.NeuralMap(coeffs, ls.center)\nNeuralMap(coeffs, (x0, y0))\n"
              "NeuralMap(coeffs, center=c)\nNeuralMap(coeffs, ls)\n"
              "FemMap(prob, f)\nFemMap(ls.problem, ls.load, ls.center[0])\n")
    assert restated(source, "solve_inverse_problem") == [1, 2, 3]
    assert restated(source, "NeuralMap") == [5, 6, 7]
    assert restated(source, "FemMap") == [9]


@pytest.mark.parametrize("name", ENTRY_ARITY)
def test_maps_bring_their_problem_and_center(name):
    assert all_calls(name)
    assert [f"{p.relative_to(ROOT)}:{line}"
            for p in FILES for line in restated(p.read_text(), name)] == []


#: the fields of TikhonovConfig: alpha, eta, xi and max_iterations
CONFIG_ARITY = 4

#: the fields that a map, not a TikhonovConfig, brings: its problem and its
#: prior center
MAP_FIELDS = ("problem", "x0")


def config_given_a_problem(source: str) -> list:
    """Lines of the ``TikhonovConfig`` calls that pass more arguments than
    it has fields, a ``problem`` or ``x0`` keyword, a ``**mapping`` (whose
    keys the scan cannot read), or an argument that names a problem or a
    prior: a ``problem``, ``prob`` or ``x0`` name, a ProblemKind member or
    its ``A`` or ``C`` alias, an attribute named ``problem``, ``center`` or
    ``x0``, or an item of one."""
    def names_one(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return (getattr(node, "id", None) in ("problem", "prob", "A", "C", "x0")
                or getattr(node, "attr", None) in ("problem", "A_EXAMPLE", "C_EXAMPLE",
                                                   "center", "x0"))

    return [node.lineno for node in call_nodes(source, "TikhonovConfig")
            if len(node.args) + len(node.keywords) > CONFIG_ARITY
            or any(k.arg is None or k.arg in MAP_FIELDS or names_one(k.value)
                   for k in node.keywords)
            or any(map(names_one, node.args))]


def config_problem_reads(source: str) -> list:
    """Lines that read ``problem`` or ``x0`` off a TikhonovConfig: off a name
    annotated as one, or off a ``cfg`` that its function does not annotate
    as a StudyConfig (whose ``problem`` is the study's problem name)."""
    found = []

    def visit(node, annotations):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            annotations = {**annotations, **{
                arg.arg: arg.annotation and ast.unparse(arg.annotation)
                for arg in a.posonlyargs + a.args + a.kwonlyargs}}
        if (isinstance(node, ast.Attribute) and node.attr in MAP_FIELDS
                and isinstance(node.value, ast.Name)):
            kind = annotations.get(node.value.id)
            if kind == "TikhonovConfig" or (node.value.id == "cfg" and kind != "StudyConfig"):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, annotations)

    visit(ast.parse(source), {})
    return found


def test_scan_finds_a_problem_given_to_or_read_off_a_config():
    source = ("TikhonovConfig(a, e, xi, problem=p)\nTikhonovConfig(a, e, xi, C, 20)\n"
              "TikhonovConfig(a, e, xi, h.problem)\nTikhonovConfig(a, e, xi, 20, 1)\n"
              "TikhonovConfig(a, e, xi, max_iterations=20)\n"
              "TikhonovConfig(a, e, xi, x0=h.center)\nTikhonovConfig(a, e, xi, h.center)\n"
              "TikhonovConfig(a, e, xi, ls.center[0], 20)\n"
              "def f(cfg):\n    return cfg.problem, cfg.xi\n"
              "def g(c: TikhonovConfig, h):\n    return c.problem.nu, h.problem\n"
              "def k(cfg: StudyConfig):\n    return cfg.problem == 'a'\n"
              "def p(c: TikhonovConfig, h):\n    return c.x0.values - h.center.values\n"
              "cfg = m.TikhonovConfig(1, 1, 0, x0)\nspace = cfg.problem.image_space\n"
              "d = x - cfg.x0\n"
              "TikhonovConfig(**base)\nTikhonovConfig(a, e, **{'xi': 0.0})\n")
    assert config_given_a_problem(source) == [1, 2, 3, 4, 6, 7, 8, 17, 20, 21]
    assert config_problem_reads(source) == [10, 12, 16, 18, 19]


def test_the_functional_takes_its_problem_from_the_map():
    assert [f"{p.relative_to(ROOT)}:{line}" for p in FILES + TESTS
            for line in config_given_a_problem(p.read_text())] == []
    assert [f"{p.relative_to(ROOT)}:{line}" for p in PACKAGE
            for line in config_problem_reads(p.read_text())] == []


def test_c_rank_map_certifies_its_stop_in_l2():
    # the c rank map brings X = L2: its run stops at the closed-form L2
    # minimizer, with the gradient norm of the certificate taken in L2; a
    # config that brought H1 stopped elsewhere and reported "converged"
    C, L2, n, alpha = ProblemKind.C_EXAMPLE, SpaceKind.L2, 32, 1e-3
    f, x0 = GridFunction.constant(50.0, n), GridFunction.constant(1.0, n)
    ls = build_linear_surrogate(generate_training_set(C, f, x0, PerturbationSpec(0.1, 3)))
    h = RankMap(ls)
    y_delta = add_noise(h.forward(x0 + GridFunction(0.05 * ls.basis[0])), 1e-3, 1)
    cfg = TikhonovConfig(alpha, alpha ** 2, 0.0)
    res = minimize_tikhonov(h, y_delta, cfg)
    r = y_delta - ls.center[1]
    induced = [GridFunction(y) for y in ls.induced]
    G = np.array([[inner(a, b, L2) for b in induced] for a in induced])
    c = np.linalg.solve(G + alpha * np.eye(len(G)), [inner(y, r, L2) for y in induced])
    x_star = x0 + GridFunction(sum(ci * b for ci, b in zip(c, ls.basis)))
    assert res.certificate.status == "converged"
    assert norm(res.x - x_star, L2) <= 1e-10
    _, g = tikhonov_value_and_gradient(h, res.x, y_delta, cfg)
    assert res.certificate.gradient_norm == norm(GridFunction(g), L2)


def test_grid_functions_are_built_from_their_values_alone():
    found = all_calls("GridFunction")
    assert len(found) > 20
    assert [c for c in found if c[1:] != (1, [])] == []


@pytest.mark.parametrize("name,arity", KERNEL_ARITY.items())
def test_kernels_take_no_cell_count(name, arity):
    found = all_calls(name)
    assert found
    assert [c for c in found if c[1] < 0 or c[1] + len(c[2]) != arity] == []
