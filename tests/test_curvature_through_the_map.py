"""Curvature reaches the optimizer only through the forward-map interface:
``minimize_tikhonov`` and ``_LbfgsMemory`` ask the map for its inverse
Hessian and name no map class, and no label is compared to pick a path."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).parents[1] / "src" / "invop" / "tikhonov.py"


def map_classes(tree: ast.Module) -> set:
    """The classes of the module that derive from SurrogateHandle, directly
    or through other classes of the module."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in tree.body if isinstance(node, ast.ClassDef)}
    found = set()
    while True:
        below = {name for name, b in bases.items() if b & (found | {"SurrogateHandle"})}
        if below == found:
            return found
        found = below


def dispatch(node: ast.AST, classes: set) -> list:
    """Every place under ``node`` that names one of ``classes`` or compares
    a ``label``."""
    found = []
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if isinstance(sub, (ast.Name, ast.Attribute)) and name in classes:
            found.append(f"line {sub.lineno}: names {name}")
        if isinstance(sub, ast.Compare) and any(
                isinstance(a, ast.Attribute) and a.attr == "label"
                for part in [sub.left, *sub.comparators] for a in ast.walk(part)):
            found.append(f"line {sub.lineno}: compares a label")
    return found


def test_scan_finds_each_dispatch():
    source = ("class RankMap(SurrogateHandle):\n    pass\n"
              "def f(h):\n    if isinstance(h, RankMap):\n        return 1\n"
              "    if h.label == 'x':\n        return 2\n    return invop.tikhonov.RankMap\n")
    tree = ast.parse(source)
    assert map_classes(tree) == {"RankMap"}
    # a class below another map class counts, wherever the module defines it
    chain = "class R(B):\n    pass\nclass B(SurrogateHandle):\n    pass\nclass X(Y):\n    pass\n"
    assert map_classes(ast.parse(chain)) == {"R", "B"}
    assert set(dispatch(tree.body[1], {"RankMap"})) == {
        "line 4: names RankMap", "line 6: compares a label", "line 8: names RankMap"}


@pytest.mark.parametrize("name", ["minimize_tikhonov", "_LbfgsMemory"])
def test_optimizer_names_no_map_class(name):
    tree = ast.parse(SOURCE.read_text())
    classes = map_classes(tree)
    assert {"FemMap", "RankMap", "NeuralMap"} <= classes
    (node,) = [n for n in tree.body if getattr(n, "name", None) == name]
    assert dispatch(node, classes) == []
