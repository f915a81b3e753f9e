"""Each inversion in the package and its scripts goes through
``tikhonov.solve_inverse_problem``, which alone applies the parameter rule
alpha ~ max(delta, rho), and the rho it balances is always the value of
``tikhonov.surrogate_error`` for the map being inverted: no caller passes
nu_N, rho_bound or any other number."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import invop
import invop.cli
import invop.studies
from invop.cli import cli_main
from invop.studies import StudyConfig, run_study

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


#: every function that runs an inversion; the test_each_*_inversion_balances_a_measured_rho
#: tests below run each of them
INVERSIONS = {"src/invop/studies.py:_run_reg_rate", "src/invop/cli.py:_cmd_solve",
              "scripts/surrogate_pipeline.py:main"}
#: the verify command's gradient check evaluates the functional, it solves nothing
VERIFY = "src/invop/cli.py:grp_gradient"


@pytest.mark.parametrize("name,allowed", [
    ("choose_parameters", {"src/invop/tikhonov.py:solve_inverse_problem"}),
    ("TikhonovConfig", {"src/invop/tikhonov.py:solve_inverse_problem", VERIFY}),
    ("RankMap", INVERSIONS | {VERIFY}),
    ("NeuralMap", INVERSIONS | {VERIFY}),
])
def test_only_the_entry_point_builds_an_inversion(name, allowed):
    assert all_callers(name) == allowed


def test_the_inversions_and_the_rho_measurements_are_these():
    assert all_callers("solve_inverse_problem") == INVERSIONS
    assert all_callers("surrogate_error") == INVERSIONS | {"src/invop/studies.py:fem_rho"}


class Measured(float):
    """A rho that surrogate_error returned, with the label of the map it measured."""


MEMOS = (invop.studies._a_example_data, invop.studies._c_example_data, invop.studies.fem_rho)


@pytest.fixture
def measured(monkeypatch):
    """The labels of the maps inverted; an inversion whose rho is not the
    surrogate_error of a map of its kind fails the run."""
    measure, solve = invop.surrogate_error, invop.solve_inverse_problem
    inverted = []

    def tagged(h, pairs):
        rho = Measured(measure(h, pairs))
        rho.label = h.label
        return rho

    def checked(h, rho, *args):
        assert type(rho) is Measured, f"{h.label} balanced rho = {rho!r}, not a measurement"
        assert rho.label == h.label, f"{h.label} balanced the rho of {rho.label}"
        inverted.append(h.label)
        return solve(h, rho, *args)

    for module in (invop, invop.studies, invop.cli):
        monkeypatch.setattr(module, "surrogate_error", tagged)
        monkeypatch.setattr(module, "solve_inverse_problem", checked)
    for memo in MEMOS:  # a memo holds the untagged rho of an earlier test
        memo.cache_clear()
    yield inverted
    for memo in MEMOS:
        memo.cache_clear()


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("problem,surrogate,label", [
    ("a", "fem", "FemForward"), ("c", "rank", "LinearRankN"), ("c", "neural", "NeuralOperator")])
def test_each_study_inversion_balances_a_measured_rho(measured, problem, surrogate, label):
    run_study(StudyConfig("reg_rate", problem=problem, surrogate=surrogate, n_cells=32,
                          n_quad=32, n_trunk=4, ladder=(0.02, 0.01, 0.005, 0.0025)))
    assert measured == [label] * 4


def test_each_cli_inversion_balances_a_measured_rho(measured, tmp_path):
    gen = _write(tmp_path / "gen.cfg", "[generate]\nproblem = c\nn_cells = 32\nload = 50.0\n"
                                       "[perturbation]\ncount = 2\n")
    build = _write(tmp_path / "build.cfg", f"[build]\ntraining = {tmp_path / 'train'}\n"
                                           "n_quad = 32\nn_trunk = 4\n")
    assert cli_main(["generate", "--config", gen, "--out", str(tmp_path / "train"),
                     "--quiet"]) == 0
    assert cli_main(["build", "--config", build, "--out", str(tmp_path / "surr"),
                     "--quiet"]) == 0
    for kind in ("fem", "rank", "neural"):
        solve = _write(tmp_path / "solve.cfg", f"[solve]\nproblem = c\nsurrogate = {kind}\n"
                       f"surrogate_file = {tmp_path / 'surr'}\nn_cells = 32\nload = 50.0\n"
                       "delta = 1e-7\ntarget = prior\nmax_iterations = 20\n")
        assert cli_main(["solve", "--config", solve, "--quiet"]) == 0
    assert measured == ["FemForward", "LinearRankN", "NeuralOperator"]


def test_each_script_inversion_balances_a_measured_rho(measured, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("surrogate_pipeline",
                                                  ROOT / "scripts" / "surrogate_pipeline.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # it imports the checked names from invop
    monkeypatch.setattr(sys, "argv", ["surrogate_pipeline.py", "0.05"])
    script.main()
    assert measured == ["FemForward", "LinearRankN", "NeuralOperator"]
