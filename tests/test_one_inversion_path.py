"""Each inversion in the package and its scripts goes through
``tikhonov.solve_inverse_problem``, which alone applies the parameter rule
alpha ~ max(delta, rho), and the rho it balances is that of the map being
inverted: ``SurrogateHandle.rho``, the one caller of ``surrogate_error``.  No
caller passes nu_N, rho_bound or any other number."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from invop.cli import cli_main
from invop.fem import ProblemKind
from invop.grid import GridFunction
from invop.serialize import load_linear_surrogate, load_structured
from invop.studies import StudyConfig, c_example_setup, run_study
from invop.tikhonov import RUN_COLUMNS, FemMap, NeuralMap, RankMap

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
#: the build command's status line reports the neural map's rho
BUILD = "src/invop/cli.py:_cmd_build"


@pytest.mark.parametrize("name,allowed", [
    ("choose_parameters", {"src/invop/tikhonov.py:solve_inverse_problem"}),
    ("TikhonovConfig", {"src/invop/tikhonov.py:solve_inverse_problem", VERIFY}),
    ("RankMap", INVERSIONS | {VERIFY}),
    ("NeuralMap", INVERSIONS | {VERIFY, BUILD}),
])
def test_only_the_entry_point_builds_an_inversion(name, allowed):
    assert all_callers(name) == allowed


def test_the_inversions_and_the_rho_measurements_are_these():
    assert all_callers("solve_inverse_problem") == INVERSIONS
    assert all_callers("surrogate_error") == {"src/invop/tikhonov.py:rho"}


def assert_balanced(rows, h, constant):
    """Each run row inverted the map h, built here apart from the run, with
    alpha = constant * max(delta, h.rho); rho binds on at least one row, so a
    rho that is not h's shows."""
    cells = [dict(zip(RUN_COLUMNS, row.split(","))) for row in rows]
    assert {c["surrogate"] for c in cells} == {h.label}
    assert [float(c["alpha"]) for c in cells] == [
        constant * max(float(c["delta"]), h.rho) for c in cells]
    assert any(float(c["delta"]) < h.rho for c in cells)


@pytest.mark.parametrize("problem,surrogate,label", [
    ("a", "fem", "FemForward"), ("c", "rank", "LinearRankN"), ("c", "neural", "NeuralOperator")])
def test_each_study_inversion_balances_a_measured_rho(problem, surrogate, label):
    cfg = StudyConfig("reg_rate", problem=problem, surrogate=surrogate, n_cells=32, n_quad=32,
                      n_trunk=4, ladder=(0.02, 1e-3, 1e-5, 1e-7))
    if problem == "a":
        one = GridFunction.constant(1.0, 32)
        h = FemMap(ProblemKind.A_EXAMPLE, one, one)
    else:
        ex = c_example_setup(cfg)
        h = RankMap(ex.ls) if surrogate == "rank" else NeuralMap(ex.coeffs, ex.ls)
    assert h.label == label
    assert_balanced(run_study(cfg).rows, h, cfg.constant)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_each_cli_inversion_balances_a_measured_rho(tmp_path):
    gen = _write(tmp_path / "gen.cfg", "[generate]\nproblem = c\nn_cells = 32\nload = 50.0\n"
                                       "[perturbation]\ncount = 2\n")
    build = _write(tmp_path / "build.cfg", f"[build]\ntraining = {tmp_path / 'train'}\n"
                                           "n_quad = 32\nn_trunk = 4\n")
    surr = str(tmp_path / "surr")
    assert cli_main(["generate", "--config", gen, "--out", str(tmp_path / "train"),
                     "--quiet"]) == 0
    assert cli_main(["build", "--config", build, "--out", surr, "--quiet"]) == 0
    ls, _ = load_linear_surrogate(surr + ".rank")
    f, x0 = GridFunction.constant(50.0, 32), GridFunction.constant(1.0, 32)
    maps = {"fem": FemMap(ProblemKind.C_EXAMPLE, f, x0),
            "rank": RankMap(ls), "neural": NeuralMap(load_structured(surr), ls)}
    for kind, h in maps.items():
        # the FEM map reads no surrogate file
        file = "" if kind == "fem" else f"surrogate_file = {surr}\n"
        solve = _write(tmp_path / "solve.cfg", f"[solve]\nproblem = c\nsurrogate = {kind}\n"
                       f"{file}n_cells = 32\nload = 50.0\n"
                       "delta = 1e-7\nconstant = 0.5\ntarget = prior\nmax_iterations = 20\n")
        out = tmp_path / f"{kind}.csv"
        assert cli_main(["solve", "--config", solve, "--out", str(out), "--quiet"]) == 0
        assert_balanced(out.read_text().splitlines()[1:], h, 0.5)


def test_each_script_inversion_balances_a_measured_rho(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("surrogate_pipeline",
                                                  ROOT / "scripts" / "surrogate_pipeline.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["surrogate_pipeline.py", "1e-6"])
    script.main()
    rows = capsys.readouterr().out.splitlines()[2:]
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    maps = (FemMap(ex.ls.problem, ex.ls.load, ex.ls.center[0]), RankMap(ex.ls),
            NeuralMap(ex.coeffs, ex.ls))
    for row, h in zip(rows, maps, strict=True):
        run, rho = row.rsplit(",", 1)
        assert float(rho) == h.rho
        assert_balanced([run], h, 0.15)
