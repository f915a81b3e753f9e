import ast
import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import invop
import invop.cli  # the benchmark's CLI round calls invop.cli.cli_main
from invop.fem import ProblemKind
from invop.grid import GridFunction
from invop.neural import StructuredSurrogateCoeffs
from invop.tikhonov import FemMap, NeuralMap, RankMap, SurrogateHandle
from invop.training import LinearSurrogate

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _environment():
    """numpy's version and the core its bundled OpenBLAS runs on: the bits of
    the scripts' outputs are recorded per such environment."""
    lib = min((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"),
              default=None)
    if lib is None:
        return np.__version__, None
    corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return np.__version__, corename().decode()


def _digest(text):
    """sha256 of an output with its runtime_ms column, if any, blanked."""
    col, lines = None, []
    for line in text.splitlines():
        cells = line.split(",")
        if "runtime_ms" in cells:
            col = cells.index("runtime_ms")
        elif col is not None and len(cells) > col:
            cells[col] = ""
        lines.append(",".join(cells))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: digests of the scripts' outputs, by environment; a change that moves any
#: bit updates them and says why
DIGESTS = {
    ("2.4.6", "SkylakeX"): {
        "surrogate_pipeline 0.05": "5cefee8e6f564e85b0a31d72c780a89ca97d8aaea589745b01842fc20ea83c0c",
        "fem_rate.csv": "5cb840ad3ce6c9aaf6e368202a14ef2920d28e07b2f518f8342645d42bb86656",
        "quadrature_rate.csv": "62e3ce7411fb723fdc709ed6e28dfd355dbd5f9edd249f26d96185035be89361",
        "mollify_rate.csv": "0fcd2881bcb285c7cf750e79db21f3da803fbbadba8841b1d216aac877bbcabe",
        "reg_rate_a.csv": "e14242d90607ebefb68c8be95a0ec16e404f4d63d54ae0c4f04fad2156436a53",
        "reg_rate_c.csv": "f602ff58b36f378f87ef7e3aff84349398731787e0f4b0b49d07e0c99bdd4dce",
    },
}


def test_surrogate_pipeline_prints_one_row_per_map():
    src = str(Path(invop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(SCRIPTS / "surrogate_pipeline.py"), "0.05"],
                         capture_output=True, text=True, check=True, timeout=300, env=env)
    lines = out.stdout.splitlines()
    assert lines[0].startswith("diagnostics: nu_N=")
    assert tuple(lines[1].split(",")) == invop.RUN_COLUMNS + ("rho",)
    rows = [row.split(",") for row in lines[2:]]
    assert [row[1] for row in rows] == ["FemForward", "LinearRankN", "NeuralOperator"]
    # each row carries the rho its alpha balances: alpha = 0.15 max(delta, rho)
    alpha = invop.RUN_COLUMNS.index("alpha")
    for row in rows:
        assert float(row[alpha]) == 0.15 * max(0.05, float(row[-1]))
    digests = DIGESTS.get(_environment())
    if digests is not None:
        assert _digest(out.stdout) == digests["surrogate_pipeline 0.05"]


def test_run_all_studies_writes_five_tables(tmp_path):
    src = str(Path(invop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_all_studies.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=300, env=env)
    names = ("fem_rate", "quadrature_rate", "mollify_rate", "reg_rate_a", "reg_rate_c")
    for name in names:
        assert (tmp_path / f"{name}.csv").is_file(), name
    for name in ("reg_rate_a", "reg_rate_c"):
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == invop.RUN_COLUMNS, name
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(names)
    digests = DIGESTS.get(_environment())
    if digests is not None:
        for name in names:
            assert _digest((tmp_path / f"{name}.csv").read_text()) == digests[f"{name}.csv"], name


def test_scripts_import_only_public_names():
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("invop"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (path.name, node.module, private)


def test_bench_record_counts_the_source_lines_as_wc_does(tmp_path, monkeypatch):
    # the record carries the src/ line count beside the benchmark; the
    # perfbench runs and the test suite are stubbed out here
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    stub = {"result": {"metrics": {}}, "report": {"environment": {}}}
    monkeypatch.setattr(record, "_perfbench", lambda *args: stub)
    monkeypatch.setattr(record, "_tier1", lambda checkout: {"summary": "", "wall_s": 0.0})
    out = tmp_path / "BENCH_test.json"
    assert record.main(["test", "--out", str(out)]) == 0
    sources = sorted(str(p) for p in (ROOT / "src" / "invop").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *sources], capture_output=True, text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert json.loads(out.read_text())["src_lines"] == total > 0


def test_benchmark_tracer_hooks_hold():
    # perfbench/tracing.py wraps SurrogateHandle.forward and
    # .misfit_and_gradient by name; a map that overrides either one would
    # escape the wrapper and leave the tikhonov.map_s metric at zero
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    maps, todo = set(), [SurrogateHandle]
    while todo:  # every class below SurrogateHandle, not only its direct subclasses
        subs = todo.pop().__subclasses__()
        maps.update(subs)
        todo += subs
    assert {FemMap, RankMap, NeuralMap} <= maps
    for cls in maps:
        overridden = {"forward", "misfit_and_gradient"} & set(vars(cls))
        assert not overridden, (cls.__name__, overridden)


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_cli_round_runs(tmp_path):
    # the benchmark writes its own generate/build/solve configs and reads the
    # two surrogate files by name; a change that breaks either fails here first.
    # At seed 13, as the benchmark reports it, the two solves take 5 iterations
    # and the three files it writes (train.txt, surr.txt, surr.txt.rank) keep
    # their bytes
    workloads = _perfbench_module("workloads")
    rnd = workloads.cli_pipeline(invop, 13, tmp_path)
    assert rnd.errors == [] and rnd.problems == []
    surrogate = invop.RUN_COLUMNS.index("surrogate")
    assert [row[surrogate] for row in rnd.rows] == ["LinearRankN", "NeuralOperator"]
    assert rnd.iterations(invop) == 5
    assert rnd.digest == "240668a02f5a55ece8baff6aff5335948d165a2ecbd66a024c6557adee4096cd"


@pytest.mark.parametrize("name,iterations", [("c_neural_study", 114), ("a_fem_sweep", 394)])
def test_benchmark_study_round_runs(tmp_path, name, iterations):
    # the benchmark builds its studies from StudyConfig keywords of its own and
    # counts their iterations; a change that breaks a keyword or moves a count
    # fails here first (seed 13, as the benchmark reports it)
    workloads = _perfbench_module("workloads")
    rnd = workloads.WORKLOADS[name](invop, 13, tmp_path)
    assert rnd.errors == [] and rnd.problems == []
    assert rnd.iterations(invop) == iterations


def test_neural_kernel_traced_once_per_map_call():
    # perfbench/run.py counts neural.eval_grad_calls as the spans of this name
    tracing = _perfbench_module("tracing")
    kernel = "neural.eval_structured_with_gradient"
    coeffs = StructuredSurrogateCoeffs(
        np.array([0.0, 0.5, 1.0]),
        [[1.0, -0.5, 2.0, 0.3]], [0.5, 1.0, -1.0], [0.1, 0.0, -0.2, 0.0],
        [[1.0, 0.5]], [[2.0, -3.0]], [[0.0, 1.0]],
    )
    n = 8
    center = (GridFunction.constant(1.0, n), GridFunction.constant(0.0, n))
    # an expansion of its center pair alone: the map reads nothing else of it
    h = NeuralMap(coeffs, LinearSurrogate((), (), ProblemKind.C_EXAMPLE, center, center[1],
                                                ()))
    x = GridFunction.constant(1.1, n)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, {}):
        h.forward(x)
        h.misfit_and_gradient(x, GridFunction.constant(0.0, n))
    spans = [i for i, name in enumerate(tracer.name) if name == kernel]
    assert [tracer.name[tracer.parent[i]] for i in spans] == [
        "tikhonov.SurrogateHandle.forward", "tikhonov.SurrogateHandle.misfit_and_gradient"]
