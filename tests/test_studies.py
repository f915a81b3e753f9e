import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invop
import invop.studies as studies
from invop.errors import ConfigInvalid, DegenerateFit, DegenerateScale
from invop.fem import ProblemKind, solve_forward_fem, solve_forward_reference
from invop.grid import GridFunction, SpaceKind, norm
from invop.studies import (
    RateTable,
    StudyConfig,
    c_example_setup,
    fit_slope,
    run_study,
    source_target_a,
)
from invop.tikhonov import RUN_COLUMNS, FemMap
from invop.training import (
    PerturbationSpec,
    assemble_neural_surrogate,
    generate_training_set,
    probe_pairs,
)

A = ProblemKind.A_EXAMPLE

# -- fit_slope --------------------------------------------------------------


def test_fit_slope_exact_power_law():
    slope, stderr = fit_slope([1, 2, 4], [1, 4, 16])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_slope_constant():
    slope, _ = fit_slope([1, 2, 4], [1, 1, 1])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_synthetic_self_test():
    ns = [16, 32, 64, 128, 256]
    errs = [3.0 * n ** -2 for n in ns]
    slope, stderr = fit_slope(ns, errs)
    assert slope == pytest.approx(-2.0, abs=1e-12)


def test_fit_slope_degenerate_abscissae():
    with pytest.raises(DegenerateFit):
        fit_slope([2, 2, 2], [1, 2, 3])


def test_fit_slope_needs_three_positive_points():
    with pytest.raises(DegenerateFit):
        fit_slope([1, 2, 4], [1.0, -1.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(-3, 3),
    c=st.floats(0.1, 10),
)
def test_fit_slope_recovers_any_power(p, c):
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [c * x ** p for x in xs]
    slope, _ = fit_slope(xs, ys)
    assert slope == pytest.approx(p, abs=1e-8)


# -- configuration validation -----------------------------------------------


def test_unknown_study_rejected():
    with pytest.raises(ConfigInvalid):
        StudyConfig("bogus")


def test_short_ladder_rejected():
    with pytest.raises(ConfigInvalid):
        StudyConfig("fem_rate", ladder=(16, 32, 64))


def test_non_monotone_ladder_rejected():
    with pytest.raises(ConfigInvalid):
        StudyConfig("fem_rate", ladder=(16, 64, 32, 128))
    with pytest.raises(ConfigInvalid):
        StudyConfig("fem_rate", ladder=(16, 16, 32, 64))


@pytest.mark.parametrize("field,value", [
    ("constant", float("nan")), ("xi", float("inf")), ("constant", float("-inf")),
    ("ladder", (0.1, 0.05, 0.025, float("nan"))), ("ladder", (0.1, 0.2, 0.3, float("inf")))],
    ids=["constant-nan", "xi-inf", "constant-minus-inf", "ladder-nan", "ladder-inf"])
def test_non_finite_real_rejected(field, value):
    with pytest.raises(ConfigInvalid, match=field):
        StudyConfig("reg_rate", **{field: value})


def test_bad_problem_rejected():
    with pytest.raises(ConfigInvalid):
        StudyConfig("reg_rate", problem="z")


def test_reg_rate_rejects_problem_surrogate_mismatch():
    for problem, surrogate in (("c", "fem"), ("a", "rank"), ("a", "neural")):
        with pytest.raises(ConfigInvalid, match="reg_rate"):
            StudyConfig("reg_rate", problem=problem, surrogate=surrogate)
    for problem, surrogate in (("a", "fem"), ("c", "rank"), ("c", "neural")):
        StudyConfig("reg_rate", problem=problem, surrogate=surrogate)


def test_default_ladders_validate():
    for study in ("fem_rate", "surrogate_error", "reg_rate", "mollify_rate"):
        cfg = StudyConfig(study)
        assert len(cfg.ladder) >= 4


# -- studies ----------------------------------------------------------------


def test_fem_rate_slopes_in_window():
    table = run_study(StudyConfig("fem_rate"))
    assert len(table.case_slopes) == 3
    for label, slope, stderr in table.case_slopes:
        assert -2.3 < slope < -1.7, label


def test_quadrature_rate_near_minus_two():
    table = run_study(StudyConfig("surrogate_error"))
    assert -2.3 < table.fitted_slope < -1.7


def test_mollify_rate_near_two():
    table = run_study(StudyConfig("mollify_rate"))
    assert 1.7 < table.fitted_slope < 2.3


def test_slope_recomputable_from_rows():
    table = run_study(StudyConfig("mollify_rate"))
    xs = [r[0] for r in table.rows]
    ys = [r[1] for r in table.rows]
    slope, _ = fit_slope(xs, ys)
    assert slope == pytest.approx(table.fitted_slope, abs=1e-12)


def _fem_map(problem, n, load, center):
    """The FEM map of a constant load around a constant center on n cells."""
    return FemMap(problem, GridFunction.constant(load, n), GridFunction.constant(center, n))


def test_rho_branch_binds_below_fem_rho():
    """On a coarse mesh the ladder crosses rho: above it alpha = delta, below
    it alpha = rho, and the error saturates at a level set by rho."""
    rho = _fem_map(A, 32, 1.0, 1.0).rho
    table = run_study(StudyConfig("reg_rate", problem="a", n_cells=32, constant=1.0,
                                  ladder=tuple(0.1 * 2.0 ** -k for k in range(3, 16))))
    rows = [dict(zip(RUN_COLUMNS, r.split(","))) for r in table.rows]
    above = [r for r in rows if float(r["delta"]) >= rho]
    below = [r for r in rows if float(r["delta"]) < rho]
    assert above and len(below) >= 3
    assert all(float(r["alpha"]) == float(r["delta"]) for r in above)
    assert all(float(r["alpha"]) == rho for r in below)
    plateau = [float(r["error_X"]) for r in below]
    assert max(plateau) <= 1.5 * min(plateau)
    assert max(plateau) < 0.01


def test_fem_rho_within_100x_of_the_nodal_error_at_the_target():
    # rho is measured on probes that exclude the target, so it may differ
    # from the error there, but by no more than two orders of magnitude
    for n in (16, 32, 64, 128, 256):
        f = GridFunction.constant(1.0, n)
        xt = source_target_a(A, GridFunction.constant(1.0, n), f)
        err = norm(solve_forward_fem(A, xt, f) - solve_forward_reference(A, xt, f),
                   SpaceKind.L2)
        assert err <= _fem_map(A, n, 1.0, 1.0).rho <= 100.0 * err, n


@pytest.mark.parametrize("problem,n,load", [(A, 16, 1.0), (A, 256, 1.0),
                                            (ProblemKind.C_EXAMPLE, 64, 50.0)])
def test_fem_rho_keeps_the_bits_of_its_probe_maximum(problem, n, load):
    # the FEM map's rho is the largest L2 error of the Galerkin solve over its
    # probe pairs, the six modes and their mix, computed here by hand
    f, x0 = GridFunction.constant(load, n), GridFunction.constant(1.0, n)
    ts = generate_training_set(problem, f, x0, PerturbationSpec(0.1, 6))
    pairs = tuple(zip(map(GridFunction, ts.x[1:]), map(GridFunction, ts.y[1:])))
    expect = max(norm(solve_forward_fem(problem, x, f) - y, SpaceKind.L2)
                 for x, y in pairs + probe_pairs(ts))
    assert _fem_map(problem, n, load, 1.0).rho == expect


@pytest.mark.parametrize("center", [0.1, 0.11, 0.1164])
def test_fem_rho_of_a_center_near_the_bound_names_the_least_center(center):
    # the probes reach 0.1 sqrt(2) center below the center, so on a mesh with
    # a node at s = 3/4 they stay above nu = 0.1 from 0.1 / (1 - 0.1 sqrt(2)) on
    least = 0.1 / (1.0 - 0.1 * np.sqrt(2.0))
    with pytest.raises(ValueError, match=rf"^center = {center!r} .* least center they "
                                         rf"admit is {least:.6g}$"):
        _fem_map(A, 32, 1.0, center)
    assert _fem_map(A, 32, 1.0, float(f"{least:.6g}")).rho > 0.0


def test_source_target_of_a_zero_load_raises_degenerate_scale():
    # the adjoint of zero data is zero, and 0.2 / max|g| was a division by zero
    x0 = GridFunction.constant(1.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateScale, match="source direction is zero"):
            source_target_a(A, x0, GridFunction.constant(0.0, 16))


def test_csv_written_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_study(StudyConfig("fem_rate", out=str(out1)))
    run_study(StudyConfig("fem_rate", out=str(out2)))
    assert out1.read_text() == out2.read_text()
    header = out1.read_text().splitlines()[0]
    assert header == "case,n,error_L2"


def test_study_output_independent_of_blas_threads(tmp_path):
    """Every study kind writes the same CSV, runtime_ms aside, whether numpy's
    OpenBLAS runs one thread or two: no result may depend on the core count."""
    ladder = (0.0125, 0.00625, 0.003125, 0.0015625)
    studies = {
        "surrogate_error": {"study": "surrogate_error"},
        "fem_rate": {"study": "fem_rate"},
        "mollify_rate": {"study": "mollify_rate"},
        "reg_rate_a": {"study": "reg_rate", "problem": "a", "ladder": ladder,
                       "n_cells": 64},
        "reg_rate_c_neural": {"study": "reg_rate", "problem": "c", "surrogate": "neural",
                              "ladder": ladder, "constant": 0.15, "xi": 1e-4,
                              "seed": 100},
    }
    src = str(Path(invop.__file__).resolve().parents[1])
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from invop import StudyConfig, run_study\n"
            "for name, kwargs in json.loads(sys.argv[2]).items():\n"
            "    run_study(StudyConfig(**kwargs, out=f'{sys.argv[3]}/{name}.csv'))")
    tables = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        subprocess.run([sys.executable, "-c", code, src, json.dumps(studies), str(out)],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), check=True,
                       timeout=120)
        for name in studies:
            lines = [ln.split(",") for ln in (out / f"{name}.csv").read_text().splitlines()]
            if "runtime_ms" in lines[0]:
                k = lines[0].index("runtime_ms")
                for cells in lines[1:]:
                    if len(cells) == len(lines[0]):
                        cells[k] = ""
            tables.setdefault(name, []).append(lines)
    assert [name for name, (one, two) in tables.items() if one != two] == []


def test_c_reg_rate_solves_each_input_once(reference_solves):
    # 6 training inputs, their center, their mix and the target: 9 distinct inputs
    run_study(StudyConfig("reg_rate", problem="c", surrogate="rank", n_cells=64,
                          n_train=6, n_quad=64, n_trunk=8))
    assert len(reference_solves) == 9


#: small reg_rate studies of both examples, and the memo of each one's seed-free setup
_SMALL_REG_RATE = {
    "a": (dict(problem="a", n_cells=64), lambda: studies._a_example_data(64)),
    "c": (dict(problem="c", surrogate="rank", n_cells=64, n_quad=64, n_trunk=8,
               constant=0.15), lambda: studies._c_example_data(64, 6)),
}


def _small_rows(problem, seed):
    kwargs, _ = _SMALL_REG_RATE[problem]
    table = run_study(StudyConfig("reg_rate", ladder=(0.02, 0.01, 0.005, 0.0025), seed=seed,
                                  **kwargs))
    drop = RUN_COLUMNS.index("runtime_ms")
    return [r.split(",")[:drop] + r.split(",")[drop + 1:] for r in table.rows]


@pytest.mark.parametrize("problem", ["a", "c"])
def test_studies_of_one_process_solve_each_reference_input_once(problem, reference_solves):
    # c: the 7 training inputs, their mix and the target; a: the 8 inputs of
    # the FEM map's probe set and the target.  The second seed solves none again.
    _small_rows(problem, 0)
    _small_rows(problem, 1)
    assert len(reference_solves) == len(set(reference_solves)) == 9


@pytest.mark.parametrize("problem", ["a", "c"])
def test_study_rows_are_the_same_from_a_cold_and_a_warm_memo(problem):
    studies._a_example_data.cache_clear()
    studies._c_example_data.cache_clear()
    cold = _small_rows(problem, 3)
    assert _small_rows(problem, 3) == cold


@pytest.mark.parametrize("problem", ["a", "c"])
def test_memoized_setup_is_read_only(problem):
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, GridFunction):
            yield value.values
        elif isinstance(value, FemMap):
            yield from arrays((value.load, value.center, value.probes))
        elif isinstance(value, tuple):  # LinearSurrogate and the pairs too
            for v in value:
                yield from arrays(v)

    found = list(arrays(_SMALL_REG_RATE[problem][1]()))
    assert len(found) >= (4 if problem == "a" else 9)
    for a in found:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_array_ladder_gives_the_table_of_the_equal_tuple():
    ladder = (0.2, 0.1, 0.05, 0.025)
    table = run_study(StudyConfig("mollify_rate", ladder=np.array(ladder)))
    assert table == run_study(StudyConfig("mollify_rate", ladder=ladder))
    assert StudyConfig("mollify_rate", ladder=np.array([])).ladder == \
        StudyConfig("mollify_rate").ladder


def test_c_example_diagnostics_match_fresh_probe_solves():
    """The diagnostics from the expansion's probe pairs equal those from
    solving the same probe inputs again, bit for bit; the target is no probe."""
    cfg = StudyConfig("reg_rate", problem="c", surrogate="neural", seed=100)
    ex = c_example_setup(cfg)
    ls = ex.ls
    fresh = tuple((x, solve_forward_reference(ls.problem, x, ls.load)) for x, _ in ls.probes)
    _, diag = assemble_neural_surrogate(ls._replace(probes=fresh), cfg.n_quad, cfg.n_trunk,
                                        cfg.seed + 1)
    assert ex.diag.nu_N > 0.0
    assert ex.diag == diag
    assert not any(np.array_equal(x.values, ex.xt.values) for x, _ in ls.probes)


def test_abort_preserves_partial_rows(tmp_path, monkeypatch):
    import invop.studies as studies

    calls = {"n": 0}
    orig = studies._fem_case_error

    def boom(case, n):
        calls["n"] += 1
        if calls["n"] > 4:
            raise RuntimeError("injected failure")
        return orig(case, n)

    monkeypatch.setattr(studies, "_fem_case_error", boom)
    out = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError):
        run_study(StudyConfig("fem_rate", out=str(out)))
    text = out.read_text()
    assert "aborted" in text
    assert len(text.splitlines()) >= 5  # header + 4 completed rows + flag


def test_rate_table_csv_lines_format():
    t = RateTable(("n", "error"), ((16, 0.125), (32, 0.03125)), -2.0, 0.0)
    lines = list(t.csv_lines())
    assert lines[0] == "n,error"
    assert lines[1] == "16,0.125"
