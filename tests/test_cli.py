from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from containers import edit, read_fields

import invop.tikhonov
from invop.cli import COMMAND_SECTIONS, SECTION_KEYS, cli_main
from invop.config import load_config, read_section, study_config
from invop.fem import ProblemKind, solve_forward_reference
from invop.grid import GridFunction, SpaceKind, norm
from invop.serialize import load_linear_surrogate, load_structured, load_training_set
from invop.studies import StudyConfig, source_target_a
from invop.tikhonov import (FemMap, NeuralMap, RankMap, RegularizationRun, SurrogateHandle,
                            TikhonovConfig, add_noise, choose_parameters, minimize_tikhonov,
                            surrogate_error)
from invop.training import assemble_neural_surrogate, build_linear_surrogate


def _write(path, text):
    path.write_text(text)
    return str(path)


def _row_without_runtime(path):
    cells = path.read_text().splitlines()[1].split(",")
    cells[11] = ""
    return cells


def test_verify_passes(capsys):
    assert cli_main(["verify"]) == 0
    out = capsys.readouterr().out
    for group in ("discretization", "noise", "gradient", "mollifier",
                  "schema", "determinism"):
        assert f"ok {group}" in out


def test_verify_quiet_silences_stdout(capsys):
    assert cli_main(["verify", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_missing_config_exits_one(capsys):
    assert cli_main(["study"]) == 1
    assert cli_main(["study", "--config", "/nonexistent.cfg"]) == 1


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path / "bad.cfg", "[study]\nstudy = bogus\n")
    assert cli_main(["study", "--config", cfg]) == 1


def test_study_writes_csv(tmp_path, capsys):
    cfg = _write(tmp_path / "s.cfg",
                 "[study]\nstudy = mollify_rate\n"
                 "ladder = 0.2, 0.1, 0.05, 0.025\n")
    out = tmp_path / "table.csv"
    assert cli_main(["study", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,error_L2"
    assert len(lines) == 5


def test_study_reruns_bit_identical(tmp_path):
    cfg = _write(tmp_path / "s.cfg",
                 "[study]\nstudy = fem_rate\nladder = 16, 32, 64, 128\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["study", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert cli_main(["study", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    assert out1.read_text() == out2.read_text()


def test_generate_build_solve_pipeline(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.cfg", """
[generate]
problem = c
n_cells = 96
load = 50.0
center = 1.0

[perturbation]
mode = sine
amplitude = 0.1
count = 3
""")
    ts_path = tmp_path / "train.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path)]) == 0
    ts = load_training_set(ts_path)
    assert ts.n_train == 3

    build_cfg = _write(tmp_path / "build.cfg", f"""
[build]
training = {ts_path}
n_quad = 96
n_trunk = 10
seed = 1
""")
    surr_path = tmp_path / "surr.txt"
    assert cli_main(["build", "--config", build_cfg, "--out", str(surr_path)]) == 0
    coeffs = load_structured(surr_path)
    assert coeffs.n_terms == 3
    assert (tmp_path / "surr.txt.rank").exists()

    solve_cfg = _write(tmp_path / "solve.cfg", f"""
[solve]
problem = c
surrogate = neural
surrogate_file = {surr_path}
n_cells = 96
load = 50.0
delta = 0.001
constant = 0.15
target = prior
max_iterations = 2000
""")
    out_csv = tmp_path / "run.csv"
    assert cli_main(["solve", "--config", solve_cfg, "--out", str(out_csv),
                     "--quiet"]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("problem,surrogate,")
    assert lines[1].split(",")[1] == "NeuralOperator"


def test_solve_fem_with_seed_override(tmp_path):
    cfg = _write(tmp_path / "solve.cfg", """
[solve]
problem = a
surrogate = fem
n_cells = 64
delta = 0.001
""")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out1),
                     "--seed", "5", "--quiet"]) == 0
    assert cli_main(["solve", "--config", cfg, "--out", str(out2),
                     "--seed", "5", "--quiet"]) == 0

    assert _row_without_runtime(out1) == _row_without_runtime(out2)
    assert _row_without_runtime(out1)[12] == "5"


def test_fem_solve_defaults_to_the_problem_space(tmp_path):
    # problem c identifies a reaction coefficient, whose solution space is L2:
    # the CLI run is the library run with X = L2
    cfg = _write(tmp_path / "default.cfg", "[solve]\nproblem = c\nsurrogate = fem\n"
                 "n_cells = 64\nload = 50.0\ndelta = 0.001\nmax_iterations = 200\n")
    out = tmp_path / "default.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    prob, n, delta = ProblemKind.C_EXAMPLE, 64, 1e-3
    f, x0 = GridFunction.constant(50.0, n), GridFunction.constant(1.0, n)
    xt = source_target_a(prob, x0, f)
    h = FemMap(prob, f, x0)
    alpha, eta = choose_parameters(delta, h.rho, 1.0)
    tik = TikhonovConfig(alpha=alpha, eta=eta, xi=0.0, max_iterations=200)
    yd = add_noise(solve_forward_reference(prob, xt, f), delta, 0)
    res = minimize_tikhonov(h, yd, tik)
    expect = RegularizationRun("c", "FemForward", n, 0, delta, alpha, eta, 0.0,
                               res.certificate.iterations, res.certificate.gradient_norm,
                               norm(res.x - xt, SpaceKind.L2), 0.0, 0).csv_row().split(",")
    expect[11] = ""
    assert _row_without_runtime(out) == expect


_SMALL_GENERATE = """
[generate]
problem = c
n_cells = 32
load = 50.0

[perturbation]
count = 2
"""


def _small_build(tmp_path, training):
    return _write(tmp_path / "build.cfg",
                  f"[build]\ntraining = {training}\nn_quad = 32\nn_trunk = 4\n")


def test_build_solves_only_the_mixed_probe(tmp_path, reference_solves):
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path = tmp_path / "train.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    reference_solves.clear()
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(tmp_path / "surr.txt"), "--quiet"]) == 0
    assert len(reference_solves) == 1


def test_build_diagnostics_match_fresh_probe_solves(tmp_path):
    """nu_N, q_N and rho_bound from the stored training pairs equal those
    from solving every probe input again, bit for bit."""
    surr_path = _small_surrogate(tmp_path)
    _, stored = load_linear_surrogate(str(surr_path) + ".rank")
    ls = build_linear_surrogate(load_training_set(tmp_path / "train.txt"))
    fresh = tuple((x, solve_forward_reference(ls.problem, x, ls.load)) for x, _ in ls.probes)
    _, diag = assemble_neural_surrogate(ls._replace(probes=fresh), 32, 4, 1)
    assert stored.nu_N > 0.0
    assert (stored.nu_N, stored.q_N, stored.rho_bound) == (diag.nu_N, diag.q_N, diag.rho_bound)


def test_a_quiet_build_measures_no_rho(tmp_path, capsys, monkeypatch):
    # rho costs a surrogate_error pass: a quiet build, which prints it nowhere,
    # makes none, and a loud build prints the rho of the map on its files
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path, surr_path = tmp_path / "train.txt", tmp_path / "surr.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    calls, measure = [], invop.tikhonov.surrogate_error
    monkeypatch.setattr(invop.tikhonov, "surrogate_error",
                        lambda *args: calls.append(args) or measure(*args))
    build = ["build", "--config", _small_build(tmp_path, ts_path), "--out", str(surr_path)]
    assert cli_main(build + ["--quiet"]) == 0
    assert calls == []
    capsys.readouterr()
    assert cli_main(build) == 0
    assert len(calls) == 1
    ls, _ = load_linear_surrogate(str(surr_path) + ".rank")
    rho = NeuralMap(load_structured(surr_path), ls).rho
    assert capsys.readouterr().out == (f"wrote surrogate ({ls.n_terms} terms, rho {rho:.3e}) "
                                       f"to {surr_path}\n")


#: configs each command runs on, as {section: {key: value text}}
_RUNNABLE = {
    "study": {"study": {"study": "reg_rate", "problem": "a",
                        "ladder": "0.02, 0.01, 0.005, 0.0025"}},
    "generate": {"generate": {"problem": "c", "n_cells": "32", "load": "50.0"},
                 "perturbation": {"count": "2"}},
    "build": {"build": {"n_quad": "32", "n_trunk": "4"}},
    "solve": {"solve": {"problem": "a", "n_cells": "32", "delta": "0.001",
                        "max_iterations": "20"}},
}

_WRONG_VALUES = [("study", "study", key, value) for key, value in (
    ("n_cells", "64.5"), ("n_train", "two"), ("n_quad", "600.5"), ("n_trunk", "true"),
    ("seed", "1.5"), ("max_iterations", "1e4"), ("constant", "abc"), ("xi", "yes"))] + [
    ("generate", "generate", "n_cells", "64.5"), ("generate", "perturbation", "count", "2.7"),
    ("build", "build", "n_quad", "true"), ("solve", "solve", "delta", "yes"),
    ("solve", "solve", "seed", "1.5"), ("solve", "solve", "xi", "on"),
    ("solve", "solve", "problem", "A"), ("solve", "solve", "problem", "divergence")]


def _fails_naming(tmp_path, capsys, command, section, key, value):
    """stderr of the command run on its runnable config with [section] key =
    value, which must exit 1 without a traceback or an output file."""
    cfg = {name: dict(sec) for name, sec in _RUNNABLE[command].items()}
    if command == "build":
        ts_path = tmp_path / "train.txt"
        assert cli_main(["generate", "--config", _write(tmp_path / "gen.cfg", _SMALL_GENERATE),
                         "--out", str(ts_path), "--quiet"]) == 0
        cfg["build"]["training"] = str(ts_path)
    cfg[section][key] = value
    path = _write(tmp_path / "c.cfg", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
        for name, sec in cfg.items()))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--config", path, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("command,section,key,value", _WRONG_VALUES, ids=[
    f"{k}-{v}" if c == "study" else f"{s}-{k}-{v}" for c, s, k, v in _WRONG_VALUES])
def test_study_field_of_the_wrong_type_names_it(tmp_path, capsys, command, section, key,
                                                 value):
    # every other value is one the command runs on, so the one named fails it
    assert key in _fails_naming(tmp_path, capsys, command, section, key, value)


def _non_finite_values():
    """(command, section, key, value) with nan or inf in every real-valued key of
    every section: each key with a float default, and the last entry of a ladder."""
    command_of = {sec: command for command, secs in COMMAND_SECTIONS.items() for sec in secs}
    schemas = dict(SECTION_KEYS, study={f.name: f.default for f in fields(StudyConfig)})
    cases = []
    for sec, schema in schemas.items():
        for key, default in schema.items():
            for bad in ("nan", "inf"):
                if isinstance(default, tuple):
                    cases.append((command_of[sec], sec, key, f"0.02, 0.01, 0.005, {bad}"))
                elif isinstance(default, float):
                    cases.append((command_of[sec], sec, key, bad))
    return cases


_NON_FINITE = _non_finite_values()


@pytest.mark.parametrize("command,section,key,value", _NON_FINITE,
                         ids=[f"{s}-{k}-{v.split()[-1]}" for _, s, k, v in _NON_FINITE])
def test_non_finite_real_names_its_key(tmp_path, capsys, command, section, key, value):
    assert f"[{section}] {key}" in _fails_naming(tmp_path, capsys, command, section, key, value)


_OUT_OF_RANGE = [("solve", "xi", "-1"), ("solve", "delta", "-0.001"), ("solve", "constant", "0"),
                 ("solve", "max_iterations", "0"), ("study", "xi", "-1"),
                 ("study", "constant", "0"), ("study", "max_iterations", "0"),
                 ("study", "n_cells", "3"), ("study", "n_train", "0"), ("study", "n_quad", "1"),
                 ("study", "n_trunk", "1")]


@pytest.mark.parametrize("command,key,value", _OUT_OF_RANGE,
                         ids=[f"{c}-{k}" for c, k, _ in _OUT_OF_RANGE])
def test_value_out_of_range_names_its_one_field(tmp_path, capsys, command, key, value):
    # the message names the key it rejects, not a group of keys
    err = _fails_naming(tmp_path, capsys, command, command, key, value)
    assert err.startswith(f"error: {key} must be"), err


@pytest.mark.parametrize("command,value", [("solve", "0.6"), ("study", "0.7"), ("study", "0.5")])
def test_mollifier_width_of_half_or_more_names_xi(tmp_path, capsys, command, value):
    # a width the unit interval cannot hold is a config error, not the
    # numerical failure WidthTooLarge from inside the first solve
    err = _fails_naming(tmp_path, capsys, command, command, "xi", value)
    assert err.startswith(f"error: xi must be in [0, 0.5), the widths that fit, not {value}"), err


@pytest.mark.parametrize("problem", ["a", "c"])
def test_prior_center_below_nu_names_center(tmp_path, capsys, problem):
    # the prior must be admissible; a center below nu exited 2 with an error
    # from the FEM rho's probes (a) or from the target's solve (c)
    cfg = _write(tmp_path / "s.cfg", f"[solve]\nproblem = {problem}\nn_cells = 32\n"
                                      "center = 0.05\n")
    capsys.readouterr()
    assert cli_main(["solve", "--config", cfg, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [solve] center = 0.05 lies below nu = 0.1"), err


def test_a_surrogate_file_for_the_fem_map_names_the_key(tmp_path, capsys):
    # the FEM map reads no file: one that was named, even one that does not
    # exist, was ignored and the solve exited 0
    missing = tmp_path / "missing.txt"
    err = _fails_naming(tmp_path, capsys, "solve", "solve", "surrogate_file", str(missing))
    assert err.startswith(f"error: [solve] surrogate=fem reads no surrogate_file, "
                          f"not '{missing}'"), err


def test_zero_load_with_a_source_target_names_load(tmp_path, capsys):
    # zero data leave the source direction 0 / 0, which exited 2 as NonFiniteValue
    err = _fails_naming(tmp_path, capsys, "solve", "solve", "load", "0.0")
    assert err.startswith("error: [solve] load = 0.0"), err


@pytest.mark.parametrize("key", ["n_quad", "n_trunk"])
@pytest.mark.parametrize("value", ["0", "1"])
def test_build_with_fewer_than_two_samples_or_trunk_nodes_names_the_key(tmp_path, capsys,
                                                                        key, value):
    # the bounds a study config puts on them hold for a build too
    assert f"[build] {key} = {value}" in _fails_naming(tmp_path, capsys, "build", "build",
                                                       key, value)


def test_build_with_fewer_samples_than_cells_names_n_quad(tmp_path, capsys):
    # 16 sensors on the 32-cell mesh sit on the even nodes and miss the odd ones
    ts_path = tmp_path / "train.txt"
    assert cli_main(["generate", "--config", _write(tmp_path / "gen.cfg", _SMALL_GENERATE),
                     "--out", str(ts_path), "--quiet"]) == 0
    cfg = _write(tmp_path / "build.cfg", f"[build]\ntraining = {ts_path}\nn_quad = 16\n")
    out = tmp_path / "surr.txt"
    capsys.readouterr()
    assert cli_main(["build", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "[build] n_quad = 16" in err and "32 cells" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("surrogate", ["rank", "neural"])
def test_c_study_with_fewer_samples_than_cells_names_n_quad(tmp_path, capsys, surrogate):
    cfg = _write(tmp_path / "s.cfg", f"[study]\nstudy = reg_rate\nproblem = c\n"
                                      f"surrogate = {surrogate}\nn_cells = 64\nn_quad = 32\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert cli_main(["study", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "n_quad = 32" in err and "n_cells = 64" in err and "Traceback" not in err
    assert not out.exists()


#: config keys that existing configs hold, each of which takes one value, with
#: another value: (command, section, key, value)
_PINNED = [
    ("generate", "perturbation", "mode", "bumps"), ("build", "build", "activation", "tanh"),
    ("study", "study", "jobs", "2")]


@pytest.mark.parametrize("command,where,key,value", _PINNED,
                         ids=[f"{w}-{k}" for _, w, k, _ in _PINNED])
def test_pinned_key_or_field_of_another_value_names_it(tmp_path, capsys, command, where, key,
                                                        value):
    _small_surrogate(tmp_path)  # train.txt, loadable
    sections = {name: dict(sec) for name, sec in _RUNNABLE[command].items()}
    sections.setdefault("build", {})["training"] = str(tmp_path / "train.txt")
    sections[where][key] = value
    cfg = _write(tmp_path / "c.cfg", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
        for name, sec in sections.items() if name in _RUNNABLE[command]))
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("seed", "0"), ("seed", "1"), ("jobs", "1"), ("n_train", "1"), ("xi", "0"),
    ("constant", "1")])
def test_study_field_of_zero_or_one_runs(tmp_path, key, value):
    # "0" and "1" are integers, not booleans, so they pass the type check
    cfg = _write(tmp_path / "s.cfg", "[study]\nstudy = reg_rate\nproblem = a\nn_cells = 32\n"
                                      f"ladder = 0.02, 0.01, 0.005, 0.0025\n{key} = {value}\n")
    parsed = getattr(study_config(load_config(cfg)), key)
    assert parsed == int(value) and not isinstance(parsed, bool)
    assert cli_main(["study", "--config", cfg, "--out", str(tmp_path / "out.csv"),
                     "--quiet"]) == 0
    assert (tmp_path / "out.csv").exists()


def test_truncated_surrogate_file_exits_one(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path, surr_path = tmp_path / "train.txt", tmp_path / "surr.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(surr_path), "--quiet"]) == 0
    data = surr_path.read_bytes()
    solve_cfg = _write(tmp_path / "solve.cfg", f"""
[solve]
problem = c
surrogate = neural
surrogate_file = {surr_path}
n_cells = 32
load = 50.0
""")
    for cut in (0, 2, 4, 64, len(data) // 3, len(data) // 2, len(data) - 22, len(data) - 1):
        surr_path.write_bytes(data[:cut])
        capsys.readouterr()
        assert cli_main(["solve", "--config", solve_cfg, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {surr_path}: ") and "rebuild" in err
        assert "Traceback" not in err


def test_non_finite_training_value_reported_by_name(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path = tmp_path / "train.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    y = read_fields(ts_path)["y"].copy()
    y[1, 1] = np.nan
    edit(ts_path, {"y": y})
    capsys.readouterr()
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(tmp_path / "surr.txt"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "NonFiniteValue" in err and f"{ts_path}: field 'y'" in err


def _small_surrogate(tmp_path):
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path, surr_path = tmp_path / "train.txt", tmp_path / "surr.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(surr_path), "--quiet"]) == 0
    return surr_path


def _small_solve(tmp_path, kind, surr_path, delta):
    return _write(tmp_path / f"solve_{kind}.cfg", f"""
[solve]
problem = c
surrogate = {kind}
surrogate_file = {surr_path}
n_cells = 32
load = 50.0
center = 1.0
delta = {delta!r}
constant = 0.5
target = prior
max_iterations = 20
""")


def test_solve_uses_surrogate_error_from_build(tmp_path):
    # rho is the loaded map's largest L2 error over the probe pairs the build
    # stored; the recorded nu_N and rho_bound do not enter the rule
    surr_path = _small_surrogate(tmp_path)
    ls, diag = load_linear_surrogate(str(surr_path) + ".rank")
    delta = 1e-7
    rhos = {"rank": surrogate_error(RankMap(ls), ls.probes),
            "neural": surrogate_error(NeuralMap(load_structured(surr_path), ls), ls.probes)}
    assert min(rhos.values()) > delta  # so alpha = constant * rho, not constant * delta
    assert diag.nu_N not in rhos.values() and diag.rho_bound not in rhos.values()
    for kind, rho in rhos.items():
        out = tmp_path / f"{kind}.csv"
        assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, delta),
                         "--out", str(out), "--quiet"]) == 0
        header, row = out.read_text().splitlines()
        alpha = float(row.split(",")[header.split(",").index("alpha")])
        assert alpha == 0.5 * rho, kind


def test_build_prints_the_rho_that_the_neural_solve_balances(tmp_path, capsys):
    # the status line reports the loaded neural map's measured rho, which the
    # solve balances, and not the rho_bound diagnostic that no rule uses
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path, surr_path = tmp_path / "train.txt", tmp_path / "surr.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    capsys.readouterr()
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(surr_path)]) == 0
    status = capsys.readouterr().out
    ls, diag = load_linear_surrogate(str(surr_path) + ".rank")
    rho = NeuralMap(load_structured(surr_path), ls).rho
    assert status == f"wrote surrogate ({ls.n_terms} terms, rho {rho:.3e}) to {surr_path}\n"
    assert f"{diag.rho_bound:.3e}" not in status
    out = tmp_path / "neural.csv"
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-7),
                     "--out", str(out), "--quiet"]) == 0
    header, row = out.read_text().splitlines()
    assert float(row.split(",")[header.split(",").index("alpha")]) == 0.5 * rho


def test_solve_without_stored_diagnostics_names_field(tmp_path, capsys):
    surr_path = _small_surrogate(tmp_path)
    edit(tmp_path / "surr.txt.rank", {"nu_N": None})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "rank", surr_path, 1e-3),
                     "--quiet"]) == 1
    assert "'nu_N'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["rank", "neural"])
def test_solve_on_a_rank_file_without_probe_pairs_asks_for_a_rebuild(tmp_path, capsys, kind):
    # a file from before the expansion carried the probe pairs that measure rho
    surr_path = _small_surrogate(tmp_path)
    edit(tmp_path / "surr.txt.rank", {"probes.x": None, "probes.y": None})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "surr.txt.rank: missing field 'probes.x'" in err and "rebuild" in err, err


def test_stale_surrogate_file_exits_one(tmp_path, capsys):
    # a file from before per-sample branch weights stores each as a matrix
    surr_path = _small_surrogate(tmp_path)
    w = read_fields(surr_path)["branch.w"]
    edit(surr_path, {"branch.w": None,
                     "term0.branch.w": np.vstack([np.diag(w), np.zeros(w.size)])})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(surr_path) in err and "'branch.w'" in err and "rebuild" in err


def test_per_term_branch_layout_exits_one(tmp_path, capsys):
    # a file from before the one branch network stores a branch per term
    surr_path = _small_surrogate(tmp_path)
    s = load_structured(surr_path)
    per_term = {f"branch.{name}": None for name in ("c", "w", "theta")}
    for t, c_t in enumerate(s.branch_c):
        for name, v in (("c", c_t), ("w", s.branch_w), ("theta", s.branch_theta)):
            per_term[f"term{t}.branch.{name}"] = v
    edit(surr_path, per_term)
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(surr_path) in err and "'branch.c'" in err and "rebuild" in err


@pytest.mark.parametrize("kind", ["rank", "neural"])
@pytest.mark.parametrize("key,value", [("problem", "a"), ("n_cells", "16"), ("load", "1.0"),
                                       ("center", "0.5")])
def test_solve_on_a_surrogate_of_another_problem_or_mesh_names_the_key(tmp_path, capsys,
                                                                       kind, key, value):
    # a surrogate built for the c-example on 32 cells with load 50 around
    # center 1 answers for nothing else
    surr_path = _small_surrogate(tmp_path)
    cfg = Path(_small_solve(tmp_path, kind, surr_path, 1e-3))
    text = cfg.read_text()
    old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
    cfg.write_text(text.replace(old, f"{key} = {value}"))
    out = tmp_path / "run.csv"
    capsys.readouterr()
    assert cli_main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{key} = {value}" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_seed_flag_changes_nothing(tmp_path):
    # the perturbation directions draw no random numbers
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    plain, seeded = tmp_path / "plain.txt", tmp_path / "seeded.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(plain), "--quiet"]) == 0
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(seeded), "--seed", "5",
                     "--quiet"]) == 0
    assert plain.read_bytes() == seeded.read_bytes()


def test_rank_file_without_a_field_names_it(tmp_path, capsys):
    surr_path = _small_surrogate(tmp_path)
    rank_path = tmp_path / "surr.txt.rank"
    edit(rank_path, {"induced": None})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "rank", surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(rank_path) in err and "'induced'" in err


def test_rank_file_without_the_load_names_it(tmp_path, capsys):
    # a .rank file written before the load was recorded
    surr_path = _small_surrogate(tmp_path)
    rank_path = tmp_path / "surr.txt.rank"
    edit(rank_path, {"load": None})
    for kind in ("rank", "neural"):
        capsys.readouterr()
        assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert str(rank_path) in err and "'load'" in err and "rebuild" in err


def test_rank_file_of_the_older_layout_names_problem(tmp_path, capsys):
    # a .rank file written before the problem was recorded holds its space instead
    surr_path = _small_surrogate(tmp_path)
    rank_path = tmp_path / "surr.txt.rank"
    assert read_fields(rank_path)["problem"] == "c" and "space" not in read_fields(rank_path)
    edit(rank_path, {"problem": None, "space": "L2"})
    for kind in ("rank", "neural"):
        capsys.readouterr()
        assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert str(rank_path) in err and "'problem'" in err and "rebuild" in err


def test_training_file_with_an_unknown_problem_names_file_and_field(tmp_path, capsys):
    _small_surrogate(tmp_path)
    ts_path = tmp_path / "train.txt"
    assert read_fields(ts_path)["problem"] == "c"
    edit(ts_path, {"problem": "b"})
    capsys.readouterr()
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path), "--out",
                     str(tmp_path / "b.txt"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(ts_path) in err and "'problem'" in err and "'b'" in err


def test_rank_file_with_an_unknown_problem_names_file_and_field(tmp_path, capsys):
    surr_path = _small_surrogate(tmp_path)
    rank_path = tmp_path / "surr.txt.rank"
    edit(rank_path, {"problem": "b"})
    for kind in ("rank", "neural"):
        capsys.readouterr()
        assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert str(rank_path) in err and "'problem'" in err and "'b'" in err


def test_training_file_with_the_older_nu_and_space_fields_builds_the_same_surrogate(tmp_path):
    # the problem fixes both, so a training file no longer holds them
    surr_path = _small_surrogate(tmp_path)
    ts_path = tmp_path / "train.txt"
    assert read_fields(ts_path)["problem"] == "c"
    assert "nu" not in read_fields(ts_path) and "space" not in read_fields(ts_path)
    edit(ts_path, {"nu": 0.1, "space": "L2"})
    old = tmp_path / "old.txt"
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path), "--out", str(old),
                     "--quiet"]) == 0
    for suffix in ("", ".rank"):
        assert Path(f"{old}{suffix}").read_bytes() == Path(f"{surr_path}{suffix}").read_bytes()


def test_neural_solve_with_the_rank_file_of_another_build_names_surrogate_file(tmp_path,
                                                                              capsys):
    # the coefficients of a 3-term build next to the .rank file of a 2-term one
    surr_path = _small_surrogate(tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    gen_cfg = _write(other / "gen.cfg", _SMALL_GENERATE.replace("count = 2", "count = 3"))
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(other / "train.txt"),
                     "--quiet"]) == 0
    assert cli_main(["build", "--config", _small_build(other, other / "train.txt"),
                     "--out", str(other / "surr.txt"), "--quiet"]) == 0
    surr_path.write_bytes((other / "surr.txt").read_bytes())
    out = tmp_path / "run.csv"
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "surrogate_file" in err and "3 terms" in err and "Traceback" not in err
    assert not out.exists()


def test_fem_solve_applies_the_parameter_rule_with_its_own_load(tmp_path):
    # delta lies below rho, so alpha = constant * rho of the configured load
    prob, one = ProblemKind.A_EXAMPLE, GridFunction.constant(1.0, 16)
    rho = FemMap(prob, GridFunction.constant(2.0, 16), one).rho
    delta = 1e-5
    assert delta < rho != FemMap(prob, one, one).rho
    cfg = _write(tmp_path / "solve.cfg", f"""
[solve]
problem = a
surrogate = fem
n_cells = 16
load = 2.0
delta = {delta!r}
constant = 0.5
max_iterations = 50
""")
    out = tmp_path / "run.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, row = out.read_text().splitlines()
    alpha = float(row.split(",")[header.split(",").index("alpha")])
    assert alpha == 0.5 * rho


def test_fem_solve_with_a_center_too_near_the_bound_for_rho_names_center(tmp_path, capsys):
    # the FEM rho perturbs the center by up to 0.1 sqrt(2) of itself; this
    # exited 2 with NonAdmissiblePerturbation about probes nobody configured
    cfg = _write(tmp_path / "solve.cfg", "[solve]\nproblem = a\nsurrogate = fem\n"
                 "n_cells = 32\ncenter = 0.11\nmax_iterations = 50\n")
    out = tmp_path / "run.csv"
    capsys.readouterr()
    assert cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: center = 0.11 ") and "least center" in err, err
    assert "0.116472" in err and not out.exists()


def test_fem_solve_near_the_admissibility_bound_runs(tmp_path):
    # rho's probes scale with the center, so they stay above nu = 0.1 too
    cfg = _write(tmp_path / "solve.cfg", "[solve]\nproblem = a\nsurrogate = fem\n"
                 "n_cells = 16\ncenter = 0.2\ntarget = prior\nmax_iterations = 50\n")
    assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "run.csv"),
                     "--quiet"]) == 0


def test_generate_rejects_a_sine_mode_the_mesh_cannot_hold(tmp_path, capsys):
    # sin(4 pi s) vanishes at every node of the 4-cell mesh
    cfg = _write(tmp_path / "gen.cfg", "[generate]\nproblem = a\nn_cells = 4\n"
                                        "[perturbation]\ncount = 4\n")
    out = tmp_path / "train.txt"
    capsys.readouterr()
    assert cli_main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "DependentImages" in err and "4 sine modes" in err and "4-cell mesh" in err
    assert not out.exists()


@pytest.mark.parametrize("n_cells", [4, 5])
def test_fem_solve_on_a_mesh_of_fewer_than_seven_cells_runs(tmp_path, n_cells):
    # rho's probes take only the n - 1 sine modes the mesh holds
    cfg = _write(tmp_path / "solve.cfg", "[solve]\nproblem = a\nsurrogate = fem\n"
                 f"n_cells = {n_cells}\nmax_iterations = 50\n")
    assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "run.csv"),
                     "--quiet"]) == 0


@pytest.mark.parametrize("n_cells", [1, 2, 3])
def test_solve_on_a_mesh_of_fewer_than_four_cells_names_n_cells(tmp_path, capsys, n_cells):
    # the bound a study config puts on n_cells holds for a solve too
    cfg = _write(tmp_path / "solve.cfg", "[solve]\nproblem = a\nsurrogate = fem\n"
                 f"n_cells = {n_cells}\nmax_iterations = 50\n")
    out = tmp_path / "run.csv"
    capsys.readouterr()
    assert cli_main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"n_cells = {n_cells}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("study,ladder", [
    ("fem_rate", "16, 32.7, 64, 128.9, 256"), ("surrogate_error", "8, 16.5, 32, 64, 128")])
def test_cell_count_ladder_of_non_integers_names_it(tmp_path, capsys, study, ladder):
    cfg = _write(tmp_path / "s.cfg", f"[study]\nstudy = {study}\nladder = {ladder}\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert cli_main(["study", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "ladder" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("ladder", ["", ",,", "0.2, 0.1, , 0.05, 0.025", "0.2, 0.1, 0.05, 0.025,"],
                         ids=["empty", "commas", "blank-item", "trailing-comma"])
def test_ladder_with_an_empty_or_blank_item_names_it(tmp_path, capsys, ladder):
    # an empty item is no finite real: it neither drops out nor selects the default ladder
    cfg = _write(tmp_path / "s.cfg", f"[study]\nstudy = mollify_rate\nladder = {ladder}\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert cli_main(["study", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "[study] ladder" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind,suffix,field", [
    ("neural", "", "trunk.c"), ("rank", ".rank", "basis")])
def test_coefficient_fields_that_disagree_in_shape_exit_one(tmp_path, capsys, kind, suffix,
                                                            field):
    # drop the field's last column; the array stays well-formed on its own
    surr_path = _small_surrogate(tmp_path)
    path = Path(str(surr_path) + suffix)
    edit(path, {field: read_fields(path)[field][:, :-1]})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["rank", "neural"])
def test_rank_file_grids_on_different_meshes_exit_one(tmp_path, capsys, kind):
    surr_path = _small_surrogate(tmp_path)
    rank_path = Path(str(surr_path) + ".rank")
    edit(rank_path, {"load": np.full(65, 50.0)})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, kind, surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert (f"{rank_path}: fields load, basis, induced, center, probes.x, probes.y lie on "
            "different meshes") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["text", "empty", "bare array", "wrong kind"])
def test_surrogate_file_that_is_no_container_of_its_kind_exits_one(tmp_path, capsys,
                                                                   damage):
    surr_path = _small_surrogate(tmp_path)
    if damage == "text":
        surr_path.write_text("invop 1 StructuredSurrogateCoeffs\nend\n")
    elif damage == "empty":
        surr_path.write_bytes(b"")
    elif damage == "bare array":
        c = read_fields(surr_path)["branch.c"]
        with open(surr_path, "wb") as fh:
            np.save(fh, c)
    else:
        surr_path.write_bytes((tmp_path / "train.txt").read_bytes())
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {surr_path}: ") and "Traceback" not in err


def test_per_term_sensor_layout_exits_one(tmp_path, capsys):
    # a file from before the shared sensor grid stores the points once per term
    surr_path = _small_surrogate(tmp_path)
    f = read_fields(surr_path)
    per_term = {f"term{t}.s_points": f["s_points"] for t in range(len(f["trunk.c"]))}
    edit(surr_path, {"s_points": None, **per_term})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--quiet"]) == 1
    err = capsys.readouterr().err
    assert str(surr_path) in err and "'s_points'" in err and "rebuild" in err


_UNKNOWN_KEYS = [
    ("generate", "generate", "surogate", "rank"), ("generate", "perturbation", "surogate", "rank"),
    ("build", "build", "surogate", "rank"), ("solve", "solve", "surogate", "rank"),
    # the perturbation seed drew no random numbers, and the key is gone
    ("generate", "perturbation", "seed", "3"),
    # X is the problem's space, and the key that chose another is gone
    ("solve", "solve", "space", "L2")]


@pytest.mark.parametrize("command,section,key,value", _UNKNOWN_KEYS, ids=[
    f"{c}-{s}" if k == "surogate" else f"{c}-{s}-{k}" for c, s, k, _ in _UNKNOWN_KEYS])
def test_unknown_config_key_exits_one(tmp_path, capsys, command, section, key, value):
    cfg = _write(tmp_path / "typo.cfg", f"[{section}]\n{key} = {value}\n")
    capsys.readouterr()
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section", [
    ("solve", "slove"), ("solve", "study"), ("generate", "build"), ("build", "solve"),
    ("study", "solve")])
def test_section_the_command_does_not_read_exits_one(tmp_path, capsys, command, section):
    # a misspelt header must not leave the command running on its defaults
    cfg = _write(tmp_path / "typo.cfg", f"[{section}]\nproblem = c\nsurrogate = rank\n")
    capsys.readouterr()
    assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
    assert f"['{section}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_shipped_config_passes_the_key_check(path):
    cfg = load_config(path)
    assert cfg
    for name, sec in cfg.items():
        if name == "study":
            study_config(cfg)
        else:
            read_section(cfg, name, SECTION_KEYS[name])


def test_non_finite_surrogate_coefficient_reported_by_name(tmp_path, capsys):
    surr_path = _small_surrogate(tmp_path)
    theta = read_fields(surr_path)["branch.theta"].copy()
    theta[2] = np.inf
    edit(surr_path, {"branch.theta": theta})
    capsys.readouterr()
    assert cli_main(["solve", "--config", _small_solve(tmp_path, "neural", surr_path, 1e-3),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "NonFiniteValue" in err and "branch.theta" in err


def test_build_without_load_exits_one(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.cfg", _SMALL_GENERATE)
    ts_path = tmp_path / "train.txt"
    assert cli_main(["generate", "--config", gen_cfg, "--out", str(ts_path), "--quiet"]) == 0
    edit(ts_path, {"load": None})
    capsys.readouterr()
    assert cli_main(["build", "--config", _small_build(tmp_path, ts_path),
                     "--out", str(tmp_path / "surr.txt"), "--quiet"]) == 1
    assert "'load'" in capsys.readouterr().err


def test_verify_checks_neural_gradient(monkeypatch, capsys):
    misfit_and_gradient = SurrogateHandle.misfit_and_gradient

    def off_by_a_permille(self, x, y_delta):
        value, grad = misfit_and_gradient(self, x, y_delta)
        return value, grad * 1.001 if isinstance(self, NeuralMap) else grad

    monkeypatch.setattr(SurrogateHandle, "misfit_and_gradient", off_by_a_permille)
    assert cli_main(["verify"]) == 2
    captured = capsys.readouterr()
    assert "FAIL gradient" in captured.err and "NeuralOperator" in captured.err
    assert "ok gradient" not in captured.out
