"""Each forward map measures its rho once, on its own probes, and never inside
the timed minimization: a reg_rate study of the a-example measures the FEM
map's rho once per mesh and process, where one per solve would cost seven
Galerkin solves more each."""

import time

import pytest

import invop.tikhonov
from invop import studies
from invop.studies import StudyConfig, c_example_setup, run_study
from invop.tikhonov import FemMap, NeuralMap, RankMap, solve_inverse_problem, surrogate_error


@pytest.fixture
def measurements(monkeypatch):
    """List that gains the label of each map whose surrogate_error is taken."""
    labels = []
    measure = invop.tikhonov.surrogate_error

    def counting(h, pairs):
        labels.append(h.label)
        return measure(h, pairs)

    monkeypatch.setattr(invop.tikhonov, "surrogate_error", counting)
    return labels


def test_the_a_study_measures_its_fem_map_once_per_mesh(measurements):
    studies._a_example_data.cache_clear()
    cfg = StudyConfig("reg_rate", problem="a")
    assert len(cfg.ladder) == 7
    run_study(cfg)
    assert measurements == ["FemForward"]
    run_study(StudyConfig("reg_rate", problem="a", seed=1))
    assert measurements == ["FemForward"]


def test_a_c_study_measures_its_map_once(measurements):
    run_study(StudyConfig("reg_rate", problem="c", surrogate="neural", n_cells=32, n_quad=32,
                          n_trunk=4))
    assert measurements == ["NeuralOperator"]


def test_the_first_measurement_of_rho_is_not_timed(monkeypatch):
    measure = invop.tikhonov.surrogate_error

    def slow(h, pairs):
        time.sleep(0.2)
        return measure(h, pairs)

    monkeypatch.setattr(invop.tikhonov, "surrogate_error", slow)
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="rank", n_cells=32,
                                     n_quad=32, n_trunk=4))
    start = time.perf_counter()
    run = solve_inverse_problem(RankMap(ex.ls), ex.xt, ex.y_true, 1e-3, 1, 0.15, 0.0, 100)
    assert time.perf_counter() - start >= 0.2
    assert run.runtime_ms < 200.0


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_rho_is_the_surrogate_error_on_the_maps_probes(kind, measurements):
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural", n_cells=32,
                                     n_quad=32, n_trunk=4))
    h = {"fem": FemMap(ex.ls.problem, ex.ls.load, ex.ls.center[0]), "rank": RankMap(ex.ls),
         "neural": NeuralMap(ex.coeffs, ex.ls)}[kind]
    assert h.center is ex.ls.center[0]
    if kind == "fem":
        assert len(h.probes) == 7  # six sine modes and their mix
    else:
        assert h.probes is ex.ls.probes
    assert h.rho == h.rho == surrogate_error(h, h.probes) > 0.0
    # the surrogate_error imported here is the uncounted one
    assert measurements == [h.label]  # the property measured once and kept it
