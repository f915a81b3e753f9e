import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invop.fem
import invop.tikhonov
import invop.training
from invop.config import load_config, study_config
from invop.errors import DegenerateScale, DimensionMismatch, EmptyProbeSet, NonAdmissibleCoefficient
from invop.fem import ProblemKind, solve_forward_fem, solve_forward_reference
from invop.grid import (GridFunction, SpaceKind, _inner_nodal, gram_apply, inner, norm,
                        trapezoid_weights)
from invop.mollify import mollify, mollify_matrix
from invop import studies
from invop.studies import StudyConfig, c_example_setup, run_study, source_target_a
from invop.tikhonov import (
    GAUSS_NEWTON_STEPS,
    MEMORY,
    RUN_COLUMNS,
    STALL_ITERATIONS,
    FemMap,
    NeuralMap,
    RankMap,
    RegularizationRun,
    SurrogateHandle,
    TikhonovConfig,
    _LbfgsMemory,
    add_noise,
    choose_parameters,
    minimize_tikhonov,
    solve_inverse_problem,
    surrogate_error,
    tikhonov_value_and_gradient,
)
from invop.training import (
    PerturbationSpec,
    assemble_neural_surrogate,
    build_linear_surrogate,
    generate_training_set,
)

A = ProblemKind.A_EXAMPLE
C = ProblemKind.C_EXAMPLE
N = 96
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def handles():
    """One handle of each kind on a shared c-example setup."""
    f = GridFunction.constant(50.0, N)
    x0 = GridFunction.constant(1.0, N)
    ts = generate_training_set(C, f, x0, PerturbationSpec(0.1, 4))
    ls = build_linear_surrogate(ts)
    coeffs, diag = assemble_neural_surrogate(ls, 192, 12, seed=1)
    return {
        "fem": FemMap(C, f, x0),
        "rank": RankMap(ls),
        "neural": NeuralMap(coeffs, ls),
        "f": f,
        "x0": x0,
        "ls": ls,
        "coeffs": coeffs,
        "diag": diag,
    }


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_pullback_rejects_an_input_on_another_mesh(handles, kind):
    # every entry point takes its inputs on the map's mesh and resamples
    # neither an input x nor the data y_delta
    h, x0 = handles[kind], handles["x0"]
    cfg = _config()
    y = h.forward(x0)
    x_other, y_other = GridFunction.constant(1.0, N // 2), y.resample(N // 2)
    calls = {
        "forward": lambda: h.forward(x_other),
        "misfit_and_gradient": lambda: h.misfit_and_gradient(x_other, y),
        "tikhonov_value_and_gradient": lambda: tikhonov_value_and_gradient(h, x_other, y, cfg),
        "misfit_and_gradient, data": lambda: h.misfit_and_gradient(x0, y_other),
        "tikhonov_value_and_gradient, data":
            lambda: tikhonov_value_and_gradient(h, x0, y_other, cfg),
    }
    for name, call in calls.items():
        try:
            call()
        except DimensionMismatch as err:
            assert "mesh" in str(err), (name, str(err))
        else:
            pytest.fail(f"{name} accepted an input on another mesh")


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_entry_points_check_the_mesh_before_the_map_evaluates(handles, kind, monkeypatch):
    # forward and misfit_and_gradient check x against the center's mesh, once,
    # so no map's _evaluate sees an input on another mesh
    h = handles[kind]
    y = h.forward(handles["x0"])
    monkeypatch.setattr(type(h), "_evaluate", lambda self, x: pytest.fail("the map evaluated"))
    x_other = GridFunction.constant(1.0, N // 2)
    message = f"mesh mismatch: {N // 2} cells where the {N}-cell mesh is expected"
    with pytest.raises(DimensionMismatch, match=message):
        h.forward(x_other)
    with pytest.raises(DimensionMismatch, match=message):
        h.misfit_and_gradient(x_other, y)


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_data_on_another_mesh_raise_before_the_map_evaluates(handles, kind, monkeypatch):
    # y_delta is checked against the center's mesh next to x: for the FEM map
    # the evaluation that came first was a full Galerkin solve
    h, x0 = handles[kind], handles["x0"]
    y_other = h.forward(x0).resample(N // 2)
    monkeypatch.setattr(type(h), "_evaluate", lambda self, x: pytest.fail("the map evaluated"))
    with pytest.raises(DimensionMismatch, match=f"{N // 2} cells where the {N}-cell mesh"):
        h.misfit_and_gradient(x0, y_other)


@pytest.fixture(scope="module")
def expansions(handles):
    """A rank-N expansion in each space X: the c-example's (L2) and an
    a-example one (H1), on the same mesh."""
    ts = generate_training_set(A, GridFunction.constant(1.0, N), GridFunction.constant(1.0, N),
                               PerturbationSpec(0.1, 4))
    return {SpaceKind.L2: handles["ls"], SpaceKind.H1: build_linear_surrogate(ts)}


def _per_term_rank_map(ls, x, r):
    """The rank map's value at x and its pullback of r, term by term:
    sum_i <x - x0, b_i>_X y_i and sum_i <r, y_i>_L2 G b_i, the formulas the
    map evaluated before it held its Riesz rows."""
    x0, y0 = ls.center
    space = ls.problem.image_space
    out = y0.values.copy()
    xc = x.values - x0.values
    for b, y in zip(ls.basis, ls.induced):
        out += _inner_nodal(xc, b, space) * y
    grad = np.zeros(x.n_cells + 1)
    for b, y in zip(ls.basis, ls.induced):
        grad += _inner_nodal(r, y, SpaceKind.L2) * gram_apply(b, space)
    return out, grad


@pytest.mark.parametrize("space", [SpaceKind.L2, SpaceKind.H1])
def test_the_rank_maps_model_is_its_riesz_rows_and_data(expansions, space):
    # the Woodbury inputs are the Riesz rows G b_i, built once with the map,
    # and the expansion's own (N, n + 1) induced data, not a copy
    ls = expansions[space]
    h = RankMap(ls)
    rows, induced = h._directions(0.0)
    assert induced is ls.induced and h._directions(1e-4)[0] is rows
    assert rows.shape == induced.shape == (ls.n_terms, N + 1)
    assert np.array_equal(rows, [gram_apply(b, space) for b in ls.basis])


@pytest.mark.parametrize("space", [SpaceKind.L2, SpaceKind.H1])
def test_the_rank_map_keeps_its_per_term_values_and_pullback(expansions, space):
    # two matrix-vector products each way give the per-term sums to rounding
    ls = expansions[space]
    assert ls.problem.image_space is space
    rng = np.random.default_rng(11)
    x = GridFunction(ls.center[0].values + 0.05 * rng.standard_normal(N + 1))
    r = rng.standard_normal(N + 1)
    y, pullback = RankMap(ls)._evaluate(x)
    want_y, want_g = _per_term_rank_map(ls, x, r)
    assert np.linalg.norm(y - want_y) <= 1e-15 * np.linalg.norm(want_y)
    assert np.linalg.norm(pullback(r) - want_g) <= 1e-15 * np.linalg.norm(want_g)


@pytest.mark.parametrize("space", [SpaceKind.L2, SpaceKind.H1])
def test_the_rank_maps_pullback_is_its_exact_derivative(expansions, space):
    # the map is affine, so <F(x + h) - F(x), r>_L2 = h . pullback(r) for
    # every step h, not only in the limit of small ones; the rounding is that
    # of the data F(x + h), which the difference cancels
    h = RankMap(expansions[space])
    rng = np.random.default_rng(12)
    x = GridFunction(h.center.values + 0.05 * rng.standard_normal(N + 1))
    step = GridFunction(0.05 * rng.standard_normal(N + 1))
    r = GridFunction(rng.standard_normal(N + 1))
    y = h.forward(x + step)
    lhs = inner(y - h.forward(x), r, SpaceKind.L2)
    rhs = float(step.values @ h._evaluate(x)[1](r.values))
    assert abs(lhs - rhs) <= 1e-15 * norm(y) * norm(r)


@pytest.mark.parametrize("xi", [0.0, 0.1])
@pytest.mark.parametrize("problem,load", [(A, 1.0), (C, 50.0)])
def test_the_fem_maps_rows_are_the_riesz_rows_of_its_directions(problem, load, xi):
    # the per-width model holds G b_i of the Gauss-Newton directions at the
    # mollified center beside their images J b_i
    n = 16
    x0 = GridFunction(1.0 + 0.3 * np.linspace(0.0, 1.0, n + 1) ** 2)
    h = FemMap(problem, GridFunction.constant(load, n), x0)
    rows, images = h._directions(xi)
    xc = mollify_matrix(n, xi) @ x0.values if xi > 0 else x0.values
    basis, want = invop.fem.gauss_newton_directions(problem, xc, h.load.values,
                                                    GAUSS_NEWTON_STEPS)
    assert np.array_equal(rows, [gram_apply(b, problem.image_space) for b in basis])
    assert np.array_equal(images, want)


@pytest.mark.parametrize("kind", ["fem", "rank"])
@pytest.mark.parametrize("xi", [0.0, 1e-2])
def test_the_woodbury_inverse_reads_the_maps_riesz_rows(handles, monkeypatch, kind, xi):
    # no Gram product when H0 is built: the map's rows are its V, and a
    # second build gives H0 with the same bits
    h, cfg = handles[kind], _config(xi=xi)
    h._directions(xi)
    v = np.random.default_rng(13).standard_normal(N + 1)
    before = h.inverse_hessian(cfg)(v)
    monkeypatch.setattr(invop.tikhonov, "gram_apply",
                        lambda *args: pytest.fail("H0 applied the Gram matrix"))
    assert np.array_equal(h.inverse_hessian(cfg)(v), before)


@pytest.mark.parametrize("build", ["generate_training_set", "FemMap"])
def test_a_load_off_the_centers_mesh_raises_before_any_reference_solve(build, monkeypatch):
    # each map fixes one mesh when it is built: a load on 64 cells around a
    # center on 128 fails by name, not after the reference solves of its pairs
    calls = []
    solve = invop.training.solve_forward_reference
    monkeypatch.setattr(invop.training, "solve_forward_reference",
                        lambda *args: calls.append(args) or solve(*args))
    f, x0 = GridFunction.constant(1.0, 64), GridFunction.constant(1.0, 128)
    with pytest.raises(DimensionMismatch, match="the load lies on 64 cells and the center on 128"):
        if build == "FemMap":
            FemMap(A, f, x0)
        else:
            generate_training_set(A, f, x0, PerturbationSpec(0.1, 3))
    assert calls == []


def test_solve_rejects_a_true_coefficient_on_another_mesh(handles, monkeypatch):
    # the error against x_true would otherwise fail only after the solve
    def unreachable(self, x):
        pytest.fail("the forward map was evaluated")

    monkeypatch.setattr(FemMap, "_evaluate", unreachable)
    x0 = handles["x0"]
    with pytest.raises(DimensionMismatch, match="mesh"):
        solve_inverse_problem(handles["fem"], GridFunction.constant(1.0, N // 2), x0, 1e-3, 1,
                              1.0, 0.0, 10)


# -- noise ------------------------------------------------------------------


def test_add_noise_exact_level():
    y = GridFunction.from_callable(lambda s: np.sin(np.pi * s), N)
    for delta in (1e-1, 1e-3, 1e-7):
        yd = add_noise(y, delta, seed=4)
        assert norm(yd - y, SpaceKind.L2) == pytest.approx(delta, rel=1e-14)


def test_add_noise_zero_delta_is_identity():
    y = GridFunction.from_callable(lambda s: np.sin(np.pi * s), N)
    assert add_noise(y, 0.0, seed=4) is y


def test_add_noise_deterministic():
    y = GridFunction.constant(1.0, N)
    a = add_noise(y, 1e-2, seed=9)
    b = add_noise(y, 1e-2, seed=9)
    c = add_noise(y, 1e-2, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@settings(max_examples=30, deadline=None)
@given(delta=st.floats(1e-10, 1.0), seed=st.integers(0, 2**31))
def test_add_noise_exactness_property(delta, seed):
    y = GridFunction.constant(1.0, 32)
    yd = add_noise(y, delta, seed)
    assert norm(yd - y, SpaceKind.L2) == pytest.approx(delta, rel=1e-13)


# -- parameter choice -------------------------------------------------------


def test_choose_parameters_balances_levels():
    alpha, eta = choose_parameters(1e-3, 1e-5)
    assert alpha == 1e-3 and eta == 1e-6
    alpha, eta = choose_parameters(1e-5, 1e-3, constant=0.5)
    assert alpha == 0.5e-3 and eta == alpha * alpha


def test_choose_parameters_degenerate():
    with pytest.raises(DegenerateScale):
        choose_parameters(0.0, 0.0)


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_surrogate_error_is_the_largest_l2_error_over_the_pairs(handles, kind):
    h, pairs = handles[kind], handles["ls"].probes
    errors = [norm(h.forward(x) - y, SpaceKind.L2) for x, y in pairs]
    assert surrogate_error(h, pairs) == max(errors) > 0.0
    assert surrogate_error(h, pairs[:1]) == errors[0]


def test_surrogate_error_over_no_pairs_raises_empty_probe_set(handles):
    with pytest.raises(EmptyProbeSet):
        surrogate_error(handles["rank"], ())


# -- functional and gradient ------------------------------------------------


def _config(alpha=1e-3, eta=1e-8, xi=0.0, max_iterations=2000):
    return TikhonovConfig(alpha=alpha, eta=eta, xi=xi, max_iterations=max_iterations)


@pytest.mark.parametrize("key,value,word", [
    ("alpha", 0.0, "positive"), ("eta", -1e-8, "positive"), ("xi", -1.0, "nonnegative"),
    ("max_iterations", 0, "a positive integer"), ("max_iterations", 2.5, "a positive integer"),
    ("max_iterations", True, "a positive integer"),
    # a stale positional call TikhonovConfig(alpha, eta, xi, x0) puts the
    # prior where the budget goes
    pytest.param("max_iterations", GridFunction.constant(1.0, 16), "a positive integer",
                 id="max_iterations-stale-prior-a positive integer")])
def test_config_range_error_names_its_one_field(key, value, word):
    with pytest.raises(ValueError, match=rf"^{key} must be {word}, not {re.escape(repr(value))}$"):
        _config(**{key: value})


def test_config_rejects_a_mollifier_width_of_half_or_more():
    # the unit interval holds no wider kernel; it failed only at the first
    # evaluation, with WidthTooLarge from inside mollify_matrix
    with pytest.raises(ValueError, match=r"^xi must be in \[0, 0\.5\), the widths that fit, "
                                         r"not 0\.6$"):
        TikhonovConfig(alpha=1e-3, eta=1e-6, xi=0.6)


@pytest.mark.parametrize("key", ["alpha", "eta", "xi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_a_non_finite_real(key, value):
    with pytest.raises(ValueError, match="finite"):
        _config(**{key: value})


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_gradient_matches_finite_differences(handles, kind):
    h = handles[kind]
    x0 = handles["x0"]
    y = h.forward(x0)
    yd = add_noise(y, 1e-3, seed=1)
    cfg = _config()
    rng = np.random.default_rng(2)
    x = GridFunction(1.0 + 0.03 * rng.standard_normal(N + 1))
    d = GridFunction(rng.standard_normal(N + 1))
    _, g = tikhonov_value_and_gradient(h, x, yd, cfg)
    eps = 1e-6
    fd = (tikhonov_value_and_gradient(h, x + eps * d, yd, cfg)[0]
          - tikhonov_value_and_gradient(h, x - eps * d, yd, cfg)[0]) / (2 * eps)
    an = inner(GridFunction(g), d, SpaceKind.L2)
    assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


def test_gradient_with_mollification(handles):
    h = handles["fem"]
    x0 = handles["x0"]
    yd = add_noise(h.forward(x0), 1e-3, seed=3)
    cfg = _config(xi=5e-3)
    rng = np.random.default_rng(4)
    x = GridFunction(1.0 + 0.03 * rng.standard_normal(N + 1))
    d = GridFunction(rng.standard_normal(N + 1))
    _, g = tikhonov_value_and_gradient(h, x, yd, cfg)
    eps = 1e-6
    fd = (tikhonov_value_and_gradient(h, x + eps * d, yd, cfg)[0]
          - tikhonov_value_and_gradient(h, x - eps * d, yd, cfg)[0]) / (2 * eps)
    an = inner(GridFunction(g), d, SpaceKind.L2)
    assert abs(fd - an) <= 1e-4 * max(1.0, abs(an))


def test_fem_misfit_gradient_solves_forward_once(handles, monkeypatch):
    h = handles["fem"]
    x = 1.02 * handles["x0"]
    yd = add_noise(h.forward(handles["x0"]), 1e-3, seed=5)
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve_forward_fem(*args)

    # patch both bindings: the handle's forward and the gradient kernel
    monkeypatch.setattr(invop.tikhonov, "solve_forward_fem", counting_solve)
    monkeypatch.setattr(invop.fem, "solve_forward_fem", counting_solve)
    h.misfit_and_gradient(x, yd)
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_value_and_gradient_rejects_inadmissible_point(handles, kind):
    cfg = _config()
    bad = GridFunction.constant(0.05, N)
    with pytest.raises(NonAdmissibleCoefficient):
        tikhonov_value_and_gradient(handles[kind], bad, handles["x0"], cfg)


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_minimizer_rejects_a_prior_below_the_maps_bound(handles, kind):
    # the config holds neither problem nor prior: the run checks the map's
    # center against the bound nu of its problem before it evaluates
    # anything, to the last bit; the c FEM solve itself admits x >= 0
    f, low = handles["f"], GridFunction.constant(C.nu - 1e-13, N)
    if kind == "fem":
        h = FemMap(C, f, low)
    else:
        ls = build_linear_surrogate(generate_training_set(C, f, low, PerturbationSpec(0.01, 2)))
        h = RankMap(ls) if kind == "rank" else NeuralMap(
            assemble_neural_surrogate(ls, N, 4, seed=1)[0], ls)
    assert np.array_equal(h.center.values, low.values)
    with pytest.raises(NonAdmissibleCoefficient, match="^prior center violates the bound nu$"):
        minimize_tikhonov(h, handles["x0"], _config())


# -- minimization -----------------------------------------------------------


def _bfgs_reference(pairs, gamma, G):
    """Dense BFGS inverse Hessian from H0 = gamma I in the metric of the
    Gram matrix G: with (a (x) b) v = <b, v>_X a = a b^T G v,
    H+ = (I - rho s (x) y) H (I - rho y (x) s) + rho s (x) s."""
    eye = np.eye(len(G))
    H = gamma * eye
    for s, y in pairs:
        rho = 1.0 / (s @ G @ y)
        H = (eye - rho * np.outer(s, y) @ G) @ H @ (eye - rho * np.outer(y, s) @ G)
        H += rho * np.outer(s, s) @ G
    return H


@pytest.mark.parametrize("space", [SpaceKind.L2, SpaceKind.H1])
def test_lbfgs_two_loop_is_x_metric_bfgs(space):
    n = 16
    rng = np.random.default_rng(0)
    # y = G^-1 B s with B symmetric positive definite: the gradient change
    # of a quadratic whose gradient is the X-Riesz representer
    Q = rng.standard_normal((n + 1, n + 1))
    B = Q @ Q.T + np.eye(n + 1)
    G = np.array([gram_apply(e, space) for e in np.eye(n + 1)]).T
    mem = _LbfgsMemory(space)
    pairs = []
    for _ in range(MEMORY + 3):
        s = rng.standard_normal(n + 1)
        y = np.linalg.solve(G, B @ s)
        mem.update(s, y)
        pairs.append((s, y))
    assert len(mem.pairs) == MEMORY
    s_k, y_k = pairs[-1]
    # secant equation in X for the newest pair
    hy = mem.direction(y_k)
    assert np.linalg.norm(hy - s_k) <= 1e-10 * np.linalg.norm(s_k)
    # the recursion is the dense X-metric update; Euclidean products in the
    # recursion give another operator and fail here
    gamma = (s_k @ G @ y_k) / (y_k @ G @ y_k)
    H = _bfgs_reference(pairs[-MEMORY:], gamma, G)
    for _ in range(3):
        g = rng.standard_normal(n + 1)
        d = mem.direction(g)
        assert np.linalg.norm(d - H @ g) <= 1e-10 * np.linalg.norm(H @ g)
        assert g @ G @ d > 0
    # <s, y>_X < 0 while the Euclidean s . y = 0.5 > 0: never stored
    s_bad = np.zeros(n + 1)
    y_bad = np.zeros(n + 1)
    s_bad[:2] = 1.0, 1.0
    y_bad[:2] = 2.0, -1.5
    assert s_bad @ G @ y_bad < 0 < s_bad @ y_bad
    before = mem.direction(g)
    newest = mem.pairs[-1]
    mem.update(s_bad, y_bad)
    assert mem.pairs[-1] is newest and len(mem.pairs) == MEMORY
    assert np.array_equal(mem.direction(g), before)


def test_quadratic_proxy_recovered(handles):
    # rank surrogate => the functional is exactly quadratic; the closed-form
    # minimizer satisfies the normal equations, recovered to 1e-8
    h = handles["rank"]
    x0 = handles["x0"]
    y = h.forward(x0 + 0.05 * GridFunction.from_callable(
        lambda s: np.sin(np.pi * s), N))
    cfg = _config(alpha=1e-2, eta=1e-16, max_iterations=100000)
    res = minimize_tikhonov(h, y, cfg)
    # optimality: gradient at the returned point is certificate-small
    assert res.certificate.status == "converged"
    assert res.certificate.eta_bound <= cfg.eta
    _, g = tikhonov_value_and_gradient(h, res.x, y, cfg)
    assert norm(GridFunction(g), SpaceKind.L2) < 1e-8


def test_iterates_satisfy_projection_bound(handles):
    h = handles["fem"]
    x0 = handles["x0"]
    yd = add_noise(h.forward(x0), 1e-2, seed=5)
    cfg = _config(alpha=1e-4, eta=1e-10, max_iterations=50)
    res = minimize_tikhonov(h, yd, cfg)
    assert float(np.min(res.x.values)) >= h.problem.nu


def test_certificate_reports_gradient_gap(handles):
    h = handles["rank"]
    x0 = handles["x0"]
    yd = add_noise(h.forward(x0), 1e-3, seed=6)
    cfg = _config(eta=1e-10, max_iterations=100000)
    res = minimize_tikhonov(h, yd, cfg)
    c = res.certificate
    assert c.eta_bound == pytest.approx(
        c.gradient_norm ** 2 / (4 * cfg.alpha), rel=1e-12
    )
    assert c.eta_bound <= cfg.eta


def test_budget_exhaustion_returns_best(handles):
    h = handles["fem"]
    x0 = handles["x0"]
    yd = add_noise(h.forward(x0), 1e-2, seed=7)
    cfg = _config(alpha=1e-6, eta=1e-30, max_iterations=3)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.certificate.iterations == 3
    assert res.certificate.status == "budget"
    v0 = tikhonov_value_and_gradient(h, x0, yd, cfg)[0]
    assert res.functional_value <= v0


def test_monotone_decrease(handles):
    h = handles["neural"]
    x0 = handles["x0"]
    yd = add_noise(h.forward(x0), 1e-3, seed=8)
    cfg = _config(alpha=1e-3, eta=1e-12, max_iterations=30)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.functional_value <= tikhonov_value_and_gradient(h, x0, yd, cfg)[0] + 1e-15


def _count_gradients(monkeypatch):
    calls = []
    original = SurrogateHandle.misfit_and_gradient

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(SurrogateHandle, "misfit_and_gradient", counting)
    return calls


def _precision_floor_problem(handles, kind):
    """Criterion 8's quadratic on the map ``kind``: the closed-form minimizer
    of the rank functional and a tolerance eta = 1e-20."""
    h, ls, x0 = handles[kind], handles["ls"], handles["x0"]
    alpha = 1e-2
    r = GridFunction(1e-2 * np.random.default_rng(1).standard_normal(N + 1))
    y_delta = h.forward(x0) + r
    induced = [GridFunction(y) for y in ls.induced]
    G = np.array([[inner(a, b, SpaceKind.L2) for b in induced] for a in induced])
    c = np.linalg.solve(G + alpha * np.eye(len(G)), [inner(y, r, SpaceKind.L2) for y in induced])
    x_star = x0 + GridFunction(sum(ci * b for ci, b in zip(c, ls.basis)))
    return h, y_delta, x_star, _config(alpha=alpha, eta=1e-20, max_iterations=200000)


def test_stagnation_stop_at_precision_floor(handles, monkeypatch):
    # the neural map's rounding keeps its certificate above eta = 1e-20; the
    # rank map converges on this problem in one step
    h, yd, _, cfg = _precision_floor_problem(handles, "neural")
    calls = _count_gradients(monkeypatch)
    res = minimize_tikhonov(h, yd, cfg)
    c = res.certificate
    assert c.status == "stagnated"
    assert c.eta_bound > cfg.eta
    assert c.iterations < 1000
    # iterations is the index of the returned iterate: the run went on for
    # STALL_ITERATIONS more, each costing at least one gradient
    assert len(calls) >= 1 + c.iterations + STALL_ITERATIONS
    # each line search starts from twice the last accepted step fraction,
    # so the stalled iterations do not halve down from 1 again
    assert len(calls) <= 201


def test_budget_run_reports_index_of_best_iterate(handles):
    # a budget that ends inside the stagnation window: the best iterate is
    # older than the last one, and its index is what the certificate reports
    h, yd, _, cfg = _precision_floor_problem(handles, "neural")
    best = minimize_tikhonov(h, yd, cfg)
    budget = best.certificate.iterations + STALL_ITERATIONS // 2
    res = minimize_tikhonov(h, yd, replace(cfg, max_iterations=budget))
    assert res.certificate.status == "budget"
    assert res.certificate.iterations == best.certificate.iterations
    assert res.functional_value == best.functional_value


def test_only_the_neural_map_gives_no_inverse_hessian(handles):
    cfg = _config()
    assert handles["neural"].inverse_hessian(cfg) is None
    assert callable(handles["rank"].inverse_hessian(cfg))
    assert callable(handles["fem"].inverse_hessian(cfg))


@pytest.mark.parametrize("xi", [0.0, 0.1])
@pytest.mark.parametrize("problem,load", [(A, 1.0), (C, 50.0)])
def test_fem_initial_matrix_inverts_the_gauss_newton_hessian(problem, load, xi):
    # against a central-difference Jacobian J of the FEM map at the mollified
    # center: H0 inverts the Gauss-Newton Hessian 2 (M^T J^T W J M + alpha G)
    # on the map's directions b_i and is I / (2 alpha) on every v with
    # <b_i, M v>_X = 0.  On 8 cells the 8 directions hold the whole range of
    # G^-1 J^T W J, so H0 is that Hessian's exact inverse
    n, alpha = 8, 1e-3
    space = problem.image_space
    x0 = GridFunction(1.0 + 0.3 * np.linspace(0.0, 1.0, n + 1) ** 2)  # no symmetry
    h = FemMap(problem, GridFunction.constant(load, n), x0)
    h0 = h.inverse_hessian(_config(alpha=alpha, xi=xi))
    eye = np.eye(n + 1)
    M = mollify_matrix(n, xi) if xi > 0 else eye
    xc = M @ x0.values
    jac = np.array([h.forward(GridFunction(xc + 1e-6 * e)).values
                    - h.forward(GridFunction(xc - 1e-6 * e)).values for e in eye]).T / 2e-6
    gram = np.array([gram_apply(e, space) for e in eye])
    hessian = 2.0 * (M.T @ jac.T @ np.diag(trapezoid_weights(n)) @ jac @ M + alpha * gram)
    x_hessian = np.linalg.solve(gram, hessian)  # on nodal steps, to X-gradients
    basis, _ = invop.fem.gauss_newton_directions(problem, xc, h.load.values, GAUSS_NEWTON_STEPS)
    assert len(basis) == GAUSS_NEWTON_STEPS
    assert np.allclose(np.array(basis) @ gram @ np.array(basis).T, np.eye(len(basis)),
                       atol=1e-12)  # X-orthonormal
    for b in basis:
        assert np.linalg.norm(h0(x_hessian @ b) - b) <= 1e-5 * np.linalg.norm(b)
    # the rows of the last factor beyond the directions' rank span {v : V v = 0}
    off = np.linalg.svd(np.array(basis) @ gram @ M)[2][len(basis):]
    assert len(off) == 1
    for v in off:
        assert np.linalg.norm(h0(v) - v / (2.0 * alpha)) <= 1e-12 * np.linalg.norm(v / alpha)


@pytest.mark.parametrize("problem", [A, C])
def test_gauss_newton_directions_are_orthonormal_on_every_mesh(problem):
    # below 8 cells the last step starts from rounding error, which a single
    # orthogonalization pass left 0.2-1.0 away from orthogonal
    for n in range(2, 10):
        xv = 1.0 + 0.3 * np.linspace(0.0, 1.0, n + 1) ** 2
        basis, images = invop.fem.gauss_newton_directions(problem, xv, np.ones(n + 1),
                                                          GAUSS_NEWTON_STEPS)
        gram = np.array([gram_apply(e, problem.image_space) for e in np.eye(n + 1)])
        assert len(basis) == len(images) == min(GAUSS_NEWTON_STEPS, n + 1)
        assert np.allclose(np.array(basis) @ gram @ np.array(basis).T, np.eye(len(basis)),
                           atol=1e-13), n
    # no data sensitivity: J = 0 after the start, and the steps stop there
    basis, images = invop.fem.gauss_newton_directions(problem, xv, np.zeros(n + 1), 8)
    assert len(basis) == 1 and not np.any(images[0])


def test_fem_map_builds_its_directions_once_per_xi(monkeypatch):
    calls = []
    build = invop.tikhonov.gauss_newton_directions

    def counting(*args):
        calls.append(args[1].copy())
        return build(*args)

    monkeypatch.setattr(invop.tikhonov, "gauss_newton_directions", counting)
    n = 16
    x0 = GridFunction(1.0 + 0.3 * np.linspace(0.0, 1.0, n + 1) ** 2)
    h = FemMap(A, GridFunction.constant(1.0, n), x0)
    for cfg in (_config(), _config(alpha=1e-2), _config(alpha=1e-2, xi=0.1),
                _config(xi=0.1), _config(eta=1e-6)):
        h.inverse_hessian(cfg)
    # the directions lie at the map's own center: alpha and eta reuse them,
    # and each switch of xi builds once more, at the center mollified by it
    assert len(calls) == 3
    assert np.array_equal(calls[0], x0.values) and np.array_equal(calls[2], x0.values)
    assert np.array_equal(calls[1], mollify(x0, 0.1).values)


@pytest.mark.parametrize("xi", [0.0, 1e-4])
def test_rank_solve_is_one_newton_step(handles, xi):
    # the rank functional is quadratic, and its exact inverse Hessian as the
    # initial L-BFGS matrix puts the first step on the minimizer
    h, yd, x_star, cfg = _precision_floor_problem(handles, "rank")
    cfg = replace(cfg, xi=xi)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.certificate.status == "converged"
    assert res.certificate.iterations == 1
    if xi == 0:
        assert norm(res.x - x_star, SpaceKind.L2) <= 1e-10
    # the nodal X-gradient is affine in x, so its differences along the unit
    # vectors are the columns of the dense Hessian
    x0 = h.center.values

    def grad(v):
        return tikhonov_value_and_gradient(h, GridFunction(v), yd, cfg)[1]

    hess = np.array([grad(x0 + e) - grad(x0) for e in np.eye(N + 1)]).T
    rng = np.random.default_rng(5)
    s = 0.01 * rng.standard_normal(N + 1)
    mem = _LbfgsMemory(h.problem.image_space, h.inverse_hessian(cfg))
    mem.update(s, grad(x0 + s) - grad(x0))  # an exact pair leaves H0 exact
    assert len(mem.pairs) == 1
    g = rng.standard_normal(N + 1)
    want = np.linalg.solve(hess, g)
    assert np.linalg.norm(mem.direction(g) - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("xi", [0.0, 1e-2])
def test_gradient_bounds_the_distance_to_the_rank_minimizer(handles, monkeypatch, xi):
    # the distance form of the certificate: the rank functional is quadratic
    # with X-Hessian at least 2 alpha I, so ||x - x*||_X <= ||g(x)||_X / (2 alpha)
    # at every x, and a stop with ||g||^2 / (4 alpha) <= eta lies within
    # sqrt(eta / alpha) of x*.  x* is the one-step solve, whose own gradient
    # norm is added to each bound; the points are the iterates of gamma-scaled
    # runs, which do not reach x* in one step
    h, x0 = handles["rank"], handles["x0"]
    xt = GridFunction(x0.values + 0.05 * np.sin(np.pi * x0.nodes))
    yd = add_noise(h.forward(xt), 1e-3, seed=2)
    cfg = _config(alpha=1e-3, eta=1e-12, xi=xi)
    one_step = minimize_tikhonov(h, yd, replace(cfg, eta=1e-24))
    assert one_step.certificate.iterations == 1
    slack = one_step.certificate.gradient_norm / (2.0 * cfg.alpha)
    monkeypatch.setattr(RankMap, "inverse_hessian", lambda self, cfg: None)
    ratios = []
    for budget in range(1, 40):
        run = minimize_tikhonov(h, yd, replace(cfg, max_iterations=budget))
        grad = tikhonov_value_and_gradient(h, run.x, yd, cfg)[1]
        bound = norm(GridFunction(grad), SpaceKind.L2) / (2.0 * cfg.alpha)
        distance = norm(run.x - one_step.x, SpaceKind.L2)
        assert distance <= bound + slack, (budget, distance, bound)
        ratios.append(distance / bound)
        if run.certificate.status == "converged":
            assert distance <= np.sqrt(cfg.eta / cfg.alpha) + slack
            break
    else:
        pytest.fail("the gamma-scaled run did not converge")
    assert len(ratios) > 2 and max(ratios) > 0.5  # 0.67: the bound is not loose here


@pytest.mark.parametrize("xi,gamma_scaled", [(0.0, 6.57613248e4), (1e-4, 6.57613094e4)])
def test_rank_solve_with_an_active_bound(handles, xi, gamma_scaled):
    # data far outside the map's range: the unconstrained minimizer violates
    # nu, the first clipped step returns the run to gamma scaling, and the
    # run stalls on the bound no higher than a run with gamma scaling alone
    h, x0 = handles["rank"], handles["x0"]
    yd = GridFunction(300.0 * np.random.default_rng(1).standard_normal(N + 1))
    cfg = _config(alpha=1e-3, eta=1e-6, xi=xi)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.certificate.status == "stagnated"
    assert float(np.min(res.x.values)) == C.nu
    assert res.functional_value <= gamma_scaled


def test_h1_fem_solve_converges():
    n, delta = 64, 1e-4
    f = GridFunction.constant(1.0, n)
    x0 = GridFunction.constant(1.0, n)
    h = FemMap(A, f, x0)
    yd = add_noise(h.forward(source_target_a(A, x0, f)), delta, seed=11)
    alpha, eta = choose_parameters(delta, h.rho)
    cfg = _config(alpha=alpha, eta=eta)
    c = minimize_tikhonov(h, yd, cfg).certificate
    assert c.status == "converged"
    assert c.eta_bound <= cfg.eta


@pytest.mark.parametrize("kind", ["fem", "neural_xi"])
def test_line_search_builds_at_most_two_grid_functions_per_evaluation(handles, monkeypatch,
                                                                      kind):
    # the maps and the functional run on nodal arrays: per evaluation one
    # GridFunction for the trial point, and one for the FEM solution or the
    # mollified input; counted as perfbench counts grid.functions_per_grad_eval
    if kind == "fem":
        n = 64
        f = x0 = GridFunction.constant(1.0, n)
        h = FemMap(A, f, x0)
        yd = add_noise(solve_forward_reference(A, source_target_a(A, x0, f), f), 1e-3,
                       seed=3)
        cfg = _config(eta=1e-30, max_iterations=10)
    else:
        h, x0 = handles["neural"], handles["x0"]
        yd = add_noise(h.forward(1.02 * x0), 1e-3, seed=3)
        cfg = _config(eta=1e-30, xi=0.05, max_iterations=10)
    counts = {"built": 0, "evaluations": 0}
    post_init, evaluate = GridFunction.__post_init__, tikhonov_value_and_gradient

    def counting_post_init(self):
        counts["built"] += 1
        post_init(self)

    def counting_evaluate(*args):
        counts["evaluations"] += 1
        return evaluate(*args)

    monkeypatch.setattr(GridFunction, "__post_init__", counting_post_init)
    monkeypatch.setattr(invop.tikhonov, "tikhonov_value_and_gradient", counting_evaluate)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.certificate.status == "budget"
    assert counts["built"] <= 2 * counts["evaluations"], counts


def test_c_rank_solve_gradient_evaluations(monkeypatch):
    # smallest noise level of configs/reg_rate_c.cfg through the rank map,
    # set up as the reg_rate study does; the functional is exactly quadratic,
    # and the map's exact inverse Hessian as the initial L-BFGS matrix ends
    # the run after one step: 2 gradient evaluations, against 13 with gamma
    # scaling, 123 for Barzilai-Borwein steps and 1224 for step doubling
    sec = load_config(ROOT / "configs" / "reg_rate_c.cfg")
    sec["study"]["surrogate"] = "rank"
    study = study_config(sec)
    assert study.seed == 100
    ex = c_example_setup(study)
    i = len(study.ladder) - 1
    delta = study.ladder[i]
    yd = add_noise(solve_forward_reference(C, ex.xt, ex.ls.load), delta,
                   study.seed + 100 + i)
    h = RankMap(ex.ls)
    alpha, eta = choose_parameters(delta, h.rho, study.constant)
    cfg = _config(alpha=alpha, eta=eta, xi=study.xi, max_iterations=study.max_iterations)
    calls = _count_gradients(monkeypatch)
    res = minimize_tikhonov(h, yd, cfg)
    assert res.certificate.status == "converged"
    assert res.certificate.iterations == 1
    assert len(calls) == 2


# -- run records ------------------------------------------------------------


def test_run_record_schema(handles):
    h = handles["fem"]
    x0 = handles["x0"]
    run = solve_inverse_problem(h, x0, h.forward(x0), 1e-3, 1, 1.0, 0.0, 2000)
    row = run.csv_row()
    cells = row.split(",")
    assert len(cells) == len(RUN_COLUMNS)
    assert cells[0] == "c" and cells[1] == "FemForward"
    assert int(cells[2]) == N
    # floats are emitted at 17 significant digits: parsing round-trips
    assert float(cells[5]) == run.alpha


def test_c_rank_map_solves_the_c_problem():
    # the map brings its problem, so a c-example rank map solves in L2 with
    # the c bound and records c; given the a-example's H1, error_X read 0.197
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="rank"))
    h = RankMap(ex.ls)
    assert h.problem is C and NeuralMap(ex.coeffs, ex.ls).problem is C
    run = solve_inverse_problem(h, ex.xt, ex.y_true, 1e-3, 7, 0.15, 1e-4, 20000)
    assert (run.problem, run.surrogate) == ("c", "LinearRankN")
    assert run.error_X < 0.01  # 0.0032


@pytest.mark.parametrize("kind", ["fem", "rank", "neural"])
def test_entry_point_row_is_the_hand_built_row(handles, kind):
    # the one entry point adds the noise, applies the parameter rule with the
    # map's own rho, solves from the map's center in the problem's space and
    # measures the error against x_true: its row is that of the steps taken
    # by hand, bit for bit apart from the runtime
    x0, h = handles["x0"], handles[kind]
    assert np.array_equal(h.center.values, x0.values)
    xt = GridFunction(x0.values + 0.02 * np.sin(np.pi * x0.nodes))
    y_true = handles["fem"].forward(xt)
    delta, seed, constant, xi, budget = 1e-3, 3, 0.15, 1e-2, 40
    run = solve_inverse_problem(h, xt, y_true, delta, seed, constant, xi, budget)

    yd = add_noise(y_true, delta, seed)
    alpha, eta = choose_parameters(delta, surrogate_error(h, h.probes), constant)
    cfg = TikhonovConfig(alpha=alpha, eta=eta, xi=xi, max_iterations=budget)
    res = minimize_tikhonov(h, yd, cfg)
    assert run == RegularizationRun(
        "c", h.label, N, h.n_terms, delta, alpha, eta, xi, res.certificate.iterations,
        res.certificate.gradient_norm, norm(res.x - xt, SpaceKind.L2), run.runtime_ms, seed)


@pytest.mark.parametrize("seed", [0, 100])
def test_certificate_bounds_the_gap_on_the_fem_map(seed):
    """At every converged stop of the a-example reg_rate ladder (n = 256), the
    certificate ||g||^2/(4 alpha) bounds J(x) - J(x*), x* a solve of the same
    functional at eta = 1e-14 alpha^2.  The FEM functional need not be convex,
    so this is measured, not implied; the worst ratio reads 0.57 (seed 100)."""
    cfg = StudyConfig("reg_rate", problem="a", n_cells=256, seed=seed)
    rows = run_study(cfg).rows
    _, h, y_true = studies._a_example_data(256)
    converged = 0
    for i, (delta, row) in enumerate(zip(cfg.ladder, rows)):
        y_delta = add_noise(y_true, delta, seed + 100 + i)
        alpha, eta = choose_parameters(delta, h.rho, cfg.constant)
        tik = TikhonovConfig(alpha, eta, cfg.xi, cfg.max_iterations)
        res = minimize_tikhonov(h, y_delta, tik)
        # the study's own stop, rebuilt
        assert str(res.certificate.iterations) == row.split(",")[RUN_COLUMNS.index("iterations")]
        if res.certificate.status != "converged":
            continue
        tight = minimize_tikhonov(h, y_delta, replace(tik, eta=1e-14 * alpha ** 2))
        assert tight.certificate.status != "budget"
        gap = res.functional_value - tight.functional_value
        assert gap <= res.certificate.eta_bound, (delta, gap / res.certificate.eta_bound)
        converged += 1
    assert converged  # 7 of 7 at both seeds
