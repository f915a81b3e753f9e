"""End-to-end acceptance checks, one test per headline claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test states its tolerance inline; shared expensive
fixtures (the trained c-example surrogate) are module-scoped.
"""

import numpy as np
import pytest

from invop.fem import (
    ProblemKind,
    derivative_apply,
    solve_forward_reference,
)
from invop.grid import GridFunction, SpaceKind, inner, norm
from invop.mollify import mollify
from invop.studies import (
    StudyConfig,
    c_example_setup,
    fit_slope,
    run_study,
)
from invop.tikhonov import (
    RUN_COLUMNS,
    FemMap,
    NeuralMap,
    RankMap,
    TikhonovConfig,
    add_noise,
    choose_parameters,
    minimize_tikhonov,
    solve_inverse_problem,
    tikhonov_value_and_gradient,
)
from invop.training import (
    PerturbationSpec,
    TrainingSet,
    assemble_neural_surrogate,
    build_linear_surrogate,
    generate_training_set,
    perturbation_shape,
)

A = ProblemKind.A_EXAMPLE
C = ProblemKind.C_EXAMPLE


@pytest.fixture(scope="module")
def c_surrogate():
    """The trained c-example surrogate shared by criteria 3 and 6."""
    return c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))


def test_criterion_1_fem_convergence_rate():
    """Discretization error slope in [-2.3, -1.7] on all three analytic cases."""
    table = run_study(StudyConfig("fem_rate", ladder=(16, 32, 64, 128, 256)))
    assert len(table.case_slopes) == 3
    for label, slope, _ in table.case_slopes:
        assert -2.3 <= slope <= -1.7, (label, slope)


def test_criterion_2_regularization_rate_a_example():
    """H1 reconstruction error ~ sqrt(delta) with the FEM forward map,
    parameter-choice constant 1, discretization level below delta_min."""
    deltas = tuple(0.1 * 2.0 ** (-k) for k in range(3, 10))
    one = GridFunction.constant(1.0, 256)
    assert FemMap(A, one, one).rho <= min(deltas)  # delta is the binding term
    table = run_study(StudyConfig("reg_rate", problem="a", n_cells=256,
                                  ladder=deltas, constant=1.0))
    assert 0.35 <= table.fitted_slope <= 0.65, table.fitted_slope


def test_criterion_3_regularization_rate_c_example(c_surrogate):
    """L2 reconstruction error ~ sqrt(delta) through the sigmoid surrogate
    with small smoothing width, plus the additive smoothing-term check."""
    deltas = tuple(0.1 * 2.0 ** (-k) for k in range(3, 9))
    xi = 1e-4
    assert xi <= min(deltas)
    table = run_study(StudyConfig("reg_rate", problem="c", surrogate="neural",
                                  n_cells=256, ladder=deltas, constant=0.15,
                                  xi=xi, seed=100))
    assert 0.35 <= table.fitted_slope <= 0.65, table.fitted_slope

    # additive smoothing term: errors at two widths differ by <= 3x the gap
    s = c_surrogate
    h = NeuralMap(s.coeffs, s.ls)
    y_true = solve_forward_reference(C, s.xt, s.ls.load)
    errs = [solve_inverse_problem(h, s.xt, y_true, deltas[2], 205, 0.15, xi_k, 20000).error_X
            for xi_k in (1e-4, 2e-4)]
    assert abs(errs[1] - errs[0]) <= 3.0 * (2e-4 - 1e-4), errs


@pytest.mark.parametrize("n_terms", [1, 2, 4, 8])
def test_criterion_4_surrogate_exactness_on_span(n_terms):
    """The rank-N map coincides with the linearized forward map on the span
    of training directions to 1e-9 relative, and annihilates orthogonal
    probes to 1e-9."""
    n = 256
    f = GridFunction.constant(50.0, n)
    x0 = GridFunction.constant(1.0, n)
    dirs = [0.1 * perturbation_shape(l, n) for l in range(1, n_terms + 1)]
    pairs = ((x0, GridFunction.constant(0.0, n)),) + tuple(
        (x0 + d, derivative_apply(C, x0, d, f)) for d in dirs)
    x, y = (np.array([g.values for g in column]) for column in zip(*pairs))
    ls = build_linear_surrogate(TrainingSet(C, f, x, y))

    rng = np.random.default_rng(0)
    span = GridFunction.constant(0.0, n)
    for c, d in zip(rng.standard_normal(n_terms), dirs):
        span = span + float(c) * d
    expect = derivative_apply(C, x0, span, f)
    rank = RankMap(ls)  # zero data at the center x0
    got = rank.forward(x0 + span)
    assert norm(got - expect, SpaceKind.L2) <= 1e-9 * norm(expect, SpaceKind.L2)

    scale = max(norm(y, SpaceKind.L2) for _, y in pairs)
    ortho = perturbation_shape(n_terms + 1, n)  # L2-orthogonal mode
    annihilated = rank.forward(x0 + ortho)
    assert norm(annihilated, SpaceKind.L2) <= 1e-9 * scale


def test_criterion_5_quadrature_prior_rate():
    """Branch sample-rule quadrature error slope -2 +- 0.3 on smooth
    integrands over N_k in {8,...,128}."""
    table = run_study(StudyConfig("surrogate_error", ladder=(8, 16, 32, 64, 128)))
    assert -2.3 <= table.fitted_slope <= -1.7, table.fitted_slope


def test_criterion_6_error_decomposition_bound(c_surrogate):
    """rho_bound = nu_N + N q_N r_N holds exactly, and the end-to-end
    surrogate forward error never exceeds rho_bound + 10 r_N on 20 seeded
    trials of random admissible probes."""
    s = c_surrogate
    ls = s.ls
    f, x0 = ls.load, ls.center[0]
    n = x0.n_cells
    modes = [perturbation_shape(l, n) for l in range(1, 9)]

    def draw(rng):
        dev = sum(float(rng.uniform(-1, 1)) * (0.1 / (l + 1)) * m.values
                  for l, m in enumerate(modes))
        return GridFunction(x0.values + dev)

    # diagnostics measured on an independent probe sample
    rng = np.random.default_rng(999)
    diag_probes = [draw(rng) for _ in range(32)]
    probes = tuple((x, solve_forward_reference(C, x, f)) for x in diag_probes)
    coeffs, diag = assemble_neural_surrogate(ls._replace(probes=probes), 512, 14, seed=1)
    assert diag.rho_bound == diag.nu_N + diag.n_terms * diag.q_N * diag.r_N

    h = NeuralMap(coeffs, ls)
    bound = diag.rho_bound + 10.0 * diag.r_N
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        for _ in range(5):
            x = draw(rng)
            err = norm(h.forward(x) - solve_forward_reference(C, x, f), SpaceKind.L2)
            worst = max(worst, err)
    assert worst <= bound, (worst, bound)


@pytest.mark.parametrize("kind", ["rank", "neural"])
def test_measured_rho_bounds_the_map_error_where_the_solutions_lie(kind):
    """The rho the parameter rule balances, the map's largest L2 error over
    the probe pairs of its build, bounds ||F_N(x) - F[x]||_L2 at the target
    and at each minimizer of criterion 3's study (seed 100), and at the
    minimizers' mollified inputs, which the map evaluates.  Measured: rho
    1.383e-4 (rank) and 1.388e-4 (neural) against at most 1.272e-4 and
    1.286e-4."""
    deltas = tuple(0.1 * 2.0 ** (-k) for k in range(3, 9))
    cfg = StudyConfig("reg_rate", problem="c", surrogate=kind, n_cells=256, ladder=deltas,
                      constant=0.15, xi=1e-4, seed=100)
    rows = run_study(cfg).rows
    ex = c_example_setup(cfg)
    f = ex.ls.load
    h = RankMap(ex.ls) if kind == "rank" else NeuralMap(ex.coeffs, ex.ls)
    rho = h.rho
    inputs = [ex.xt]
    for i, (delta, row) in enumerate(zip(deltas, rows)):
        alpha, eta = choose_parameters(delta, rho, cfg.constant)
        x = minimize_tikhonov(h, add_noise(ex.y_true, delta, cfg.seed + 100 + i),
                              TikhonovConfig(alpha, eta, cfg.xi, cfg.max_iterations)).x
        # the study's own minimizer, rebuilt
        assert norm(x - ex.xt, SpaceKind.L2) == float(row.split(",")[
            RUN_COLUMNS.index("error_X")])
        inputs += [x, mollify(x, cfg.xi)]
    errors = [norm(h.forward(x) - solve_forward_reference(C, x, f), SpaceKind.L2)
              for x in inputs]
    assert max(errors) <= rho, (max(errors), rho)


def test_criterion_7_mollification_properties():
    """Non-expansiveness to 1e-8, monotone L2 convergence on decreasing
    width ladders, slope 2 +- 0.3 for an input flat at the boundary."""
    n = 512
    xis = [0.25 * 2.0 ** (-k) for k in range(5)]
    rng = np.random.default_rng(0)
    for trial in range(5):
        x = GridFunction(rng.standard_normal(n + 1))
        for xi in xis:
            assert norm(mollify(x, xi), SpaceKind.L2) \
                <= norm(x, SpaceKind.L2) * (1.0 + 1e-8)
    x = GridFunction.from_callable(lambda t: np.sin(np.pi * t) ** 2, n)
    errs = [norm(mollify(x, xi) - x, SpaceKind.L2) for xi in xis]
    assert errs == sorted(errs, reverse=True)
    slope, _ = fit_slope(xis, errs)
    assert 1.7 <= slope <= 2.3, slope


def test_criterion_8_optimization_soundness():
    """Closed-form quadratic minimizer recovered to 1e-8; gradients match
    finite differences to 1e-4 on all surrogate kinds; the gradient-gap
    certificate is exact along penalty-only directions."""
    n = 96
    f = GridFunction.constant(50.0, n)
    x0 = GridFunction.constant(1.0, n)
    ts = generate_training_set(C, f, x0, PerturbationSpec(0.1, 4))
    ls = build_linear_surrogate(ts)
    coeffs, diag = assemble_neural_surrogate(ls, 192, 12, seed=1)
    h_rank = RankMap(ls)

    # closed-form minimizer of the exactly-quadratic rank functional:
    # deviation lies in span(basis) with coefficients from (G + alpha I)c = b
    alpha = 1e-2
    rng = np.random.default_rng(1)
    r = GridFunction(1e-2 * rng.standard_normal(n + 1))
    y_delta = h_rank.forward(x0) + r
    induced = [GridFunction(yi) for yi in ls.induced]
    G = np.array([[inner(yi, yj, SpaceKind.L2) for yj in induced] for yi in induced])
    b = np.array([inner(yi, r, SpaceKind.L2) for yi in induced])
    c = np.linalg.solve(G + alpha * np.eye(len(b)), b)
    x_star = GridFunction(x0.values + sum(ci * bi for ci, bi in zip(c, ls.basis)))
    # strong convexity modulus alpha: value gap eta implies a distance bound
    # sqrt(eta/alpha), so eta = 1e-20 certifies the 1e-8 recovery below
    cfg = TikhonovConfig(alpha=alpha, eta=1e-20, xi=0.0, max_iterations=200000)
    res = minimize_tikhonov(h_rank, y_delta, cfg)
    assert norm(res.x - x_star, SpaceKind.L2) <= 1e-8

    # certificate exactness along a direction the misfit cannot see
    ortho = perturbation_shape(6, n)
    for bi in map(GridFunction, ls.basis):
        ortho = ortho - inner(ortho, bi, SpaceKind.L2) * bi
    x_probe = x_star + 0.01 * ortho
    v_probe, g_probe = tikhonov_value_and_gradient(h_rank, x_probe, y_delta, cfg)
    v_star = tikhonov_value_and_gradient(h_rank, x_star, y_delta, cfg)[0]
    gap = v_probe - v_star
    eta_bound = norm(GridFunction(g_probe), SpaceKind.L2) ** 2 / (4.0 * alpha)
    assert gap == pytest.approx(eta_bound, rel=1e-6)

    # gradient consistency on every surrogate kind
    handles = [FemMap(C, f, x0), h_rank, NeuralMap(coeffs, ls)]
    x = GridFunction(1.0 + 0.03 * rng.standard_normal(n + 1))
    d = GridFunction(rng.standard_normal(n + 1))
    for h in handles:
        _, g = tikhonov_value_and_gradient(h, x, y_delta, cfg)
        eps = 1e-6
        fd = (tikhonov_value_and_gradient(h, x + eps * d, y_delta, cfg)[0]
              - tikhonov_value_and_gradient(h, x - eps * d, y_delta, cfg)[0]) / (2 * eps)
        an = inner(GridFunction(g), d, SpaceKind.L2)
        assert abs(fd - an) <= 1e-4 * max(1.0, abs(an)), h.label


def test_criterion_9_study_determinism(tmp_path):
    """Identical config and seed produce bit-identical CSV apart from the
    runtime column."""
    ladder = (0.0125, 0.00625, 0.003125, 0.0015625)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        run_study(StudyConfig("reg_rate", problem="a", n_cells=64,
                              ladder=ladder, seed=7, out=str(out)))
        outs.append(out.read_text().splitlines())

    def strip_runtime(lines):
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            cells[11] = ""
            rows.append(",".join(cells))
        return rows

    assert outs[0][0] == outs[1][0]  # header
    assert strip_runtime(outs[0]) == strip_runtime(outs[1])
