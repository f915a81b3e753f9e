import numpy as np
import pytest

from invop.errors import DimensionMismatch, NonAdmissibleCoefficient
from invop.fem import (
    ProblemKind,
    adjoint_apply,
    derivative_apply,
    solve_forward_fem,
    solve_forward_reference,
)
from invop.grid import GridFunction, SpaceKind, inner, norm
from invop.studies import analytic_cases, fit_slope
from invop.tikhonov import FemMap

A = ProblemKind.A_EXAMPLE
C = ProblemKind.C_EXAMPLE


# -- oracles: closed-form solutions -----------------------------------------


@pytest.mark.parametrize("case", analytic_cases(), ids=lambda c: c[0])
def test_analytic_case_solved_at_second_order(case):
    label, prob, x, f, y_exact = case
    errs = []
    ns = [16, 32, 64, 128]
    for n in ns:
        y = solve_forward_fem(prob, GridFunction.from_callable(x, n),
                              GridFunction.from_callable(f, n))
        fine = GridFunction.from_callable(y_exact, 2048)
        errs.append(norm(y.resample(2048) - fine, SpaceKind.L2))
    slope, _ = fit_slope(ns, errs)
    assert -2.3 < slope < -1.7


def test_ramp_case_is_nodally_exact():
    # 1-D P1 Galerkin with exactly integrated polynomial load reproduces the
    # exact solution at the nodes; this pins the assembly quadrature.
    n = 64
    s = np.linspace(0, 1, n + 1)
    y = solve_forward_fem(A, GridFunction(1 + s), GridFunction(1 + 4 * s))
    assert np.max(np.abs(y.values - s * (1 - s))) < 1e-13


def test_boundary_values_are_zero():
    for prob in (A, C):
        y = solve_forward_fem(prob, GridFunction.constant(1.0, 32),
                              GridFunction.constant(1.0, 32))
        assert y.values[0] == 0.0 and y.values[-1] == 0.0


def test_reference_solver_resamples_to_input_mesh():
    x = GridFunction.constant(1.0, 40)
    f = GridFunction.constant(1.0, 40)
    y = solve_forward_reference(A, x, f)
    assert y.n_cells == 40


def test_reference_solver_checks_the_bound_on_the_input_mesh():
    # node 1 of the 96-cell mesh lies between nodes of the 4096-cell mesh,
    # where the resampled coefficient stays above nu: the bound holds for the
    # input x, not for its resampling
    x = GridFunction.constant(1.0, 96)
    x.values[1] = 0.099
    assert float(np.min(x.resample(4096).values)) > A.nu
    with pytest.raises(NonAdmissibleCoefficient):
        solve_forward_reference(A, x, GridFunction.constant(1.0, 96))


def test_smallest_mesh_solves_its_one_unknown():
    # two cells leave one interior unknown: 4 y(1/2) = 1/2 for x = f = 1
    one = GridFunction.constant(1.0, 2)
    y = solve_forward_fem(A, one, one)
    assert y.values.tolist() == [0.0, 0.125, 0.0]


def test_admissibility_enforced():
    n = 16
    bad = GridFunction.constant(0.05, n)  # below nu = 0.1
    with pytest.raises(NonAdmissibleCoefficient):
        solve_forward_fem(A, bad, GridFunction.constant(1.0, n))
    # the reaction problem stays well-posed down to zero
    y = solve_forward_fem(C, GridFunction.constant(0.05, n),
                          GridFunction.constant(1.0, n))
    assert np.all(np.isfinite(y.values))


# -- derivative and adjoint -------------------------------------------------


@pytest.mark.parametrize("prob", [A, C], ids=["a", "c"])
def test_derivative_matches_finite_differences(prob):
    n = 128
    rng = np.random.default_rng(3)
    x = GridFunction(1.0 + 0.1 * rng.standard_normal(n + 1))
    h = GridFunction(rng.standard_normal(n + 1))
    f = GridFunction.constant(1.0, n)
    dy = derivative_apply(prob, x, h, f)
    eps = 1e-6
    fd = (1.0 / (2 * eps)) * (
        solve_forward_fem(prob, x + eps * h, f) - solve_forward_fem(prob, x - eps * h, f)
    )
    assert norm(dy - fd, SpaceKind.L2) <= 1e-6 * max(1.0, norm(dy, SpaceKind.L2))


@pytest.mark.parametrize("prob", [A, C], ids=["a", "c"])
def test_adjoint_identity(prob):
    # <F'(x)h, r>_L2 == <h, F'(x)* r>_X for the problem's solution space
    n = 96
    rng = np.random.default_rng(4)
    x = GridFunction(1.0 + 0.1 * rng.standard_normal(n + 1))
    h = GridFunction(rng.standard_normal(n + 1))
    r = GridFunction(rng.standard_normal(n + 1))
    f = GridFunction.constant(1.0, n)
    lhs = inner(derivative_apply(prob, x, h, f), r, SpaceKind.L2)
    rhs = inner(h, adjoint_apply(prob, x, r, f), prob.image_space)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernels_reject_an_input_on_another_mesh():
    # every kernel works on the mesh of x: the residual r, the direction hdir
    # and the load f must lie on it, and none of them is resampled
    n = 32
    x = f = GridFunction.constant(1.0, n)
    other = GridFunction.constant(1.0, n // 2)
    with pytest.raises(DimensionMismatch, match="32-cell mesh"):
        adjoint_apply(A, x, other, f)
    with pytest.raises(DimensionMismatch, match="32-cell mesh"):
        derivative_apply(A, x, other, f)
    for kernel in (lambda g: solve_forward_fem(A, x, g),
                   lambda g: derivative_apply(A, x, x, g),
                   lambda g: adjoint_apply(A, x, x, g)):
        with pytest.raises(DimensionMismatch, match="16 cells where the 32-cell mesh"):
            kernel(other)
    # the FEM map's mesh is that of its load
    with pytest.raises(DimensionMismatch, match="32 cells where the 16-cell mesh"):
        FemMap(A, other, other).forward(x)


def test_linearity_of_derivative():
    n = 64
    f = GridFunction.constant(1.0, n)
    x = GridFunction.constant(1.0, n)
    rng = np.random.default_rng(5)
    h1 = GridFunction(rng.standard_normal(n + 1))
    h2 = GridFunction(rng.standard_normal(n + 1))
    lhs = derivative_apply(A, x, h1 + 2.0 * h2, f)
    rhs = derivative_apply(A, x, h1, f) + 2.0 * derivative_apply(A, x, h2, f)
    assert norm(lhs - rhs, SpaceKind.L2) < 1e-12
