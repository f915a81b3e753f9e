import numpy as np
import pytest

from invop.errors import (
    DependentImages,
    EmptyProbeSet,
    IllConditionedFit,
    NonAdmissiblePerturbation,
)
from invop.fem import ProblemKind, derivative_apply, solve_forward_reference
from invop.grid import GridFunction, SpaceKind, inner, norm
from invop.neural import eval_branch
from invop.studies import StudyConfig, c_example_setup
from invop.tikhonov import RankMap
from invop.training import (
    PerturbationSpec,
    SurrogateDiagnostics,
    assemble_neural_surrogate,
    build_linear_surrogate,
    fit_trunk,
    generate_training_set,
    gram_schmidt,
    perturbation_shape,
    quadrature_nodes,
)

A = ProblemKind.A_EXAMPLE
C = ProblemKind.C_EXAMPLE
N = 128


@pytest.fixture(scope="module")
def c_setup():
    f = GridFunction.constant(50.0, N)
    x0 = GridFunction.constant(1.0, N)
    ts = generate_training_set(C, f, x0, PerturbationSpec(0.1, 5))
    ls = build_linear_surrogate(ts)
    return f, x0, ts, ls


# -- training sets ----------------------------------------------------------


def test_training_set_layout(c_setup):
    f, x0, ts, ls = c_setup
    assert ts.n_train == 5
    assert ts.x.shape == ts.y.shape == (6, N + 1)
    # pair 0 is the unperturbed center
    assert np.array_equal(ts.x[0], x0.values)


def test_perturbation_shapes_unit_norm():
    for ell in range(1, 5):
        m = perturbation_shape(ell, 512)
        assert norm(m, SpaceKind.L2) == pytest.approx(1.0, rel=1e-4)


def test_generation_is_deterministic(c_setup):
    f, x0, ts, ls = c_setup
    ts2 = generate_training_set(C, f, x0, PerturbationSpec(0.1, 5))
    assert np.array_equal(ts.x, ts2.x) and np.array_equal(ts.y, ts2.y)


def test_inadmissible_amplitude_rejected():
    f = GridFunction.constant(1.0, N)
    x0 = GridFunction.constant(0.15, N)  # only 0.05 above the bound nu=0.1
    with pytest.raises(NonAdmissiblePerturbation):
        generate_training_set(A, f, x0, PerturbationSpec(0.2, 3))


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), float("-inf"), 0.0, -0.1])
def test_perturbation_amplitude_must_be_positive_and_finite(amplitude):
    # NaN passes ``amplitude <= 0``, so the check must not rest on that comparison
    with pytest.raises(ValueError, match="amplitude"):
        PerturbationSpec(amplitude, 3)


def test_dependent_images_detected():
    f = GridFunction.constant(1.0, N)
    x0 = GridFunction.constant(1.0, N)
    ts = generate_training_set(C, GridFunction.constant(50.0, N), x0,
                               PerturbationSpec(0.1, 3))
    # duplicate a pair to force dependence downstream
    dup = ts._replace(x=np.vstack([ts.x, ts.x[1]]), y=np.vstack([ts.y, ts.y[1]]))
    with pytest.raises(DependentImages):
        build_linear_surrogate(dup)


# -- orthonormalization -----------------------------------------------------


def test_gram_schmidt_orthonormal_and_triangular(c_setup):
    f, x0, ts, ls = c_setup
    for space in SpaceKind:
        imgs = np.array([np.sin((k + 1) * np.pi * x0.nodes) + 0.1 * x0.nodes
                         for k in range(4)])
        basis, T = gram_schmidt(imgs, space)
        assert basis.shape == imgs.shape
        for i, bi in enumerate(map(GridFunction, basis)):
            for j, bj in enumerate(map(GridFunction, basis)):
                assert inner(bi, bj, space) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-12
                )
        assert np.allclose(T, np.tril(T))
        assert np.all(np.diag(T) > 0)
        # basis[j] = sum_i T[j,i] images[i]
        for j, bj in enumerate(basis):
            rec = sum(T[j, i] * imgs[i] for i in range(j + 1))
            assert rec == pytest.approx(bj, abs=1e-10)


def test_surrogate_reproduces_training_pairs(c_setup):
    f, x0, ts, ls = c_setup
    rank = RankMap(ls)
    for x, y in zip(ts.x[1:], ts.y[1:]):
        pred = rank.forward(GridFunction(x)).values - ts.y[0]
        assert norm(GridFunction(pred - (y - ts.y[0])), SpaceKind.L2) < 1e-12


def test_surrogate_matches_linearization_on_span(c_setup):
    # the rank-N map agrees with the derivative of the forward map in the
    # training directions up to the linearization (not rounding) error
    f, x0, ts, ls = c_setup
    x1 = GridFunction(ts.x[1])
    lin = derivative_apply(C, x0, x1 - x0, f)
    pred = RankMap(ls).forward(x1) - GridFunction(ts.y[0])
    rel = norm(pred - lin, SpaceKind.L2) / norm(lin, SpaceKind.L2)
    assert rel < 2e-2  # amplitude 0.1 => quadratic remainder ~ 1e-2


# -- branch construction ----------------------------------------------------


def test_assembled_branches_vanish_at_center():
    # each branch output realizes <x - center, basis_ell>, so it is zero at the center
    assert len(quadrature_nodes(17)) == 18
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    x0 = ex.ls.center[0]
    assert ex.coeffs.n_terms == 6
    at_center = eval_branch(ex.coeffs, x0.sample(ex.coeffs.s_points))
    assert at_center.shape == (6,)
    for value, c_i in zip(at_center, ex.coeffs.branch_c):
        assert abs(value) <= 1e-12 * np.sum(np.abs(c_i))


def test_trunk_fit_residual_small(c_setup):
    f, x0, ts, ls = c_setup
    (c, w, zeta), residual = fit_trunk(ls.induced[0], 14, seed=1)
    assert residual < 1e-3
    assert c.shape == w.shape == zeta.shape == (14,)


def test_trunk_fit_raises_when_overparameterized(c_setup):
    f, x0, ts, ls = c_setup
    with pytest.raises(IllConditionedFit):
        fit_trunk(ls.induced[0], 32, seed=0)


# -- assembled surrogate ----------------------------------------------------


def test_assembled_surrogate_diagnostics_identity(c_setup):
    f, x0, ts, ls = c_setup
    xs = [x0 + 0.1 * perturbation_shape(l, N) for l in range(1, 6)]
    probes = tuple((x, solve_forward_reference(C, x, f)) for x in xs)
    coeffs, diag = assemble_neural_surrogate(ls._replace(probes=probes), 256, 12, seed=1)
    assert diag.n_terms == ls.n_terms
    assert diag.rho_bound == diag.nu_N + diag.n_terms * diag.q_N * diag.r_N
    assert diag.q_N < 1e-3
    assert diag.r_N < 1e-2


def test_build_carries_the_probe_pairs(c_setup):
    # the one solved mix of the training pairs, and no training pair
    f, x0, ts, ls = c_setup
    (xm, ym), = ls.probes
    assert not any(np.array_equal(xm.values, x) for x in ts.x)
    assert np.array_equal(ym.values, solve_forward_reference(C, xm, f).values)


def test_assembly_without_probes_raises_empty_probe_set(c_setup):
    # nu_N is a maximum over the probe pairs, which has no value over none
    _, _, _, ls = c_setup
    with pytest.raises(EmptyProbeSet):
        assemble_neural_surrogate(ls._replace(probes=()), 256, 12, seed=1)


def test_rho_bound_is_derived_from_the_measured_errors():
    assert SurrogateDiagnostics._fields == ("nu_N", "q_N", "r_N", "n_terms")
    diag = SurrogateDiagnostics(nu_N=1e-6, q_N=2e-3, r_N=5e-4, n_terms=6)
    assert diag.rho_bound == 1e-6 + 6 * 2e-3 * 5e-4


def test_linearized_branch_accuracy_both_spaces():
    for prob in (C, A):  # X = L2 and X = H1
        f = GridFunction.constant(50.0 if prob is C else 1.0, N)
        x0 = GridFunction.constant(1.0, N)
        ts = generate_training_set(prob, f, x0, PerturbationSpec(0.05, 3))
        ls = build_linear_surrogate(ts)
        xs = [x0 + 0.05 * perturbation_shape(l, N) for l in range(1, 4)]
        probes = tuple((x, solve_forward_reference(prob, x, f)) for x in xs)
        coeffs, diag = assemble_neural_surrogate(ls._replace(probes=probes), 256, 12, seed=1)
        # dominated by resampling the probe onto the finer sample submesh
        assert diag.q_N < 1e-4, (prob, diag.q_N)
