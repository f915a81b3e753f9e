import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invop.errors import DimensionMismatch, NonFiniteValue
from invop.grid import GridFunction
from invop.neural import (
    ActivationKind,
    BranchCoeffs,
    NeuralOperatorCoeffs,
    StructuredSurrogateCoeffs,
    TrunkCoeffs,
    activation,
    activation_derivative,
    eval_branch,
    eval_branch_gradient,
    eval_neural_operator,
    eval_structured,
    eval_structured_with_gradient,
    eval_trunk,
    flatten_structured,
)

KINDS = list(ActivationKind)


# -- activations ------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_activation_midpoint_and_limits(kind):
    assert activation(kind, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert activation(kind, 50.0) > 0.99
    assert activation(kind, -50.0) < 0.01


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_activation_derivative_matches_fd(kind):
    t = np.linspace(-4, 4, 17)
    eps = 1e-6
    fd = (activation(kind, t + eps) - activation(kind, t - eps)) / (2 * eps)
    assert activation_derivative(kind, t) == pytest.approx(fd, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(-15, 15))
def test_activation_monotone_in_unit_interval(t):
    # beyond |t| ~ 19 the rescaled tanh saturates to the closed endpoints in
    # float64, so strict bounds are asserted on the unsaturated range only
    for kind in KINDS:
        v = float(activation(kind, t))
        assert 0.0 < v < 1.0
        assert float(activation_derivative(kind, t)) >= 0.0


# -- branch / trunk ---------------------------------------------------------


def _random_branch(rng, n_k=3, n_l=5):
    return BranchCoeffs(
        rng.standard_normal(n_k),
        rng.standard_normal((n_k, n_l)),
        rng.standard_normal(n_k),
    )


def test_eval_branch_is_weighted_sigmoid_sum():
    rng = np.random.default_rng(0)
    b = _random_branch(rng)
    xs = rng.standard_normal(5)
    expect = float(np.dot(b.c, activation(ActivationKind.LOGISTIC, b.w @ xs + b.theta)))
    assert eval_branch(b, ActivationKind.LOGISTIC, xs) == pytest.approx(expect, rel=1e-14)


def test_eval_branch_rejects_wrong_sample_count():
    rng = np.random.default_rng(1)
    b = _random_branch(rng)
    with pytest.raises(DimensionMismatch):
        eval_branch(b, ActivationKind.LOGISTIC, np.zeros(4))


def test_eval_branch_gradient_matches_fd():
    rng = np.random.default_rng(2)
    b = _random_branch(rng)
    xs = rng.standard_normal(5)
    g = eval_branch_gradient(b, ActivationKind.LOGISTIC, xs)
    eps = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = eps
        fd = (eval_branch(b, ActivationKind.LOGISTIC, xs + e)
              - eval_branch(b, ActivationKind.LOGISTIC, xs - e)) / (2 * eps)
        assert g[i] == pytest.approx(fd, abs=1e-8)


def test_eval_trunk_shape_and_value():
    trunk = TrunkCoeffs(np.array([2.0]), np.array([0.0]), np.array([0.0]))
    out = eval_trunk(trunk, ActivationKind.LOGISTIC, [0.1, 0.9])
    # zero weight: sigmoid(0) = 1/2, coefficient 2 -> constant 1
    assert out == pytest.approx([1.0, 1.0], abs=1e-15)


# -- structured form and its flattening -------------------------------------


def _random_structured(rng, n_terms=3, n_cells=32):
    branches, trunks, pts = [], [], []
    for j in range(n_terms):
        n_k, n_j, n_l = 2 + j, 3, 4 + j
        branches.append(BranchCoeffs(
            rng.standard_normal(n_k),
            rng.standard_normal((n_k, n_l)),
            rng.standard_normal(n_k),
        ))
        trunks.append(TrunkCoeffs(
            rng.standard_normal(n_j),
            rng.standard_normal(n_j),
            rng.standard_normal(n_j),
        ))
        pts.append(np.linspace(0, 1, n_l))
    return StructuredSurrogateCoeffs(tuple(branches), tuple(trunks), tuple(pts),
                                     ActivationKind.LOGISTIC)


def test_flatten_preserves_evaluation():
    rng = np.random.default_rng(3)
    s = _random_structured(rng)
    x = GridFunction.from_callable(lambda t: np.sin(np.pi * t), 32)
    t_points = np.linspace(0, 1, 11)
    direct = eval_structured(s, x, t_points)
    flat = eval_neural_operator(flatten_structured(s), x, t_points)
    assert flat == pytest.approx(direct, abs=1e-12)


def test_coefficient_count_formula():
    rng = np.random.default_rng(4)
    n_j, n_k, n_l = 3, 4, 5
    c = NeuralOperatorCoeffs(
        alpha=rng.standard_normal((n_j, n_k)),
        w=rng.standard_normal((n_j, n_k, n_l)),
        w_vec=rng.standard_normal(n_j),
        theta=rng.standard_normal((n_j, n_k)),
        s_points=np.linspace(0, 1, n_l),
        zeta=rng.standard_normal(n_j),
    )
    assert c.coefficient_count == n_j * (n_k * (n_l + 2) + 3)


def test_structured_gradient_matches_fd():
    rng = np.random.default_rng(5)
    s = _random_structured(rng, n_terms=2)
    n = 32
    x = GridFunction(n, 1.0 + 0.1 * rng.standard_normal(n + 1))
    t_points = np.linspace(0, 1, 7)
    vals, jac = eval_structured_with_gradient(s, x, t_points)
    assert vals == pytest.approx(eval_structured(s, x, t_points), abs=1e-13)
    d = rng.standard_normal(n + 1)
    eps = 1e-6
    fd = (eval_structured(s, GridFunction(n, x.values + eps * d), t_points)
          - eval_structured(s, GridFunction(n, x.values - eps * d), t_points)) / (2 * eps)
    assert jac @ d == pytest.approx(fd, abs=1e-7)


def test_operator_rejects_out_of_range_sample_points():
    rng = np.random.default_rng(6)
    with pytest.raises(DimensionMismatch):
        NeuralOperatorCoeffs(
            alpha=rng.standard_normal((1, 1)),
            w=rng.standard_normal((1, 1, 2)),
            w_vec=rng.standard_normal(1),
            theta=rng.standard_normal((1, 1)),
            s_points=np.array([0.0, 1.5]),
            zeta=rng.standard_normal(1),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_coefficients(bad):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal((1, 1))
    theta[0, 0] = bad
    with pytest.raises(NonFiniteValue, match="theta"):
        NeuralOperatorCoeffs(
            alpha=rng.standard_normal((1, 1)),
            w=rng.standard_normal((1, 1, 2)),
            w_vec=rng.standard_normal(1),
            theta=theta,
            s_points=np.array([0.0, 1.0]),
            zeta=rng.standard_normal(1),
        )
