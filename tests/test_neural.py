import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invop import neural
from invop.errors import DimensionMismatch, NonFiniteValue
from invop.fem import ProblemKind
from invop.grid import GridFunction
from invop.neural import (
    StructuredSurrogateCoeffs,
    activation,
    activation_derivative,
    eval_branch,
    eval_structured_with_gradient,
    eval_trunk,
)
from invop.studies import StudyConfig, c_example_setup
from invop.tikhonov import NeuralMap
from invop.training import LinearSurrogate
from neural_reference import (
    NeuralOperatorCoeffs,
    dense_weights,
    eval_neural_operator,
    eval_structured_dense,
    flatten_structured,
    jacobian_structured_dense,
)

#: the ids name the one activation, as a surrogate file's ``activation`` field does
LOGISTIC = pytest.mark.parametrize("kind", ["logistic"])


# -- activations ------------------------------------------------------------


@LOGISTIC
def test_activation_midpoint_and_limits(kind):
    assert activation(0.0) == pytest.approx(0.5, abs=1e-15)
    assert activation(50.0) > 0.99
    assert activation(-50.0) < 0.01


@LOGISTIC
def test_activation_derivative_matches_fd(kind):
    t = np.linspace(-4, 4, 17)
    eps = 1e-6
    fd = (activation(t + eps) - activation(t - eps)) / (2 * eps)
    assert activation_derivative(t) == pytest.approx(fd, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(-15, 15))
def test_activation_monotone_in_unit_interval(t):
    v = float(activation(t))
    assert 0.0 < v < 1.0
    assert float(activation_derivative(t)) >= 0.0


# -- branch / trunk ---------------------------------------------------------


def _random_coeffs(rng, n_l=5, n_terms=1, n_j=2, **arrays):
    """Random coefficients on evenly spaced sensor points; ``arrays``
    replaces fields, by slot name."""
    fields = dict(s_points=np.linspace(0.0, 1.0, n_l),
                  branch_c=rng.standard_normal((n_terms, n_l + 1)),
                  branch_w=rng.standard_normal(n_l), branch_theta=rng.standard_normal(n_l + 1),
                  **{k: rng.standard_normal((n_terms, n_j))
                     for k in ("trunk_c", "trunk_w", "trunk_zeta")})
    return StructuredSurrogateCoeffs(**{**fields, **arrays})


def test_eval_branch_is_weighted_sigmoid_sum():
    rng = np.random.default_rng(0)
    b = _random_coeffs(rng, n_terms=3)
    xs = rng.standard_normal(5)
    z = dense_weights(b) @ xs + b.branch_theta
    expect = [float(np.dot(c_i, activation(z))) for c_i in b.branch_c]
    assert eval_branch(b, xs) == pytest.approx(expect, rel=1e-14)


def test_eval_branch_rejects_wrong_sample_count():
    rng = np.random.default_rng(1)
    b = _random_coeffs(rng)
    with pytest.raises(DimensionMismatch):
        eval_branch(b, np.zeros(4))


def test_branch_rejects_dense_weights():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionMismatch, match="branch.w"):
        _random_coeffs(rng, n_l=2, branch_w=rng.standard_normal((3, 2)))


def test_branch_rejects_output_weights_of_the_wrong_shape():
    rng = np.random.default_rng(11)
    assert _random_coeffs(rng, n_l=2).branch_c.shape == (1, 3)
    with pytest.raises(DimensionMismatch, match="shapes disagree"):
        _random_coeffs(rng, n_l=2, branch_c=rng.standard_normal((2, 2)))
    for shape in ((3,), (2, 3, 1)):
        with pytest.raises(DimensionMismatch, match="branch.c"):
            _random_coeffs(rng, n_l=2, branch_c=rng.standard_normal(shape))


def test_eval_trunk_shape_and_value():
    out = eval_trunk(np.array([2.0]), np.array([0.0]), np.array([0.0]), [0.1, 0.9])
    # zero weight: sigmoid(0) = 1/2, coefficient 2 -> constant 1
    assert out == pytest.approx([1.0, 1.0], abs=1e-15)


# -- the kernel against the dense oracle ------------------------------------


def _random_structured(rng, n_terms=3):
    """Random, far from near-linear coefficients whose branch reads random
    sensor points off the mesh nodes."""
    n_l = 6
    return _random_coeffs(rng, n_l, n_terms, n_j=4,
                          s_points=np.sort(rng.uniform(0.0, 1.0, n_l)))


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_flatten_preserves_evaluation():
    rng = np.random.default_rng(3)
    s = _random_structured(rng)
    x = GridFunction.from_callable(lambda t: np.sin(np.pi * t), 32)
    t_points = np.linspace(0, 1, 11)
    values, _ = eval_structured_with_gradient(s, x.values, t_points)
    flat = eval_neural_operator(flatten_structured(s), x, t_points)
    assert _rel(values, flat) < 1e-12
    assert _rel(values, eval_structured_dense(s, x, t_points)) < 1e-12


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


@LOGISTIC
def test_pullback_matches_dense_jacobian(kind):
    rng = np.random.default_rng(8)
    s = _random_structured(rng)
    n = 32
    x = GridFunction(rng.standard_normal(n + 1))
    t_points = np.linspace(0, 1, 9)
    v = rng.standard_normal(t_points.size)
    _, pullback = eval_structured_with_gradient(s, x.values, t_points)
    expect = jacobian_structured_dense(s, x, t_points).T @ v
    assert _rel(pullback(v), expect) < 1e-12


def test_structured_gradient_matches_fd():
    rng = np.random.default_rng(5)
    s = _random_structured(rng, n_terms=2)
    n = 32
    x = GridFunction(1.0 + 0.1 * rng.standard_normal(n + 1))
    t_points = np.linspace(0, 1, 7)
    _, pullback = eval_structured_with_gradient(s, x.values, t_points)
    d = rng.standard_normal(n + 1)
    v = rng.standard_normal(t_points.size)
    eps = 1e-6

    def values(sign):
        return eval_structured_with_gradient(s, x.values + sign * eps * d, t_points)[0]

    fd = np.dot(v, values(1.0) - values(-1.0)) / (2 * eps)
    assert np.dot(pullback(v), d) == pytest.approx(fd, abs=1e-7)


def test_neural_forward_matches_dense_evaluation_bitwise():
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    x0, y0 = ex.ls.center
    h = NeuralMap(ex.coeffs, ex.ls)
    x = GridFunction(x0.values + 0.05 * np.sin(3 * np.pi * x0.nodes))
    expect = y0.values + eval_structured_dense(ex.coeffs, x, y0.nodes)
    assert np.array_equal(h.forward(x).values, expect)


def test_neural_forward_computes_no_derivative(monkeypatch):
    rng = np.random.default_rng(9)
    s = _random_structured(rng)
    n = 16
    center = (GridFunction.constant(1.0, n), GridFunction.constant(0.0, n))
    # an expansion of its center pair alone: the map reads nothing else of it
    ls = LinearSurrogate((), (), ProblemKind.C_EXAMPLE, center, center[1], ())
    x = GridFunction(1.0 + 0.1 * rng.standard_normal(n + 1))
    calls = []

    def counted(t):
        calls.append(1)
        return activation_derivative(t)

    monkeypatch.setattr(neural, "activation_derivative", counted)
    h = NeuralMap(s, ls)
    h.forward(x)
    assert calls == []
    h.misfit_and_gradient(x, GridFunction.constant(0.0, n))
    assert s.n_terms == 3 and len(calls) == 1


def test_operator_rejects_out_of_range_sample_points():
    rng = np.random.default_rng(6)
    with pytest.raises(DimensionMismatch, match=r"\[0, 1\]"):
        _random_coeffs(rng, n_l=2, n_j=1, s_points=np.array([0.5, 1.25]))
    with pytest.raises(NonFiniteValue, match="s_points"):
        _random_coeffs(rng, n_l=2, n_j=1, s_points=np.array([0.5, np.nan]))
    with pytest.raises(DimensionMismatch):
        NeuralOperatorCoeffs(
            alpha=rng.standard_normal((1, 1)),
            w=rng.standard_normal((1, 1, 2)),
            w_vec=rng.standard_normal(1),
            theta=rng.standard_normal((1, 1)),
            s_points=np.array([0.0, 1.5]),
            zeta=rng.standard_normal(1),
        )


def test_operator_rejects_branch_narrower_than_sensors():
    rng = np.random.default_rng(10)
    pts = np.linspace(0.0, 1.0, 4)
    _random_coeffs(rng, n_l=4, s_points=pts)
    with pytest.raises(DimensionMismatch, match="sensor count"):
        _random_coeffs(rng, n_l=3, s_points=pts)


def test_operator_rejects_branch_outputs_unequal_to_trunks():
    rng = np.random.default_rng(12)
    trunks = {k: rng.standard_normal((2, 2)) for k in ("trunk_c", "trunk_w", "trunk_zeta")}
    _random_coeffs(rng, n_l=4, n_terms=2, **trunks)
    for n_terms in (1, 3):
        with pytest.raises(DimensionMismatch, match="one output per trunk"):
            _random_coeffs(rng, n_l=4, n_terms=n_terms, **trunks)


def test_operator_rejects_trunk_arrays_of_unequal_shapes():
    rng = np.random.default_rng(13)
    with pytest.raises(DimensionMismatch, match="trunk coefficient shapes disagree"):
        _random_coeffs(rng, n_j=3, trunk_w=rng.standard_normal((1, 2)))
    with pytest.raises(DimensionMismatch, match="trunk.c"):
        _random_coeffs(rng, n_j=3, trunk_c=rng.standard_normal(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_coefficients(bad):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(3)
    theta[1] = bad
    with pytest.raises(NonFiniteValue, match="branch.theta"):
        _random_coeffs(rng, n_l=2, n_terms=2, branch_theta=theta)
    with pytest.raises(NonFiniteValue, match="branch.c"):
        _random_coeffs(rng, n_l=2, n_terms=2, branch_c=np.vstack([theta, theta]))
    with pytest.raises(NonFiniteValue, match="trunk.zeta"):
        _random_coeffs(rng, n_j=3, trunk_zeta=theta[None, :])
