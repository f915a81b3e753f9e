import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invop import neural
from invop.errors import DimensionMismatch, NonFiniteValue
from invop.fem import ProblemKind
from invop.grid import GridFunction
from invop.neural import (
    BranchCoeffs,
    StructuredSurrogateCoeffs,
    TrunkCoeffs,
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


def _random_branch(rng, n_l=5, n_terms=1):
    return BranchCoeffs(
        rng.standard_normal((n_terms, n_l + 1)),
        rng.standard_normal(n_l),
        rng.standard_normal(n_l + 1),
    )


def test_eval_branch_is_weighted_sigmoid_sum():
    rng = np.random.default_rng(0)
    b = _random_branch(rng, n_terms=3)
    xs = rng.standard_normal(5)
    z = dense_weights(b) @ xs + b.theta
    expect = [float(np.dot(c_i, activation(z))) for c_i in b.c]
    assert eval_branch(b, xs) == pytest.approx(expect, rel=1e-14)


def test_eval_branch_rejects_wrong_sample_count():
    rng = np.random.default_rng(1)
    b = _random_branch(rng)
    with pytest.raises(DimensionMismatch):
        eval_branch(b, np.zeros(4))


def test_branch_rejects_dense_weights():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionMismatch, match="branch.w"):
        BranchCoeffs(rng.standard_normal((1, 3)), rng.standard_normal((3, 2)),
                     rng.standard_normal(3))


def test_branch_rejects_output_weights_of_the_wrong_shape():
    rng = np.random.default_rng(11)
    w, theta = rng.standard_normal(2), rng.standard_normal(3)
    assert BranchCoeffs(rng.standard_normal((1, 3)), w, theta).c.shape == (1, 3)
    with pytest.raises(DimensionMismatch, match="shapes disagree"):
        BranchCoeffs(rng.standard_normal((2, 2)), w, theta)
    for shape in ((3,), (2, 3, 1)):
        with pytest.raises(DimensionMismatch, match="branch.c"):
            BranchCoeffs(rng.standard_normal(shape), w, theta)


def test_eval_trunk_shape_and_value():
    trunk = TrunkCoeffs(np.array([2.0]), np.array([0.0]), np.array([0.0]))
    out = eval_trunk(trunk, [0.1, 0.9])
    # zero weight: sigmoid(0) = 1/2, coefficient 2 -> constant 1
    assert out == pytest.approx([1.0, 1.0], abs=1e-15)


# -- the kernel against the dense oracle ------------------------------------


def _random_structured(rng, n_terms=3):
    """Random, far from near-linear coefficients whose branch reads random
    sensor points off the mesh nodes; trunk widths differ between terms."""
    n_l = 6
    branch = _random_branch(rng, n_l, n_terms)
    trunks = []
    for j in range(n_terms):
        n_j = 3 + j
        trunks.append(TrunkCoeffs(
            rng.standard_normal(n_j),
            rng.standard_normal(n_j),
            rng.standard_normal(n_j),
        ))
    pts = np.sort(rng.uniform(0.0, 1.0, n_l))
    return StructuredSurrogateCoeffs(branch, tuple(trunks), pts)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_flatten_preserves_evaluation():
    rng = np.random.default_rng(3)
    s = _random_structured(rng)
    x = GridFunction.from_callable(lambda t: np.sin(np.pi * t), 32)
    t_points = np.linspace(0, 1, 11)
    values, _ = eval_structured_with_gradient(s, x, t_points)
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
    _, pullback = eval_structured_with_gradient(s, x, t_points)
    expect = jacobian_structured_dense(s, x, t_points).T @ v
    assert _rel(pullback(v), expect) < 1e-12


def test_structured_gradient_matches_fd():
    rng = np.random.default_rng(5)
    s = _random_structured(rng, n_terms=2)
    n = 32
    x = GridFunction(1.0 + 0.1 * rng.standard_normal(n + 1))
    t_points = np.linspace(0, 1, 7)
    _, pullback = eval_structured_with_gradient(s, x, t_points)
    d = rng.standard_normal(n + 1)
    v = rng.standard_normal(t_points.size)
    eps = 1e-6

    def values(sign):
        return eval_structured_with_gradient(s, GridFunction(x.values + sign * eps * d),
                                             t_points)[0]

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
    b = _random_branch(rng, n_l=2)
    t = TrunkCoeffs(rng.standard_normal(1), rng.standard_normal(1), rng.standard_normal(1))
    with pytest.raises(DimensionMismatch, match=r"\[0, 1\]"):
        StructuredSurrogateCoeffs(b, (t,), np.array([0.5, 1.25]))
    with pytest.raises(NonFiniteValue, match="s_points"):
        StructuredSurrogateCoeffs(b, (t,), np.array([0.5, np.nan]))
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
    t = TrunkCoeffs(rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2))
    wide, narrow = _random_branch(rng, n_l=4), _random_branch(rng, n_l=3)
    pts = np.linspace(0.0, 1.0, 4)
    StructuredSurrogateCoeffs(wide, (t,), pts)
    with pytest.raises(DimensionMismatch, match="sensor count"):
        StructuredSurrogateCoeffs(narrow, (t,), pts)


def test_operator_rejects_branch_outputs_unequal_to_trunks():
    rng = np.random.default_rng(12)
    t = TrunkCoeffs(rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2))
    pts = np.linspace(0.0, 1.0, 4)
    StructuredSurrogateCoeffs(_random_branch(rng, n_l=4, n_terms=2), (t, t), pts)
    for n_terms in (1, 3):
        with pytest.raises(DimensionMismatch, match="one output per trunk"):
            StructuredSurrogateCoeffs(_random_branch(rng, n_l=4, n_terms=n_terms), (t, t), pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_rejects_non_finite_coefficients(bad):
    rng = np.random.default_rng(7)
    theta = rng.standard_normal(3)
    theta[1] = bad
    with pytest.raises(NonFiniteValue, match="branch.theta"):
        BranchCoeffs(rng.standard_normal((2, 3)), rng.standard_normal(2), theta)
    with pytest.raises(NonFiniteValue, match="branch.c"):
        BranchCoeffs(np.vstack([theta, theta]), rng.standard_normal(2), rng.standard_normal(3))
    with pytest.raises(NonFiniteValue, match="trunk.zeta"):
        TrunkCoeffs(rng.standard_normal(3), rng.standard_normal(3), theta)
