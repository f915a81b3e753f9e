import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invop.errors import DimensionMismatch, NonFiniteValue
from invop.grid import GridFunction, SpaceKind, gram_apply, gram_solve, inner, norm, trapezoid_weights


def test_trapezoid_weights_sum_to_one():
    for n in (2, 7, 17, 64):
        w = trapezoid_weights(n)
        assert w.shape == (n + 1,)
        assert abs(w.sum() - 1.0) < 1e-15


def test_trapezoid_weights_are_one_read_only_array_per_mesh():
    w = trapezoid_weights(16)
    assert trapezoid_weights(16) is w
    assert not w.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_l2_norm_matches_analytic_integral():
    # trapezoid rule on sin(pi s): ||sin||_L2^2 = 1/2 up to O(h^2)
    n = 512
    x = GridFunction.from_callable(lambda s: np.sin(np.pi * s), n)
    assert norm(x, SpaceKind.L2) == pytest.approx(np.sqrt(0.5), rel=1e-5)


def test_h1_norm_adds_derivative_energy():
    # for x = s: ||x||_L2^2 = 1/3, |x'|^2 = 1
    n = 1024
    x = GridFunction.from_callable(lambda s: s, n)
    assert norm(x, SpaceKind.H1) == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), rel=1e-4)


def test_inner_symmetric_and_bilinear():
    n = 32
    rng = np.random.default_rng(0)
    x = GridFunction(rng.standard_normal(n + 1))
    y = GridFunction(rng.standard_normal(n + 1))
    z = GridFunction(rng.standard_normal(n + 1))
    for space in SpaceKind:
        assert inner(x, y, space) == pytest.approx(inner(y, x, space), rel=1e-14)
        assert inner(x + z, y, space) == pytest.approx(
            inner(x, y, space) + inner(z, y, space), rel=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=5, max_size=33),
    c=st.floats(-5, 5),
)
def test_norm_absolute_homogeneity(vals, c):
    x = GridFunction(np.array(vals))
    for space in SpaceKind:
        assert norm(c * x, space) == pytest.approx(abs(c) * norm(x, space), abs=1e-10)


def test_gram_apply_reproduces_inner_product():
    n = 48
    rng = np.random.default_rng(1)
    x = GridFunction(rng.standard_normal(n + 1))
    y = GridFunction(rng.standard_normal(n + 1))
    for space in SpaceKind:
        lhs = float(np.dot(x.values, gram_apply(y.values, space)))
        assert lhs == pytest.approx(inner(x, y, space), rel=1e-12)


def test_gram_apply_to_rows_is_one_call_per_row():
    rows = np.random.default_rng(3).standard_normal((5, 49))
    for space in SpaceKind:
        assert np.array_equal(gram_apply(rows, space), [gram_apply(r, space) for r in rows])


def test_gram_solve_inverts_gram_apply():
    n = 48
    rng = np.random.default_rng(2)
    z = rng.standard_normal(n + 1)
    for space in SpaceKind:
        assert gram_apply(gram_solve(z, space), space) == pytest.approx(z, abs=1e-10)


def test_resample_identity_and_refinement():
    n = 16
    x = GridFunction.from_callable(lambda s: s * (1 - s), n)
    assert x.resample(n) is x
    fine = x.resample(64)
    # piecewise-linear interpolation is exact at the coarse nodes
    assert fine.values[::4] == pytest.approx(x.values, abs=1e-15)


def test_arithmetic_requires_matching_mesh():
    a = GridFunction.constant(0.0, 8)
    b = GridFunction.constant(0.0, 16)
    with pytest.raises(DimensionMismatch):
        _ = a + b


def test_the_values_fix_the_mesh():
    x = GridFunction(np.zeros(5))
    assert x.n_cells == 4
    assert x.nodes.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(AttributeError):
        x.n_cells = 8


def test_equality_and_hash_are_identity():
    # a generated __eq__ would compare the arrays and raise on their truth value
    a = GridFunction.from_callable(lambda s: s * s, 8)
    assert a == a
    assert a != GridFunction(a.values.copy())
    assert {a} == {a} and hash(a) == hash(a)
    assert a in (GridFunction(a.values.copy()), a)


@pytest.mark.parametrize("values", [np.float64(1.0), np.zeros((3, 3)), np.zeros((1, 5)),
                                    np.zeros(1), np.zeros(0)],
                         ids=["0-d", "2-D", "row", "one entry", "empty"])
def test_values_that_fix_no_mesh_rejected(values):
    with pytest.raises(DimensionMismatch):
        GridFunction(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected(bad):
    values = np.ones(9)
    values[4] = bad
    with pytest.raises(NonFiniteValue):
        GridFunction(values)


def test_sample_evaluates_interpolant():
    n = 10
    x = GridFunction.from_callable(lambda s: 2 * s, n)
    assert x.sample([0.0, 0.25, 1.0]) == pytest.approx([0.0, 0.5, 2.0], abs=1e-15)
