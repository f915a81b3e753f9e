"""The L·D·Lᵀ tridiagonal kernel returns LAPACK dptsv's bits.

``scipy.linalg.solveh_banded`` calls dptsv on a two-row banded matrix, so
it is the reference the kernel must match bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from invop.errors import SingularSystem
from invop.fem import (
    REFERENCE_CELLS,
    ProblemKind,
    ProblemTag,
    _assemble,
    _galerkin_factors,
    _load_vector,
    misfit_gradient_nodal,
    solve_forward_fem,
)
from invop.grid import (
    GridFunction,
    SpaceKind,
    _h1_gram_factors,
    _ldl_factor,
    _ldl_solve,
    gram_solve,
    trapezoid_weights,
)


def _dptsv(main, off, rhs):
    ab = np.zeros((2, main.size))
    ab[0, 1:] = off
    ab[1] = main
    return solveh_banded(ab, rhs)


def _kernel(main, off, rhs):
    return _ldl_solve(*_ldl_factor(main, off), rhs)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_random_dominant_systems_match_dptsv():
    rng = np.random.default_rng(0)
    sizes = [2, 3, 4, 5, 4095] + rng.integers(2, 4096, size=60).tolist()
    for n in sizes:
        off = rng.standard_normal(n - 1) * 10.0 ** rng.uniform(-3, 3)
        mag = np.abs(off)
        main = np.r_[mag, 0.0] + np.r_[0.0, mag] + rng.uniform(1e-3, 1.0, n)
        rhs = rng.standard_normal(n)
        assert _same_bits(_kernel(main, off, rhs), _dptsv(main, off, rhs)), n


@pytest.mark.parametrize("tag", list(ProblemTag), ids=lambda t: t.value)
@pytest.mark.parametrize("n", [256, REFERENCE_CELLS])
def test_assembled_galerkin_systems_match_dptsv(tag, n):
    kind = ProblemKind(tag)
    s = np.linspace(0.0, 1.0, n + 1)
    x = 1.0 + 0.5 * np.sin(3 * np.pi * s) ** 2
    main, off = _assemble(kind, x, n)
    rhs = _load_vector(np.exp(s), 1.0 / n)
    assert _same_bits(_kernel(main, off, rhs), _dptsv(main, off, rhs))


@pytest.mark.parametrize("n_cells", [1, 2, 64, 256, REFERENCE_CELLS])
def test_h1_gram_solve_matches_dptsv(n_cells):
    h = 1.0 / n_cells
    main = trapezoid_weights(n_cells)
    main[1:] += 1.0 / h
    main[:-1] += 1.0 / h
    rhs = np.random.default_rng(n_cells).standard_normal(n_cells + 1)
    expect = _dptsv(main, np.full(n_cells, -1.0 / h), rhs)
    assert _same_bits(gram_solve(rhs, n_cells, SpaceKind.H1), expect)


def test_h1_gram_factors_are_kept_per_mesh_size():
    d, l = _h1_gram_factors(32)
    assert _h1_gram_factors(32) is _h1_gram_factors(32)
    assert isinstance(d, tuple) and isinstance(l, tuple)
    assert (len(d), len(l)) == (33, 32)


@pytest.mark.parametrize("tag", list(ProblemTag), ids=lambda t: t.value)
def test_misfit_gradient_reuses_the_forward_factorization(tag):
    kind, n = ProblemKind(tag), 64
    x = GridFunction.from_callable(lambda s: 1.0 + 0.3 * s * (1 - s), n)
    f = GridFunction.constant(1.0, n)
    r = GridFunction.from_callable(np.sin, n)
    _galerkin_factors.cache_clear()
    y = solve_forward_fem(kind, x, f, n)
    z = misfit_gradient_nodal(kind, x, y, r, n)
    assert (_galerkin_factors.cache_info().hits, _galerkin_factors.cache_info().misses) == (1, 1)
    _galerkin_factors.cache_clear()
    assert _same_bits(misfit_gradient_nodal(kind, x, y, r, n), z)


def test_single_unknown_is_rhs_over_pivot():
    assert _kernel(np.array([4.0]), np.array([]), np.array([0.5])).tolist() == [0.125]


@pytest.mark.parametrize("main,off,index", [
    ([0.0, 2.0, 2.0], [1.0, 1.0], 0),
    ([-1.0, 2.0], [0.5], 0),
    ([1.0, 1.0, 2.0], [1.0, 0.5], 1),  # 1 - 1·1 = 0
    ([1.0, 2.0, 1.0], [1.0, 1.0], 2),  # 1 - 1·1 = 0 at the last pivot
    ([np.nan, 2.0], [0.5], 0),
    ([1.0, 2.0], [np.nan], 1),
])
def test_non_positive_or_nan_pivot_raises(main, off, index):
    with pytest.raises(SingularSystem, match=f"pivot {index} "):
        _ldl_factor(np.array(main), np.array(off))
