"""The L·D·Lᵀ tridiagonal kernel returns LAPACK dptsv's bits.

``scipy.linalg.solveh_banded`` calls dptsv on a two-row banded matrix, so
it is the reference the kernel must match bit for bit.  The module-level
tests run the kernel that this numpy selects (dpttrf/dpttrs of its bundled
OpenBLAS where the wheel ships one); ``TestPythonKernel`` runs the parity,
pivot and size-1 tests again with the library handle forced to None.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from invop import grid, studies
from invop.errors import DimensionMismatch, SingularSystem
from invop.fem import (
    REFERENCE_CELLS,
    ProblemKind,
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
    _load_lapack,
    gram_solve,
    trapezoid_weights,
)
from invop.studies import StudyConfig, run_study
from invop.tikhonov import RUN_COLUMNS


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


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [256, REFERENCE_CELLS])
def test_assembled_galerkin_systems_match_dptsv(kind, n):
    s = np.linspace(0.0, 1.0, n + 1)
    x = 1.0 + 0.5 * np.sin(3 * np.pi * s) ** 2
    main, off = _assemble(kind, x)
    rhs = _load_vector(np.exp(s), 1.0 / n)
    assert _same_bits(_kernel(main, off, rhs), _dptsv(main, off, rhs))


@pytest.mark.parametrize("n_cells", [1, 2, 64, 256, REFERENCE_CELLS])
def test_h1_gram_solve_matches_dptsv(n_cells):
    h = 1.0 / n_cells
    main = trapezoid_weights(n_cells).copy()
    main[1:] += 1.0 / h
    main[:-1] += 1.0 / h
    rhs = np.random.default_rng(n_cells).standard_normal(n_cells + 1)
    expect = _dptsv(main, np.full(n_cells, -1.0 / h), rhs)
    assert _same_bits(gram_solve(rhs, SpaceKind.H1), expect)


def test_h1_gram_factors_are_kept_per_mesh_size():
    d, l = _h1_gram_factors(32)
    assert _h1_gram_factors(32) is _h1_gram_factors(32)
    assert not d.flags.writeable and not l.flags.writeable
    assert (len(d), len(l)) == (33, 32)


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_misfit_gradient_reuses_the_forward_factorization(kind):
    n = 64
    x = GridFunction.from_callable(lambda s: 1.0 + 0.3 * s * (1 - s), n)
    f = GridFunction.constant(1.0, n)
    r = GridFunction.from_callable(np.sin, n)
    _galerkin_factors.cache_clear()
    y = solve_forward_fem(kind, x, f)
    z = misfit_gradient_nodal(kind, x.values, y.values, r.values)
    assert (_galerkin_factors.cache_info().hits, _galerkin_factors.cache_info().misses) == (1, 1)
    _galerkin_factors.cache_clear()
    assert _same_bits(misfit_gradient_nodal(kind, x.values, y.values, r.values), z)


def test_single_unknown_is_rhs_over_pivot():
    assert _kernel(np.array([4.0]), np.array([]), np.array([0.5])).tolist() == [0.125]
    # a division, not dptts2's multiplication by 1/d, which differs in the last bit
    for d, b in np.random.default_rng(1).uniform(0.1, 10.0, (30, 2)):
        assert _kernel(np.array([d]), np.array([]), np.array([b])).tolist() == [b / d]


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


def test_band_and_rhs_sizes_are_checked_before_the_call():
    with pytest.raises(DimensionMismatch):
        _ldl_factor(np.full(4, 2.0), np.full(4, 0.5))
    d, l = _ldl_factor(np.full(4, 2.0), np.full(3, 0.5))
    with pytest.raises(DimensionMismatch):
        _ldl_solve(d, l, np.ones(5))


def test_lapack_is_found_where_numpy_bundles_it():
    root = Path(np.__file__).parents[1]
    bundled = list(root.glob("numpy.libs/libscipy_openblas64_*.so"))
    assert (_load_lapack(root) is not None) == bool(bundled)


def test_library_lookup_that_finds_nothing_falls_back(tmp_path):
    assert _load_lapack(tmp_path) is None
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas64_-0.so").write_bytes(b"not a shared object")
    assert _load_lapack(tmp_path) is None


def _clear_factor_caches():
    """Drop the cached factors, and the study setups solved with them."""
    for cache in (_h1_gram_factors, _galerkin_factors, studies._a_example_data,
                  studies._c_example_data):
        cache.cache_clear()


@pytest.fixture
def python_kernel(monkeypatch):
    """Force the Python kernel; cached factors are recomputed on it."""
    monkeypatch.setattr(grid, "_LAPACK", None)
    _clear_factor_caches()
    yield
    _clear_factor_caches()


class TestPythonKernel:
    """The parity, pivot and size-1 tests with the library handle set to None."""

    pytestmark = pytest.mark.usefixtures("python_kernel")

    test_random_dominant_systems_match_dptsv = staticmethod(
        test_random_dominant_systems_match_dptsv)
    test_assembled_galerkin_systems_match_dptsv = staticmethod(
        test_assembled_galerkin_systems_match_dptsv)
    test_h1_gram_solve_matches_dptsv = staticmethod(test_h1_gram_solve_matches_dptsv)
    test_single_unknown_is_rhs_over_pivot = staticmethod(test_single_unknown_is_rhs_over_pivot)
    test_non_positive_or_nan_pivot_raises = staticmethod(test_non_positive_or_nan_pivot_raises)


def _rows_without_runtime(cfg):
    drop = RUN_COLUMNS.index("runtime_ms")
    return [r.split(",")[:drop] + r.split(",")[drop + 1:] for r in run_study(cfg).rows]


@pytest.mark.parametrize("cfg", [
    StudyConfig("reg_rate", problem="a", n_cells=64, ladder=(0.02, 0.01, 0.005, 0.0025)),
    StudyConfig("reg_rate", problem="c", surrogate="rank", n_cells=64,
                ladder=(0.02, 0.01, 0.005, 0.0025), constant=0.15, xi=1e-4, seed=100),
], ids=["a-fem", "c-rank"])
def test_python_kernel_gives_the_same_study_rows(cfg, monkeypatch):
    rows = _rows_without_runtime(cfg)
    monkeypatch.setattr(grid, "_LAPACK", None)
    _clear_factor_caches()
    assert _rows_without_runtime(cfg) == rows
