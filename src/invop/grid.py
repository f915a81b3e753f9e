"""Functions on a uniform mesh of [0, 1] and the discrete inner products.

A :class:`GridFunction` is its nodal values: n + 1 of them lie at
``s_i = i / n``, so the array fixes the mesh, and so does the array of every
kernel below.  The L2 inner product is the composite trapezoid rule applied
to the nodal product; the H1 product adds the trapezoid rule of the
forward-difference derivatives on cells.

The module also holds the one solver of symmetric positive definite
tridiagonal systems that every Galerkin and Gram solve of the package uses:
an L·D·Lᵀ factorization with the bits of LAPACK's ``dptsv``.  Where numpy's
wheel bundles OpenBLAS (manylinux), it calls that library's dpttrf/dpttrs
through ctypes; elsewhere ``_LAPACK`` is None and a Python kernel performs
the same arithmetic in the same order on Python floats.  The Python kernel
is also the parity reference of the tests.
"""

from __future__ import annotations

import ctypes
import enum
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, SingularSystem


class SpaceKind(enum.Enum):
    L2 = "L2"
    H1 = "H1"


@dataclass(frozen=True, eq=False)  # identity equality and hash: == on arrays has no truth value
class GridFunction:
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise DimensionMismatch(f"expected a 1-D array of at least 2 nodal values, "
                                    f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("nodal values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n_cells(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_callable(f, n_cells: int) -> "GridFunction":
        s = np.linspace(0.0, 1.0, n_cells + 1)
        return GridFunction(np.asarray(f(s), dtype=float) * np.ones_like(s))

    @staticmethod
    def constant(c: float, n_cells: int) -> "GridFunction":
        return GridFunction(np.full(n_cells + 1, float(c)))

    # -- arithmetic (same mesh only; resampling is explicit) ---------------

    def _check_mesh(self, n_cells: int):
        """Raise DimensionMismatch unless this function lies on the n_cells mesh."""
        if self.n_cells != n_cells:
            raise DimensionMismatch(f"mesh mismatch: {self.n_cells} cells where the "
                                    f"{n_cells}-cell mesh is expected")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        other._check_mesh(self.n_cells)
        return GridFunction(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        other._check_mesh(self.n_cells)
        return GridFunction(self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.values * float(c))

    __rmul__ = __mul__

    # -- evaluation / resampling ------------------------------------------

    def sample(self, points) -> np.ndarray:
        """Evaluate the piecewise-linear interpolant at arbitrary points."""
        return np.interp(np.asarray(points, dtype=float), self.nodes, self.values)

    def resample(self, n_cells: int) -> "GridFunction":
        """Linear interpolation onto another uniform mesh."""
        if n_cells == self.n_cells:
            return self
        s = np.linspace(0.0, 1.0, n_cells + 1)
        return GridFunction(self.sample(s))


def trapezoid_weights(n_cells: int) -> np.ndarray:
    """Trapezoid weights of the n_cells mesh, a cached read-only array."""
    return _trapezoid_weights(n_cells)


@lru_cache(maxsize=16)
def _trapezoid_weights(n_cells: int) -> np.ndarray:
    h = 1.0 / n_cells
    w = np.full(n_cells + 1, h)
    w[0] = w[-1] = 0.5 * h
    w.flags.writeable = False
    return w


def _inner_nodal(u: np.ndarray, v: np.ndarray, space: SpaceKind) -> float:
    """The inner product of the functions with nodal values u and v on one mesh."""
    w = trapezoid_weights(u.size - 1)
    val = float(np.dot(w * u, v))
    if space is SpaceKind.H1:
        h = 1.0 / (u.size - 1)
        du = (u[1:] - u[:-1]) / h
        dv = (v[1:] - v[:-1]) / h
        val += float(np.dot(du, dv)) * h
    return val


def inner(x: GridFunction, z: GridFunction, space: SpaceKind = SpaceKind.L2) -> float:
    z._check_mesh(x.n_cells)
    return _inner_nodal(x.values, z.values, space)


def norm(x: GridFunction, space: SpaceKind = SpaceKind.L2) -> float:
    return float(np.sqrt(max(inner(x, x, space), 0.0)))


def gram_apply(v: np.ndarray, space: SpaceKind) -> np.ndarray:
    """Apply the Gram matrix of the mesh of v (of each row of a 2-D v) without forming it."""
    out = trapezoid_weights(v.shape[-1] - 1) * v
    if space is SpaceKind.H1:
        h = 1.0 / (v.shape[-1] - 1)
        d = (v[..., 1:] - v[..., :-1]) / h
        out[..., :-1] -= d
        out[..., 1:] += d
    return out


def _load_lapack(root: Path):
    """dpttrf and dpttrs of the OpenBLAS that a numpy wheel bundles, or None.

    ``root`` is the directory that holds the ``numpy`` package; manylinux
    wheels put the library in ``numpy.libs`` beside it.  The build is ILP64,
    so every integer argument is a 64-bit int passed by reference.
    """
    path = min(root.glob("numpy.libs/libscipy_openblas64_*.so"), default=None)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        pttrf, pttrs = lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_
    except (OSError, AttributeError):
        return None
    i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    pttrf.argtypes = [i64, ptr, ptr, i64]  # N, D, E, INFO
    pttrs.argtypes = [i64, i64, ptr, ptr, ptr, i64, i64]  # N, NRHS, D, E, B, LDB, INFO
    pttrf.restype = pttrs.restype = None
    return pttrf, pttrs


#: (dpttrf, dpttrs), or None where numpy bundles no such library (conda/MKL
#: builds, macOS wheels); None selects the Python kernel below.
_LAPACK = _load_lapack(Path(np.__file__).parents[1])
_ONE = ctypes.c_int64(1)


def _py_ldl_factor(main: np.ndarray, off: np.ndarray):
    """The Python kernel: dpttrf's arithmetic in its order on Python floats."""
    d = main.tolist()
    l = off.tolist()
    for i, ei in enumerate(l):
        di = d[i]
        if not di > 0:
            raise SingularSystem(f"tridiagonal system not SPD: pivot {i} is not positive")
        l[i] = li = ei / di
        d[i + 1] -= li * ei
    if not d[-1] > 0:
        raise SingularSystem(f"tridiagonal system not SPD: pivot {len(l)} is not positive")
    return np.array(d), np.array(l)


def _py_ldl_solve(d: np.ndarray, l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Python kernel: dptts2's arithmetic in its order on Python floats."""
    d, l, b = d.tolist(), l.tolist(), rhs.tolist()
    bi = b[0]
    for i, li in enumerate(l, 1):
        bi = b[i] - bi * li
        b[i] = bi
    x = bi / d[-1]
    b[-1] = x
    for i in range(len(l) - 1, -1, -1):
        x = b[i] / d[i] - x * l[i]
        b[i] = x
    return np.array(b)


def _ldl_factor(main: np.ndarray, off: np.ndarray):
    """Pivots d and multipliers l of ``T = L·D·Lᵀ`` as read-only arrays.

    ``T`` has diagonal ``main`` and off-diagonal ``off``.  A pivot that is
    not > 0, NaN included, raises SingularSystem naming its index; dpttrf
    stops at the first pivot <= 0 but carries a NaN on, so the pivots are
    checked after the call.  One unknown stays on the Python kernel, whose
    division gives other bits than dptts2's multiplication by 1/d.
    """
    if main.ndim != 1 or off.shape != (main.size - 1,):
        raise DimensionMismatch(f"bands of sizes {main.shape} and {off.shape}")
    if _LAPACK is None or main.size == 1:
        d, l = _py_ldl_factor(main, off)
    else:
        d = np.array(main, dtype=np.float64)
        l = np.array(off, dtype=np.float64)
        _LAPACK[0](ctypes.byref(ctypes.c_int64(d.size)), d.ctypes.data, l.ctypes.data,
                   ctypes.byref(ctypes.c_int64()))
        bad = np.flatnonzero(~(d > 0))
        if bad.size:
            raise SingularSystem(f"tridiagonal system not SPD: pivot {bad[0]} is not positive")
    d.flags.writeable = l.flags.writeable = False
    return d, l


def _ldl_solve(d: np.ndarray, l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L·D·Lᵀ v = rhs`` from the factors of _ldl_factor (dpttrs)."""
    if rhs.shape != d.shape:
        raise DimensionMismatch(f"right-hand side {rhs.shape} for {d.size} unknowns")
    if _LAPACK is None or d.size == 1:
        return _py_ldl_solve(d, l, rhs)
    b = np.array(rhs, dtype=np.float64)
    n = ctypes.c_int64(b.size)
    _LAPACK[1](ctypes.byref(n), ctypes.byref(_ONE), d.ctypes.data, l.ctypes.data,
               b.ctypes.data, ctypes.byref(n), ctypes.byref(ctypes.c_int64()))
    return b


@lru_cache(maxsize=16)
def _h1_gram_factors(n_cells: int):
    """L·D·Lᵀ factors of the H1 Gram matrix, which depend on the mesh only."""
    h = 1.0 / n_cells
    main = trapezoid_weights(n_cells).copy()
    main[1:] += 1.0 / h
    main[:-1] += 1.0 / h
    return _ldl_factor(main, np.full(n_cells, -1.0 / h))


def gram_solve(rhs: np.ndarray, space: SpaceKind) -> np.ndarray:
    """Riesz map: solve ``G v = rhs`` for the Gram matrix of the mesh of rhs."""
    if space is SpaceKind.L2:
        return rhs / trapezoid_weights(rhs.size - 1)
    return _ldl_solve(*_h1_gram_factors(rhs.size - 1), rhs)
