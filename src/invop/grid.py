"""Functions on a uniform mesh of [0, 1] and the discrete inner products.

A :class:`GridFunction` stores nodal values at ``s_i = i / n_cells``.  The
L2 inner product is the composite trapezoid rule applied to the nodal
product; the H1 product adds the trapezoid rule of the forward-difference
derivatives on cells.

The module also holds the one solver of symmetric positive definite
tridiagonal systems that every Galerkin and Gram solve of the package uses:
an L·D·Lᵀ factorization that performs LAPACK's dpttrf/dptts2 arithmetic in
their order on Python floats, so it returns the bits of ``dptsv``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, SingularSystem


class SpaceKind(enum.Enum):
    L2 = "L2"
    H1 = "H1"


@dataclass(frozen=True)
class GridFunction:
    n_cells: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.n_cells < 1:
            raise DimensionMismatch("n_cells must be >= 1")
        if vals.shape != (self.n_cells + 1,):
            raise DimensionMismatch(
                f"expected {self.n_cells + 1} nodal values, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValue("nodal values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_callable(f, n_cells: int) -> "GridFunction":
        s = np.linspace(0.0, 1.0, n_cells + 1)
        return GridFunction(n_cells, np.asarray(f(s), dtype=float) * np.ones_like(s))

    @staticmethod
    def constant(c: float, n_cells: int) -> "GridFunction":
        return GridFunction(n_cells, np.full(n_cells + 1, float(c)))

    @staticmethod
    def zero(n_cells: int) -> "GridFunction":
        return GridFunction(n_cells, np.zeros(n_cells + 1))

    # -- arithmetic (same mesh only; resampling is explicit) ---------------

    def _check_mesh(self, other: "GridFunction"):
        if self.n_cells != other.n_cells:
            raise DimensionMismatch(
                f"mesh mismatch: {self.n_cells} vs {other.n_cells} cells"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_mesh(other)
        return GridFunction(self.n_cells, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_mesh(other)
        return GridFunction(self.n_cells, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.n_cells, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.n_cells, -self.values)

    # -- evaluation / resampling ------------------------------------------

    def sample(self, points) -> np.ndarray:
        """Evaluate the piecewise-linear interpolant at arbitrary points."""
        return np.interp(np.asarray(points, dtype=float), self.nodes, self.values)

    def resample(self, n_cells: int) -> "GridFunction":
        """Linear interpolation onto another uniform mesh."""
        if n_cells == self.n_cells:
            return self
        s = np.linspace(0.0, 1.0, n_cells + 1)
        return GridFunction(n_cells, self.sample(s))


def trapezoid_weights(n_cells: int) -> np.ndarray:
    h = 1.0 / n_cells
    w = np.full(n_cells + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def inner(x: GridFunction, z: GridFunction, space: SpaceKind = SpaceKind.L2) -> float:
    x._check_mesh(z)
    w = trapezoid_weights(x.n_cells)
    val = float(np.dot(w * x.values, z.values))
    if space is SpaceKind.H1:
        h = x.h
        dx = np.diff(x.values) / h
        dz = np.diff(z.values) / h
        val += float(np.dot(dx, dz)) * h
    return val


def norm(x: GridFunction, space: SpaceKind = SpaceKind.L2) -> float:
    return float(np.sqrt(max(inner(x, x, space), 0.0)))


def gram_apply(v: np.ndarray, n_cells: int, space: SpaceKind) -> np.ndarray:
    """Apply the Gram matrix without forming it."""
    w = trapezoid_weights(n_cells)
    out = w * v
    if space is SpaceKind.H1:
        h = 1.0 / n_cells
        d = np.diff(v) / h
        out[:-1] -= d
        out[1:] += d
    return out


def _ldl_factor(main: np.ndarray, off: np.ndarray):
    """Pivots d and multipliers l of ``T = L·D·Lᵀ`` (dpttrf's order).

    ``T`` has diagonal ``main`` and off-diagonal ``off``.  A pivot that is
    not > 0, NaN included, raises SingularSystem naming its index.
    """
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
    return tuple(d), tuple(l)


def _ldl_solve(d, l, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L·D·Lᵀ v = rhs`` from the factors of _ldl_factor (dptts2's order)."""
    b = rhs.tolist()
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


@lru_cache(maxsize=16)
def _h1_gram_factors(n_cells: int):
    """L·D·Lᵀ factors of the H1 Gram matrix, which depend on the mesh only."""
    h = 1.0 / n_cells
    main = trapezoid_weights(n_cells)
    main[1:] += 1.0 / h
    main[:-1] += 1.0 / h
    return _ldl_factor(main, np.full(n_cells, -1.0 / h))


def gram_solve(rhs: np.ndarray, n_cells: int, space: SpaceKind) -> np.ndarray:
    """Riesz map: solve ``G v = rhs`` for the discrete space Gram matrix."""
    if space is SpaceKind.L2:
        return rhs / trapezoid_weights(n_cells)
    return _ldl_solve(*_h1_gram_factors(n_cells), rhs)
