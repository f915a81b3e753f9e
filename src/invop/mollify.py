"""Mollification of grid functions by the standard compactly supported bump.

The kernel is C^inf, supported in [-xi, xi], and normalized to unit mass;
functions are extended by zero outside [0, 1] before convolving, so a
boundary layer of width xi is smoothed toward zero.  The convolution is a
composite trapezoid rule on a uniform refinement of the mesh.  The
kernel's normalization constant was taken from ``scipy.integrate.quad``
and is kept as a literal, so the package does not import
``scipy.integrate``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import PropertyViolation, WidthTooLarge
from .grid import GridFunction, SpaceKind, norm

#: quadrature points per kernel width; 8 is the floor needed for the
#: documented tolerances, the default is deliberately generous
POINTS_PER_WIDTH = 64


#: constant C with integral of C*exp(1/(s^2-1)) over (-1, 1) equal to 1:
#: ``1 / quad(..., -1, 1, epsabs=1e-14, epsrel=1e-14)``, which the tests
#: recompute and require to be this exact float
NORMALIZATION = 2.2522836210435817


def mollifier_kernel(xi: float, s) -> np.ndarray:
    """Kernel of width xi at s; zero outside (-xi, xi)."""
    if xi <= 0:
        raise WidthTooLarge("mollification width must be positive")
    u = np.asarray(s, dtype=float) / xi
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 / (ui * ui - 1.0))
    out *= NORMALIZATION / xi
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=64)
def _mollify_matrix(n_cells: int, xi: float) -> np.ndarray:
    """Nodal matrix A with (A x)_i = trapezoid of kernel(s_i - t) x(t) dt."""
    h = 1.0 / n_cells
    refine = max(1, math.ceil(POINTS_PER_WIDTH * h / xi))
    delta = h / refine
    m = n_cells * refine  # refined grid t_q = q * delta, q = 0..m
    A = np.zeros((n_cells + 1, n_cells + 1))
    for i in range(n_cells + 1):
        s_i = i * h
        q_lo = max(0, math.floor((s_i - xi) / delta))
        q_hi = min(m, math.ceil((s_i + xi) / delta))
        q = np.arange(q_lo, q_hi + 1)
        t = q * delta
        wq = np.full(q.size, delta)
        wq[q == 0] = 0.5 * delta
        wq[q == m] = 0.5 * delta
        k = wq * mollifier_kernel(xi, s_i - t)
        cell = np.minimum(q // refine, n_cells - 1)
        frac = (q - cell * refine) / refine
        np.add.at(A[i], cell, k * (1.0 - frac))
        np.add.at(A[i], cell + 1, k * frac)
    return A


def mollify_matrix(n_cells: int, xi: float) -> np.ndarray:
    """Linear operator of mollification on nodal values (read-only view)."""
    if not 0 < xi < 0.5:
        raise WidthTooLarge(f"width {xi} outside (0, 0.5) for the unit interval")
    A = _mollify_matrix(n_cells, float(xi))
    A.setflags(write=False)
    return A


def mollify(x: GridFunction, xi: float) -> GridFunction:
    return GridFunction(mollify_matrix(x.n_cells, xi) @ x.values)


def mollification_report(x: GridFunction, xis) -> list:
    """Rows (xi, L2 error, norm ratio) with the contraction and monotone
    convergence properties asserted along the way."""
    xis = [float(v) for v in xis]
    if any(v <= 0 for v in xis) or any(b >= a for a, b in zip(xis, xis[1:], strict=False)):
        raise PropertyViolation("widths must be positive and decreasing")
    nx = norm(x, SpaceKind.L2)
    rows = []
    prev_err = None
    for xi in xis:
        xm = mollify(x, xi)
        err = norm(xm - x, SpaceKind.L2)
        ratio = 1.0 if nx == 0.0 else norm(xm, SpaceKind.L2) / nx
        if ratio > 1.0 + 1e-8:
            raise PropertyViolation(f"norm ratio {ratio} exceeds 1 at xi={xi}", xi=xi)
        if prev_err is not None and err > prev_err + 1e-12:
            raise PropertyViolation(f"error increased at xi={xi}", xi=xi)
        prev_err = err
        rows.append((xi, err, ratio))
    return rows
