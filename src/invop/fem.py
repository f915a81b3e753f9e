"""Forward operators for the two 1-D elliptic model problems.

Both problems are posed on (0, 1) with homogeneous Dirichlet data and are
discretized with linear splines on a uniform mesh.  Coefficient and load
are interpolated piecewise-linearly before assembly, and all element
integrals are evaluated in closed form, so the tridiagonal systems are
deterministic functions of the nodal inputs.

Each operator works on the mesh of its coefficient x, which its n + 1 nodal
values fix; the assembly and Galerkin solve take nodal arrays and no cell
count.  A load, direction or residual on another mesh raises
``DimensionMismatch``.  The one function that moves a mesh is
``solve_forward_reference``: it interpolates x and f onto REFERENCE_CELLS
cells and the solution back onto the mesh of x.

``DarcyCoefficient`` (diffusion coefficient identification, H1 image
space):    -(x y')' = f
``PotentialCoefficient`` (reaction coefficient identification, L2 image
space):    -y'' + x y = f
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from .errors import NonAdmissibleCoefficient
from .grid import (GridFunction, SpaceKind, _ldl_factor, _ldl_solve, gram_apply, gram_solve,
                   trapezoid_weights)

REFERENCE_CELLS = 4096


class ProblemKind(enum.Enum):
    """The two model problems; each fixes its solution space X and its
    admissibility bound x >= nu.  ``ProblemKind("c")`` parses a name."""

    A_EXAMPLE = "a"  # diffusion coefficient, X = H1
    C_EXAMPLE = "c"  # reaction coefficient, X = L2

    @property
    def nu(self) -> float:
        return 0.1

    @property
    def image_space(self) -> SpaceKind:
        return SpaceKind.H1 if self is ProblemKind.A_EXAMPLE else SpaceKind.L2

    def fem_lower_bound(self) -> float:
        # The reaction-coefficient FEM solve stays well-posed down to x >= 0;
        # the stricter reference bound nu is reported in diagnostics only.
        return self.nu if self is ProblemKind.A_EXAMPLE else 0.0


def _load_vector(f: np.ndarray, h: float) -> np.ndarray:
    """Exact hat-function integrals of the piecewise-linear load, interior nodes."""
    return h / 6.0 * (f[:-2] + 4.0 * f[1:-1] + f[2:])


def _stiffness_bands(x: np.ndarray, h: float):
    """Tridiagonal bands of the interior stiffness matrix for coefficient x."""
    a = 0.5 * (x[:-1] + x[1:]) / h  # element averages / h
    main = a[:-1] + a[1:]
    off = -a[1:-1]
    return main, off


def _mass_bands(x: np.ndarray, h: float):
    """Coefficient-weighted mass matrix (exact for piecewise-linear x)."""
    main = h / 12.0 * (x[:-2] + 6.0 * x[1:-1] + x[2:])
    off = h / 12.0 * (x[1:-2] + x[2:-1])
    return main, off


def _assemble(kind: ProblemKind, x: np.ndarray):
    h = 1.0 / (x.size - 1)
    if kind is ProblemKind.A_EXAMPLE:
        return _stiffness_bands(x, h)
    k_main, k_off = _stiffness_bands(np.ones(x.size), h)
    m_main, m_off = _mass_bands(x, h)
    return k_main + m_main, k_off + m_off


@lru_cache(maxsize=1)
def _galerkin_factors(kind: ProblemKind, x_bytes: bytes):
    """L·D·Lᵀ factors of the Galerkin matrix for the nodal coefficient x.

    Keyed by the bytes of x, so the adjoint solve of a misfit gradient and
    the forward solve at the same x share one factorization.  One entry is
    enough: a misfit gradient directly follows its forward solve.
    """
    return _ldl_factor(*_assemble(kind, np.frombuffer(x_bytes)))


def _galerkin_solve(kind: ProblemKind, xv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return _ldl_solve(*_galerkin_factors(kind, xv.tobytes()), rhs)


def _tridiag_apply(main: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = main * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _check_admissible(kind: ProblemKind, x: GridFunction):
    lo, bound = float(np.min(x.values)), kind.fem_lower_bound()
    if lo < bound:
        raise NonAdmissibleCoefficient(f"min nodal value {lo:.6g} below admissibility bound "
                                       f"{bound:.6g}")


def solve_forward_fem(kind: ProblemKind, x: GridFunction, f: GridFunction) -> GridFunction:
    """Galerkin solution on the mesh of x, zero at both endpoints; the load f
    lies on that mesh."""
    n = x.n_cells
    if n < 2:
        raise ValueError("need at least 2 cells")
    f._check_mesh(n)
    _check_admissible(kind, x)
    return GridFunction(_forward_nodal(kind, x.values, f.values))


def _forward_nodal(kind: ProblemKind, xv: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """solve_forward_fem on nodal arrays that the caller has checked."""
    y = np.zeros(xv.size)
    y[1:-1] = _galerkin_solve(kind, xv, _load_vector(fv, 1.0 / (xv.size - 1)))
    return y


def solve_forward_reference(kind: ProblemKind, x: GridFunction, f: GridFunction) -> GridFunction:
    """High-resolution FEM oracle: x and f are resampled to REFERENCE_CELLS,
    solved there, and the data resampled back to the mesh of x.  The bound is
    checked on x itself, whose nodes need not lie on the reference mesh."""
    _check_admissible(kind, x)
    y = solve_forward_fem(kind, x.resample(REFERENCE_CELLS), f.resample(REFERENCE_CELLS))
    return y.resample(x.n_cells)


def derivative_apply(kind: ProblemKind, x: GridFunction, hdir: GridFunction,
                     f: GridFunction) -> GridFunction:
    """Directional derivative of the FEM forward map at x in direction hdir,
    which lies on the mesh of x."""
    hdir._check_mesh(x.n_cells)
    y = solve_forward_fem(kind, x, f)
    return GridFunction(derivative_nodal(kind, x.values, y.values, hdir.values))


def derivative_nodal(kind: ProblemKind, xv: np.ndarray, yv: np.ndarray,
                     hv: np.ndarray) -> np.ndarray:
    """Array kernel of derivative_apply, the partner of misfit_gradient_nodal.

    Takes nodal values on one mesh: the coefficient xv, the solution yv of
    solve_forward_fem(kind, x, f), which checked x, and the direction hv.
    Returns the nodal values of F'[x] hv.
    """
    h = 1.0 / (xv.size - 1)
    if kind is ProblemKind.A_EXAMPLE:
        p_main, p_off = _stiffness_bands(hv, h)
    else:
        p_main, p_off = _mass_bands(hv, h)
    u = np.zeros(xv.size)
    u[1:-1] = _galerkin_solve(kind, xv, -_tridiag_apply(p_main, p_off, yv[1:-1]))
    return u


def adjoint_apply(kind: ProblemKind, x: GridFunction, r: GridFunction,
                  f: GridFunction) -> GridFunction:
    """Adjoint of derivative_apply: <F'[x]h, r>_L2 = <h, g>_X for all h.

    The image-space pairing is H1 for the diffusion problem and L2 for the
    reaction problem; the final step applies the corresponding Riesz map.
    """
    r._check_mesh(x.n_cells)
    y = solve_forward_fem(kind, x, f)
    z = misfit_gradient_nodal(kind, x.values, y.values, r.values)
    return GridFunction(gram_solve(z, kind.image_space))


def misfit_gradient_nodal(kind: ProblemKind, xv: np.ndarray, yv: np.ndarray,
                          rv: np.ndarray) -> np.ndarray:
    """Euclidean-gradient form of the adjoint, before the Riesz map.

    Takes nodal values on one mesh: the coefficient xv, the solution yv of
    solve_forward_fem(kind, x, f), which checked x, and the residual rv.
    Returns z with z_j = <F'[x] e_j, r>_L2 for nodal directions e_j.
    """
    n = xv.size - 1
    h = 1.0 / n

    w = trapezoid_weights(n)
    p = np.zeros(n + 1)
    p[1:-1] = _galerkin_solve(kind, xv, (w * rv)[1:-1])

    z = np.zeros(n + 1)
    if kind is ProblemKind.A_EXAMPLE:
        # d/dh_j of p^T K(h) y with element averages of h
        dp = np.diff(p) / h
        dy = np.diff(yv) / h
        e = 0.5 * dp * dy * h  # per-element sensitivity of the average
        z[:-1] += e
        z[1:] += e
    else:
        # d/dh_j of p^T M(h) y with exact linear-coefficient element integrals
        pa, pb = p[:-1], p[1:]
        ya, yb = yv[:-1], yv[1:]
        cross = (pa * yb + pb * ya) / 12.0
        left = h * (pa * ya / 4.0 + cross + pb * yb / 12.0)
        right = h * (pa * ya / 12.0 + cross + pb * yb / 4.0)
        z[:-1] += left
        z[1:] += right
    return -z


def gauss_newton_directions(kind: ProblemKind, xv: np.ndarray, fv: np.ndarray, steps: int):
    """X-orthonormal nodal directions b_i and their images J b_i, J = F'[x],
    the rows of two arrays, at the nodal coefficient xv, which
    solve_forward_fem has checked, with the load fv on its mesh.

    The b_i span the Krylov space of ``steps`` Lanczos steps (at most one per
    nodal value) on the Gauss-Newton operator G^-1 J^T W J (W the trapezoid
    weights, G the Gram matrix of X), which is self-adjoint in X, so they
    hold its leading eigendirections.  The start is the node coordinate s,
    which is neither even nor odd about 1/2: a start of either parity misses
    the other half of the eigendirections of a problem symmetric about 1/2.
    Each step costs one derivative, one adjoint and one Gram solve.  The
    steps stop early where J^T W J vanishes (a zero load).
    """
    space = kind.image_space
    yv = _forward_nodal(kind, xv, fv)
    q, basis, images = np.linspace(0.0, 1.0, xv.size), [], []
    while len(basis) < min(steps, xv.size):
        size = float(np.sqrt(q @ gram_apply(q, space)))
        if not size > 0:
            break
        q = q / size
        basis.append(q)
        images.append(derivative_nodal(kind, xv, yv, q))
        q = gram_solve(misfit_gradient_nodal(kind, xv, yv, images[-1]), space)
        # twice: on a mesh of fewer than steps cells the last q is rounding
        # error, which one pass leaves far from orthogonal
        for b in basis + basis:
            q = q - (b @ gram_apply(q, space)) * b
    return np.array(basis), np.array(images)
