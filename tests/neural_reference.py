"""Dense reference forms of the branch/trunk operator.

The library stores the one branch network as one weight per sample, with
an output row per term, and evaluates it with one kernel.  This module
rebuilds the general forms that kernel stands for, as an independent oracle
for the tests:

- the dense branch weight matrix W = [diag(w); 0], with the nested-sum
  evaluation and the dense Jacobian built from it term by term, each term
  recomputing the hidden layer;
- the flat coefficient tensor of the double-sum operator, with the
  block-diagonal embedding of the per-term form into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invop.errors import DimensionMismatch, NonFiniteValue
from invop.grid import GridFunction
from invop.neural import (
    StructuredSurrogateCoeffs,
    activation,
    activation_derivative,
    eval_trunk,
)


def dense_weights(s: StructuredSurrogateCoeffs) -> np.ndarray:
    """(n_l + 1, n_l) branch weight matrix: one node per sample, then the constant node."""
    return np.vstack([np.diag(s.branch_w), np.zeros(s.branch_w.size)])


def _terms(s: StructuredSurrogateCoeffs):
    """Each term's branch output weights and its trunk's three arrays."""
    return zip(s.branch_c, zip(s.trunk_c, s.trunk_w, s.trunk_zeta))


def interp_matrix_t(points: np.ndarray, n_cells: int) -> np.ndarray:
    """Transpose of the nodal-to-points linear interpolation matrix."""
    p = np.asarray(points, dtype=float)
    h = 1.0 / n_cells
    idx = np.clip(np.floor(p / h).astype(int), 0, n_cells - 1)
    frac = p / h - idx
    mat = np.zeros((n_cells + 1, p.size))
    mat[idx, np.arange(p.size)] = 1.0 - frac
    mat[idx + 1, np.arange(p.size)] = frac
    return mat


def eval_structured_dense(s: StructuredSurrogateCoeffs, x: GridFunction, t_points):
    """Nested-sum evaluation with the dense branch weights."""
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    out = np.zeros(t.size)
    for c_i, trunk in _terms(s):
        z = dense_weights(s) @ x.sample(s.s_points) + s.branch_theta
        b = float(np.dot(c_i, activation(z)))
        out += b * eval_trunk(*trunk, t)
    return out


def jacobian_structured_dense(s: StructuredSurrogateCoeffs, x: GridFunction, t_points):
    """Jacobian[Q, n_nodes] of eval_structured_dense in the nodal values of x."""
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    jac = np.zeros((t.size, x.n_cells + 1))
    for c_i, trunk in _terms(s):
        w = dense_weights(s)
        d = activation_derivative(w @ x.sample(s.s_points) + s.branch_theta)
        g_nodes = interp_matrix_t(s.s_points, x.n_cells) @ ((c_i * d) @ w)
        jac += np.outer(eval_trunk(*trunk, t), g_nodes)
    return jac


# ---------------------------------------------------------------------------
# the flat form


@dataclass(frozen=True)
class NeuralOperatorCoeffs:
    """Flat coefficient tensor of the double-sum operator."""

    alpha: np.ndarray  # (N_j, N_k)
    w: np.ndarray  # (N_j, N_k, N_l)
    w_vec: np.ndarray  # (N_j,), trunk weights for a 1-D output domain
    theta: np.ndarray  # (N_j, N_k)
    s_points: np.ndarray  # (N_l,) sample locations in [0, 1]
    zeta: np.ndarray  # (N_j,)

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        n_j, n_k = alpha.shape
        w = np.asarray(self.w, dtype=float)
        if w.ndim == 2:
            w = np.broadcast_to(w, (n_j,) + w.shape)
        s = np.atleast_1d(np.asarray(self.s_points, dtype=float))
        n_l = s.size
        if w.shape != (n_j, n_k, n_l):
            raise DimensionMismatch(f"inner weight tensor has shape {w.shape}")
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        w_vec = np.atleast_1d(np.asarray(self.w_vec, dtype=float))
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        if theta.shape != (n_j, n_k) or w_vec.size != n_j or zeta.size != n_j:
            raise DimensionMismatch("operator coefficient shapes disagree")
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise DimensionMismatch("sample locations must lie in [0, 1]")
        for name, arr in (("alpha", alpha), ("w", w), ("theta", theta),
                          ("w_vec", w_vec), ("zeta", zeta), ("s_points", s)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteValue(f"non-finite entries in {name}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_vec", w_vec)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "s_points", s)
        object.__setattr__(self, "zeta", zeta)

    @property
    def sizes(self):
        n_j, n_k = self.alpha.shape
        return n_j, n_k, self.s_points.size

    @property
    def coefficient_count(self) -> int:
        """Total parameter count for 1-D input and output domains."""
        n_j, n_k, n_l = self.sizes
        return n_j * (n_k * (n_l + 2) + 1 + 1 + 1)


def eval_neural_operator(coeffs: NeuralOperatorCoeffs, x: GridFunction, t_points):
    """Evaluate the flat-form operator at the given output locations."""
    xs = x.sample(coeffs.s_points)
    inner = np.einsum("jkl,l->jk", coeffs.w, xs) + coeffs.theta
    b = np.sum(coeffs.alpha * activation(inner), axis=1)
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    trunk = activation(np.outer(coeffs.w_vec, t) + coeffs.zeta[:, None])
    return b @ trunk


def flatten_structured(s: StructuredSurrogateCoeffs) -> NeuralOperatorCoeffs:
    """Block-diagonal embedding of the per-term form into one flat tensor.

    Each term gets its own block of the flat sample axis, which repeats the
    shared sensor points once per term, and its own copy of the hidden layer.
    """
    n_t = s.n_terms
    if n_t == 0:
        raise DimensionMismatch("cannot flatten an empty surrogate")
    nj = s.trunk_c.shape[1]
    nk = s.s_points.size + 1
    nl = s.s_points.size

    alpha = np.zeros((n_t * nj, n_t * nk))
    w = np.zeros((n_t * nk, n_t * nl))
    theta = np.zeros(n_t * nk)
    w_vec = np.zeros(n_t * nj)
    zeta = np.zeros(n_t * nj)
    s_points = np.zeros(n_t * nl)

    for i, (c_i, (trunk_c, trunk_w, trunk_zeta)) in enumerate(_terms(s)):
        js = slice(i * nj, (i + 1) * nj)
        ks = slice(i * nk, (i + 1) * nk)
        ls = slice(i * nl, (i + 1) * nl)
        alpha[js, ks] = np.outer(trunk_c, c_i)
        w[ks, ls] = dense_weights(s)
        theta[ks] = s.branch_theta
        w_vec[js] = trunk_w
        zeta[js] = trunk_zeta
        s_points[ls] = s.s_points

    # theta depends on k only; broadcast across the j axis without copying
    return NeuralOperatorCoeffs(
        alpha=alpha,
        w=w,
        w_vec=w_vec,
        theta=np.broadcast_to(theta, alpha.shape),
        s_points=s_points,
        zeta=zeta,
    )
