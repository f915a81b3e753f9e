"""Branch/trunk sigmoid operator representation and evaluation.

An operator surrogate is a double sum of products of a *branch* term (a
one-layer sigmoid network acting on point samples of the input function)
and a *trunk* term (a one-layer sigmoid network of the output location).
Two layouts are supported: the flat coefficient tensor, and a structured
per-term form (one branch/trunk pair per training direction) together with
the block-diagonal flattening that connects the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .grid import GridFunction


class ActivationKind(enum.Enum):
    LOGISTIC = "logistic"
    TANH_RESCALED = "tanh"
    ARCTAN_RESCALED = "arctan"


def activation(kind: ActivationKind, t):
    """Sigmoid with limits 0 at -inf and 1 at +inf, strictly increasing."""
    t = np.asarray(t, dtype=float)
    if kind is ActivationKind.LOGISTIC:
        e = np.exp(-np.abs(t))
        out = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    elif kind is ActivationKind.TANH_RESCALED:
        out = 0.5 * (np.tanh(t) + 1.0)
    else:
        out = np.arctan(t) / np.pi + 0.5
    if out.ndim == 0:
        return float(out)
    return out


def activation_derivative(kind: ActivationKind, t):
    t = np.asarray(t, dtype=float)
    if kind is ActivationKind.LOGISTIC:
        s = np.asarray(activation(kind, t))
        out = s * (1.0 - s)
    elif kind is ActivationKind.TANH_RESCALED:
        out = 0.5 / np.cosh(t) ** 2
    else:
        out = 1.0 / (np.pi * (1.0 + t * t))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchCoeffs:
    """One-layer sigmoid functional: x_samples -> sum_k c_k sigma(w_k . x + theta_k)."""

    c: np.ndarray
    w: np.ndarray  # (N_k, N_l)
    theta: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        w = np.atleast_2d(np.asarray(self.w, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if w.shape[0] != c.size or theta.size != c.size:
            raise DimensionMismatch("branch coefficient shapes disagree")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "theta", theta)

    @property
    def n_k(self) -> int:
        return self.c.size

    @property
    def n_l(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class TrunkCoeffs:
    """One-layer sigmoid function of t: sum_j c_j sigma(w_j t + zeta_j)."""

    c: np.ndarray
    w: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        zeta = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        if w.size != c.size or zeta.size != c.size:
            raise DimensionMismatch("trunk coefficient shapes disagree")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "zeta", zeta)

    @property
    def n_j(self) -> int:
        return self.c.size


def eval_branch(branch: BranchCoeffs, kind: ActivationKind, x_samples) -> float:
    xs = np.asarray(x_samples, dtype=float)
    if xs.shape != (branch.n_l,):
        raise DimensionMismatch(
            f"expected {branch.n_l} input samples, got {xs.shape}"
        )
    return float(np.dot(branch.c, activation(kind, branch.w @ xs + branch.theta)))


def eval_branch_gradient(branch: BranchCoeffs, kind: ActivationKind, x_samples) -> np.ndarray:
    """Gradient of eval_branch with respect to the input samples."""
    xs = np.asarray(x_samples, dtype=float)
    d = activation_derivative(kind, branch.w @ xs + branch.theta)
    return (branch.c * d) @ branch.w


def eval_trunk(trunk: TrunkCoeffs, kind: ActivationKind, t_points) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    return activation(kind, np.outer(trunk.w, t) + trunk.zeta[:, None]).T @ trunk.c


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeuralOperatorCoeffs:
    """Flat coefficient tensor of the double-sum operator."""

    alpha: np.ndarray  # (N_j, N_k)
    w: np.ndarray  # (N_j, N_k, N_l)
    w_vec: np.ndarray  # (N_j,), trunk weights for a 1-D output domain
    theta: np.ndarray  # (N_j, N_k)
    s_points: np.ndarray  # (N_l,) sample locations in [0, 1]
    zeta: np.ndarray  # (N_j,)
    activation: ActivationKind = ActivationKind.LOGISTIC

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


def eval_neural_operator(
    coeffs: NeuralOperatorCoeffs, x: GridFunction, t_points
) -> np.ndarray:
    """Evaluate the flat-form operator at the given output locations."""
    xs = x.sample(coeffs.s_points)
    inner = np.einsum("jkl,l->jk", coeffs.w, xs) + coeffs.theta
    b = np.sum(coeffs.alpha * activation(coeffs.activation, inner), axis=1)
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    trunk = activation(
        coeffs.activation, np.outer(coeffs.w_vec, t) + coeffs.zeta[:, None]
    )
    return b @ trunk


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuredSurrogateCoeffs:
    """Per-training-direction branch/trunk pairs with their sample points."""

    branches: tuple  # of BranchCoeffs
    trunks: tuple  # of TrunkCoeffs
    s_points: tuple  # of np.ndarray, one per term
    activation: ActivationKind = ActivationKind.LOGISTIC

    def __post_init__(self):
        if not (len(self.branches) == len(self.trunks) == len(self.s_points)):
            raise DimensionMismatch("per-term lists must have equal length")
        pts = []
        for b, s in zip(self.branches, self.s_points):
            s = np.atleast_1d(np.asarray(s, dtype=float))
            if s.size != b.n_l:
                raise DimensionMismatch("sample points disagree with branch width")
            pts.append(s)
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "trunks", tuple(self.trunks))
        object.__setattr__(self, "s_points", tuple(pts))

    @property
    def n_terms(self) -> int:
        return len(self.branches)


def eval_structured(
    s: StructuredSurrogateCoeffs, x: GridFunction, t_points
) -> np.ndarray:
    """Nested-sum evaluation: sum over terms of branch(x) * trunk(t)."""
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    out = np.zeros(t.size)
    for branch, trunk, pts in zip(s.branches, s.trunks, s.s_points):
        b = eval_branch(branch, s.activation, x.sample(pts))
        out += b * eval_trunk(trunk, s.activation, t)
    return out


def eval_structured_with_gradient(
    s: StructuredSurrogateCoeffs, x: GridFunction, t_points
):
    """Evaluation plus the Jacobian with respect to the nodal values of x.

    Returns (values[Q], jacobian[Q, n_nodes]); input sampling is linear
    interpolation, whose weights enter the chain rule exactly.
    """
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    out = np.zeros(t.size)
    jac = np.zeros((t.size, x.n_cells + 1))
    for branch, trunk, pts in zip(s.branches, s.trunks, s.s_points):
        xs = x.sample(pts)
        b = eval_branch(branch, s.activation, xs)
        g_samples = eval_branch_gradient(branch, s.activation, xs)
        g_nodes = _interp_matrix_t(pts, x.n_cells) @ g_samples
        tr = eval_trunk(trunk, s.activation, t)
        out += b * tr
        jac += np.outer(tr, g_nodes)
    return out, jac


def _interp_matrix_t(points: np.ndarray, n_cells: int) -> np.ndarray:
    """Transpose of the nodal-to-points linear interpolation matrix."""
    p = np.asarray(points, dtype=float)
    h = 1.0 / n_cells
    idx = np.clip(np.floor(p / h).astype(int), 0, n_cells - 1)
    frac = p / h - idx
    mat = np.zeros((n_cells + 1, p.size))
    mat[idx, np.arange(p.size)] = 1.0 - frac
    mat[idx + 1, np.arange(p.size)] = frac
    return mat


def flatten_structured(s: StructuredSurrogateCoeffs) -> NeuralOperatorCoeffs:
    """Block-diagonal embedding of the per-term form into one flat tensor.

    Ragged per-term widths are zero-padded to the maxima first; padded
    entries carry zero outer weights and therefore do not contribute.
    """
    n_t = s.n_terms
    if n_t == 0:
        raise DimensionMismatch("cannot flatten an empty surrogate")
    nj = max(t.n_j for t in s.trunks)
    nk = max(b.n_k for b in s.branches)
    nl = max(b.n_l for b in s.branches)

    alpha = np.zeros((n_t * nj, n_t * nk))
    w = np.zeros((n_t * nk, n_t * nl))
    theta = np.zeros(n_t * nk)
    w_vec = np.zeros(n_t * nj)
    zeta = np.zeros(n_t * nj)
    s_points = np.zeros(n_t * nl)

    for i, (branch, trunk, pts) in enumerate(zip(s.branches, s.trunks, s.s_points)):
        js = slice(i * nj, i * nj + trunk.n_j)
        ks = slice(i * nk, i * nk + branch.n_k)
        ls = slice(i * nl, i * nl + branch.n_l)
        alpha[js, ks] = np.outer(trunk.c, branch.c)
        w[ks, ls] = branch.w
        theta[ks] = branch.theta
        w_vec[js] = trunk.w
        zeta[js] = trunk.zeta
        s_points[i * nl : i * nl + branch.n_l] = pts

    # theta depends on k only; broadcast across the j axis without copying
    return NeuralOperatorCoeffs(
        alpha=alpha,
        w=w,
        w_vec=w_vec,
        theta=np.broadcast_to(theta, alpha.shape),
        s_points=s_points,
        zeta=zeta,
        activation=s.activation,
    )
