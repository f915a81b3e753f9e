"""Branch/trunk sigmoid operator representation and evaluation.

An operator surrogate is a sum over terms of products of a *branch* output
and a *trunk* (a one-layer sigmoid network of the output location), the
branch/trunk contraction of DeepONet (Lu et al., Nat. Mach. Intell. 2021).
The branch is one sigmoid network of the input's samples at shared sensor
points with one output per term (the unstacked DeepONet), so its hidden
layer is stored and evaluated once.  Each hidden node sees one sample: the
layer stores one weight per sample plus a zero-weight constant node; the
dense-weight form is kept only as the test suite's reference.
:func:`eval_structured_with_gradient` is the one evaluation kernel: it
returns the values and a lazy vector-Jacobian product, so a value-only
call never forms a derivative.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .grid import GridFunction


def activation(t):
    """Logistic sigmoid, limits 0 at -inf and 1 at +inf, strictly increasing."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def activation_derivative(t):
    s = np.asarray(activation(t))
    out = s * (1.0 - s)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------


def _finite(value, name: str, ndim: int = 1) -> np.ndarray:
    a = np.atleast_1d(np.asarray(value, dtype=float))
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must have {ndim} dimension(s), got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue(f"non-finite entries in {name}")
    return a


class BranchCoeffs:
    """One-layer sigmoid network of the samples x_1..x_L with one output per
    term; output i is sum_l c[i, l] sigma(w_l x_l + theta_l) + c[i, L] sigma(theta_L).

    The outputs share the hidden layer: ``w`` holds one weight per sample and
    ``theta`` one more entry, for the zero-weight constant node, which comes
    last.  ``c`` holds one row of output weights per term.
    """

    __slots__ = ("c", "w", "theta")

    def __init__(self, c, w, theta):
        self.c = _finite(c, "branch.c", 2)  # (N, L + 1)
        self.w = _finite(w, "branch.w")  # (L,)
        self.theta = _finite(theta, "branch.theta")  # (L + 1,)
        if self.c.shape[1] != self.w.size + 1 or self.theta.size != self.w.size + 1:
            raise DimensionMismatch("branch coefficient shapes disagree")

    @property
    def n_l(self) -> int:
        return self.w.size


class TrunkCoeffs:
    """One-layer sigmoid function of t: sum_j c_j sigma(w_j t + zeta_j)."""

    __slots__ = ("c", "w", "zeta")

    def __init__(self, c, w, zeta):
        self.c = _finite(c, "trunk.c")
        self.w = _finite(w, "trunk.w")
        self.zeta = _finite(zeta, "trunk.zeta")
        if self.w.size != self.c.size or self.zeta.size != self.c.size:
            raise DimensionMismatch("trunk coefficient shapes disagree")

    @property
    def n_j(self) -> int:
        return self.c.size


def eval_branch(branch: BranchCoeffs, x_samples) -> np.ndarray:
    """The branch's N outputs, one per term, at the input samples."""
    xs = np.asarray(x_samples, dtype=float)
    if xs.shape != (branch.n_l,):
        raise DimensionMismatch(f"expected {branch.n_l} input samples, got {xs.shape}")
    # node arguments w_l x_l + theta_l, the constant node's last
    sig = activation(np.append(branch.w * xs, 0.0) + branch.theta)
    return np.array([np.dot(c_i, sig) for c_i in branch.c])


def eval_trunk(trunk: TrunkCoeffs, t_points) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    return activation(np.outer(trunk.w, t) + trunk.zeta[:, None]).T @ trunk.c


# ---------------------------------------------------------------------------


class StructuredSurrogateCoeffs:
    """One branch network with an output per term, and a trunk per term;
    the branch reads the input at the sensor points."""

    __slots__ = ("branch", "trunks", "s_points")

    def __init__(self, branch: BranchCoeffs, trunks, s_points):
        if branch.c.shape[0] != len(trunks):
            raise DimensionMismatch("the branch needs one output per trunk")
        s = _finite(s_points, "s_points")  # (L,) sensor points in [0, 1]
        if branch.n_l != s.size:
            raise DimensionMismatch("branch width disagrees with the sensor count")
        if np.any(s < 0.0) or np.any(s > 1.0):
            # np.interp would clamp them, and the pullback would not
            raise DimensionMismatch("sample points must lie in [0, 1]")
        self.branch = branch
        self.trunks = tuple(trunks)  # of TrunkCoeffs
        self.s_points = s

    @property
    def n_terms(self) -> int:
        return len(self.trunks)


def eval_structured_with_gradient(
    s: StructuredSurrogateCoeffs, x: GridFunction, t_points
):
    """Sum over terms of branch_i(x) * trunk_i(t), and its pullback.

    Returns (values[Q], pullback), where pullback(v[Q]) is J^T v for the
    Jacobian J of the values with respect to the nodal values of x.  Input
    sampling is linear interpolation, whose weights enter the chain rule
    exactly.  The shared hidden layer is evaluated once per call, and its
    derivative once per pullback; each term keeps its own output dot
    product.  The pullback does all derivative work when it is called.
    """
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    b = s.branch
    xs = x.sample(s.s_points)
    trunks = [eval_trunk(trunk, t) for trunk in s.trunks]
    out = np.zeros(t.size)
    for b_i, tr in zip(eval_branch(b, xs), trunks):
        out += float(b_i) * tr

    def pullback(v) -> np.ndarray:
        n = x.n_cells
        idx = np.clip(np.floor(s.s_points * n).astype(int), 0, n - 1)
        frac = s.s_points * n - idx
        left = 1.0 - frac
        dz = activation_derivative(b.w * xs + b.theta[:-1])
        grad = np.zeros(n + 1)
        for c_i, tr in zip(b.c, trunks):
            g = np.dot(tr, v) * (c_i[:-1] * dz * b.w)
            grad += np.bincount(idx, g * left, minlength=n + 1)
            grad += np.bincount(idx + 1, g * frac, minlength=n + 1)
        return grad

    return out, pullback
