"""Branch/trunk sigmoid operator representation and evaluation.

An operator surrogate is a sum over terms of products of a *branch* output
and a *trunk* (a one-layer sigmoid network of the output location), the
branch/trunk contraction of DeepONet (Lu et al., Nat. Mach. Intell. 2021).
The branch is one sigmoid network of the input's samples at shared sensor
points with one output per term (the unstacked DeepONet), so its hidden
layer is stored and evaluated once.  Each hidden node sees one sample: the
layer stores one weight per sample plus a zero-weight constant node; the
dense-weight form is kept only as the test suite's reference.
:class:`StructuredSurrogateCoeffs` is one record of the seven arrays of its
file (:data:`FIELDS`): the sensor points, the branch's three arrays, and
the trunks' three, stacked one row per term.
:func:`eval_structured_with_gradient` is the one evaluation kernel: it
returns the values and a lazy vector-Jacobian product, so a value-only
call never forms a derivative.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue


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


#: the fields of the operator's file, in file order; the record keeps each in
#: the slot of its name with "_" for "."
FIELDS = ("s_points", "branch.c", "branch.w", "branch.theta", "trunk.c", "trunk.w",
          "trunk.zeta")


class StructuredSurrogateCoeffs:
    """The branch/trunk operator as the seven arrays of its file.

    The branch is one sigmoid network of the samples x_1..x_L of the input at
    the sensor points ``s_points`` in [0, 1], with one output per term:
    output i is sum_l branch_c[i, l] sigma(branch_w[l] x_l + branch_theta[l])
    + branch_c[i, L] sigma(branch_theta[L]).  The outputs share the hidden
    layer: ``branch_w`` holds one weight per sample and ``branch_theta`` one
    more entry, for the zero-weight constant node, which comes last.  Row i
    of the (N, n_j) trunk arrays is trunk i, the function
    sum_j trunk_c[i, j] sigma(trunk_w[i, j] t + trunk_zeta[i, j]).
    """

    __slots__ = tuple(name.replace(".", "_") for name in FIELDS)

    def __init__(self, s_points, branch_c, branch_w, branch_theta, trunk_c, trunk_w,
                 trunk_zeta):
        arrays = list(map(_finite, (s_points, branch_c, branch_w, branch_theta, trunk_c,
                                    trunk_w, trunk_zeta), FIELDS, (1, 2, 1, 1, 2, 2, 2)))
        # (L,), (N, L + 1), (L,), (L + 1,), then (N, n_j) for each trunk array
        s, c, w, theta, *trunks = arrays
        if c.shape[1] != w.size + 1 or theta.size != w.size + 1:
            raise DimensionMismatch("branch coefficient shapes disagree")
        if len({a.shape for a in trunks}) > 1:
            raise DimensionMismatch("trunk coefficient shapes disagree")
        if c.shape[0] != trunks[0].shape[0]:
            raise DimensionMismatch("the branch needs one output per trunk")
        if w.size != s.size:
            raise DimensionMismatch("branch width disagrees with the sensor count")
        if np.any(s < 0.0) or np.any(s > 1.0):
            # np.interp would clamp them, and the pullback would not
            raise DimensionMismatch("sample points must lie in [0, 1]")
        for slot, a in zip(self.__slots__, arrays):
            setattr(self, slot, a)

    @property
    def n_terms(self) -> int:
        return self.branch_c.shape[0]


def eval_branch(s: StructuredSurrogateCoeffs, x_samples) -> np.ndarray:
    """The branch's N outputs, one per term, at the input samples."""
    xs = np.asarray(x_samples, dtype=float)
    if xs.shape != s.s_points.shape:
        raise DimensionMismatch(f"expected {s.s_points.size} input samples, got {xs.shape}")
    # node arguments w_l x_l + theta_l, the constant node's last
    sig = activation(np.append(s.branch_w * xs, 0.0) + s.branch_theta)
    return np.array([np.dot(c_i, sig) for c_i in s.branch_c])


def eval_trunk(c, w, zeta, t_points) -> np.ndarray:
    """The trunk sum_j c_j sigma(w_j t + zeta_j) at the points t."""
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    return activation(np.outer(w, t) + zeta[:, None]).T @ c


# ---------------------------------------------------------------------------


def eval_structured_with_gradient(s: StructuredSurrogateCoeffs, xv: np.ndarray, t_points):
    """Sum over terms of branch_i(x) * trunk_i(t), and its pullback.

    Returns (values[Q], pullback), where pullback(v[Q]) is J^T v for the
    Jacobian J of the values with respect to the nodal values xv of x.  Input
    sampling is ``GridFunction.sample``'s linear interpolation, whose weights
    enter the chain rule exactly.  The shared hidden layer is evaluated once
    per call, and its derivative once per pullback; each term keeps its own
    output dot product.  The pullback does all derivative work when it is called.
    """
    t = np.atleast_1d(np.asarray(t_points, dtype=float))
    n = xv.size - 1
    xs = np.interp(s.s_points, np.linspace(0.0, 1.0, n + 1), xv)
    trunks = [eval_trunk(*row, t) for row in zip(s.trunk_c, s.trunk_w, s.trunk_zeta)]
    out = np.zeros(t.size)
    for b_i, tr in zip(eval_branch(s, xs), trunks):
        out += float(b_i) * tr

    def pullback(v) -> np.ndarray:
        idx = np.clip(np.floor(s.s_points * n).astype(int), 0, n - 1)
        frac = s.s_points * n - idx
        left = 1.0 - frac
        dz = activation_derivative(s.branch_w * xs + s.branch_theta[:-1])
        grad = np.zeros(n + 1)
        for c_i, tr in zip(s.branch_c, trunks):
            g = np.dot(tr, v) * (c_i[:-1] * dz * s.branch_w)
            grad += np.bincount(idx, g * left, minlength=n + 1)
            grad += np.bincount(idx + 1, g * frac, minlength=n + 1)
        return grad

    return out, pullback
