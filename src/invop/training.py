"""Surrogate construction from supervised training pairs.

Pipeline: generate admissible coefficient perturbations around a center,
solve the forward problem for each, center the pairs, orthonormalize the
centered images in the problem's inner product, and expose the rank-N
linear surrogate together with its branch/trunk sigmoid realization and
measured error diagnostics.  The expansion carries ``probe_pairs``, the one
held-out pair on which every forward map built on it measures its error
rho.  Pairs, basis and induced data are the rows of (rows, n + 1) arrays,
as filed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DependentImages,
    DimensionMismatch,
    EmptyProbeSet,
    IllConditionedFit,
    NonAdmissiblePerturbation,
)
from .fem import ProblemKind, solve_forward_reference
from .grid import GridFunction, SpaceKind, _inner_nodal, gram_apply, trapezoid_weights
from .neural import (StructuredSurrogateCoeffs, activation, activation_derivative, eval_branch,
                     eval_trunk)

#: argument scale of the near-linear sigmoid nodes that realize linear
#: functionals of the input samples; their cubic error is O(eps^2) relative
LINEAR_NODE_EPS = 1e-3

DEPENDENT_TOL = 1e-10
TRUNK_COND_LIMIT = 1e12
TRUNK_WEIGHT_SPAN = 20.0
TRUNK_CONSTANT_BIAS = 40.0


# ---------------------------------------------------------------------------
# training sets


@dataclass(frozen=True)
class PerturbationSpec:
    amplitude: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one perturbation")
        if not 0 < self.amplitude < math.inf:  # NaN fails both comparisons
            raise ValueError(f"amplitude must be positive and finite, not {self.amplitude!r}")


def perturbation_shape(index: int, n_cells: int) -> GridFunction:
    """The index-th perturbation direction (1-based): sqrt(2) sin(index pi s),
    of unit L2 norm."""
    s = np.linspace(0.0, 1.0, n_cells + 1)
    return GridFunction(np.sqrt(2.0) * np.sin(index * np.pi * s))


class TrainingSet(NamedTuple):
    problem: ProblemKind
    load: GridFunction  # the load the pairs were solved with
    x: np.ndarray  # (pairs, n + 1) inputs x_hat; row 0 is the center
    y: np.ndarray  # (pairs, n + 1) their reference data y_hat

    @property
    def n_train(self) -> int:
        return len(self.x) - 1


def generate_training_set(
    problem: ProblemKind,
    f: GridFunction,
    center_x: GridFunction,
    perturbation: PerturbationSpec,
) -> TrainingSet:
    n_cells = center_x.n_cells
    if f.n_cells != n_cells:  # before any reference solve
        raise DimensionMismatch(f"the load lies on {f.n_cells} cells and the center on {n_cells}")
    if perturbation.count >= n_cells:
        # sin(n pi s) vanishes at every node of the n-cell mesh, and higher
        # modes alias lower ones; modes 1 .. n - 1 are independent there
        raise DependentImages(
            f"{perturbation.count} sine modes on the {n_cells}-cell mesh: it holds "
            f"at most {n_cells - 1} independent ones"
        )
    shapes = np.array([perturbation_shape(ell, n_cells).values
                       for ell in range(1, perturbation.count + 1)])
    margin = float(np.min(center_x.values)) - problem.fem_lower_bound()
    reach = perturbation.amplitude * float(np.max(np.abs(shapes)))
    if reach > margin:
        raise NonAdmissiblePerturbation(
            f"amplitude reach {reach:.4g} exceeds admissibility margin {margin:.4g}"
        )
    x = np.vstack([center_x.values, center_x.values + perturbation.amplitude * shapes])
    y = np.array([solve_forward_reference(problem, GridFunction(row), f).values for row in x])
    return TrainingSet(problem, f, x, y)


# ---------------------------------------------------------------------------
# orthonormalization and the rank-N linear surrogate


def gram_schmidt(images: np.ndarray, space: SpaceKind):
    """Modified Gram-Schmidt with one reorthogonalization pass on the rows of images.

    Returns (basis, transform) with transform lower-triangular, positive
    diagonal, and basis[j] = sum_i transform[j, i] * images[i].
    """
    n = len(images)
    basis = np.zeros_like(images)
    transform = np.zeros((n, n))
    for j, img in enumerate(images):
        v = img.copy()
        row = np.eye(n)[j]
        for _ in range(2):  # MGS sweep plus one reorthogonalization
            for i, b in enumerate(basis[:j]):
                c = _inner_nodal(v, b, space)
                v -= c * b
                row -= c * transform[i]
        nv = math.sqrt(_inner_nodal(v, v, space))
        if nv < DEPENDENT_TOL * math.sqrt(_inner_nodal(img, img, space)):
            raise DependentImages(f"input {j} is dependent on its predecessors")
        basis[j] = v / nv
        transform[j] = row / nv
    return basis, transform


class LinearSurrogate(NamedTuple):
    basis: np.ndarray  # (N, n + 1) orthonormal input directions
    induced: np.ndarray  # (N, n + 1) data functions under the same change of basis
    problem: ProblemKind  # its image space is the surrogate's input space
    center: tuple  # (x_hat0, y_hat0), the training center pair
    load: GridFunction  # the load the pairs were solved with
    probes: tuple  # (x, F[x]) pairs that measure the error of a map: probe_pairs

    @property
    def n_terms(self) -> int:
        return len(self.basis)


def probe_pairs(ts: TrainingSet) -> tuple:
    """The one held-out pair: the center shifted by a mix of the training
    deviations with alternating signs, solved by the reference solver.  No
    build fits it, so it measures the error off the training pairs, which
    the rank-N map reproduces."""
    x0 = ts.x[0]
    mix = np.zeros_like(x0)
    for j, x in enumerate(ts.x[1:]):
        mix += (0.6 if j % 2 == 0 else -0.6) * (x - x0)
    xm = GridFunction(x0 + mix)
    return ((xm, solve_forward_reference(ts.problem, xm, ts.load)),)


def build_linear_surrogate(ts: TrainingSet) -> LinearSurrogate:
    """Rank-N expansion of the training pairs around the center pair 0: the
    center is subtracted from each other pair, the input deviations are
    orthonormalized, and the data deviations follow the same change of basis.
    It carries the ``probe_pairs`` of the training set."""
    if ts.n_train < 1:
        raise DimensionMismatch("training set needs at least one non-center pair")
    basis, transform = gram_schmidt(ts.x[1:] - ts.x[0], ts.problem.image_space)
    ys = ts.y[1:] - ts.y[0]
    induced = np.zeros_like(ys)
    for j, i in zip(*np.tril_indices(len(basis))):  # i = 0 .. j in turn
        induced[j] += transform[j, i] * ys[i]
    center = (GridFunction(ts.x[0]), GridFunction(ts.y[0]))
    return LinearSurrogate(basis, induced, ts.problem, center, ts.load, probe_pairs(ts))


# ---------------------------------------------------------------------------
# branch construction


def quadrature_nodes(n_k: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_k + 1)


def _near_linear_branch(slopes: np.ndarray, anchor_vals: np.ndarray) -> tuple:
    """The arrays (c, w, theta) of the sigmoid network whose output i is
    sum_k slopes[i, k] (x(t_k) - anchor_k), zero at the anchor.

    One near-linear node per sample carries the slopes; one constant node
    cancels the nodes' value at the anchor samples to rounding.
    """
    eps = LINEAR_NODE_EPS
    c = slopes / (activation_derivative(0.0) * eps)
    w = np.full(anchor_vals.size, eps)
    theta = -eps * anchor_vals
    sig = activation(w * anchor_vals + theta)
    at_anchor = np.array([np.dot(c_i, sig) for c_i in c])
    # 0.0 - v, not -v: an exact cancellation gives c0 = +0.0
    c0 = (0.0 - at_anchor) / activation(0.0)
    return np.column_stack([c, c0]), w, np.append(theta, 0.0)


# ---------------------------------------------------------------------------
# trunk fit


def fit_trunk(y_underline: np.ndarray, n_j: int, seed: int):
    """One-shot least-squares fit of a sigmoid expansion to the data function
    with the nodal values ``y_underline``.

    Node 0 is a saturated constant; the rest have random weights and
    uniformly random transition locations.  Returns ((c, w, zeta), discrete
    L2 residual).
    """
    if n_j < 1:
        raise DimensionMismatch("trunk needs at least one node")
    t = np.linspace(0.0, 1.0, y_underline.size)
    sw = np.sqrt(trapezoid_weights(y_underline.size - 1))

    for attempt_seed in (seed, seed + 7919):
        rng = np.random.default_rng(attempt_seed)
        w = np.zeros(n_j)
        zeta = np.zeros(n_j)
        zeta[0] = TRUNK_CONSTANT_BIAS
        if n_j > 1:
            w[1:] = rng.uniform(-TRUNK_WEIGHT_SPAN, TRUNK_WEIGHT_SPAN, n_j - 1)
            zeta[1:] = -w[1:] * rng.uniform(0.0, 1.0, n_j - 1)
        features = activation(np.outer(t, w) + zeta)
        weighted = features * sw[:, None]
        c, _, _, s = np.linalg.lstsq(weighted, sw * y_underline, rcond=None)
        if s[0] <= TRUNK_COND_LIMIT * s[-1]:
            fit = eval_trunk(c, w, zeta, t)
            residual = float(np.sqrt(np.sum((sw * (fit - y_underline)) ** 2)))
            return (c, w, zeta), residual
    raise IllConditionedFit(
        f"trunk feature matrix is numerically singular for sizes n_j={n_j}"
    )


# ---------------------------------------------------------------------------
# assembly and diagnostics


class SurrogateDiagnostics(NamedTuple):
    nu_N: float  # off-span forward error per unit input deviation
    q_N: float  # worst measured branch functional error
    r_N: float  # worst trunk fit residual
    n_terms: int

    @property
    def rho_bound(self) -> float:
        """The sigmoid surrogate's error bound nu_N + n_terms * q_N * r_N."""
        return self.nu_N + self.n_terms * self.q_N * self.r_N


def estimate_nu_N(ls: LinearSurrogate) -> float:
    """Largest ratio of the out-of-span data deviation to the input deviation.

    For each probe pair (x, F[x]) of ``ls`` the data deviation F[x] -
    F[x_center] is projected off the span of the induced data functions; the
    ratio to ||x - x_center|| in the surrogate space is maximized over the
    pairs.
    """
    if not ls.probes:
        raise EmptyProbeSet("need at least one probe")
    x0, y0 = ls.center
    space, sw = ls.problem.image_space, np.sqrt(trapezoid_weights(y0.n_cells))
    q, _ = np.linalg.qr((ls.induced * sw).T)

    worst = 0.0
    for x, y in ls.probes:
        e = x.values - x0.values
        dx = float(np.sqrt(_inner_nodal(e, e, space)))
        if dx < 1e-14:
            continue
        d = (y.values - y0.values) * sw
        resid = d - q @ (q.T @ d)
        worst = max(worst, float(np.linalg.norm(resid)) / dx)
    return worst


def assemble_neural_surrogate(ls: LinearSurrogate, n_k: int, n_j: int, seed: int):
    """Branch/trunk realization of the rank-N surrogate with diagnostics.

    Output ell of the one near-linear branch network realizes the
    coefficient functional <x - center, basis_ell>, accurate to quadrature
    error everywhere, and is paired with a trunk fitted to the induced data
    function.  q_N and nu_N are measured on the probe pairs of ``ls``.
    Returns (coefficients, diagnostics).
    """
    x0, space = ls.center[0], ls.problem.image_space
    if n_k < x0.n_cells:  # a branch with fewer sensors than cells misses nodal values
        raise DimensionMismatch(f"n_k = {n_k} sensors on the {x0.n_cells}-cell expansion: "
                                f"the branch needs n_k >= {x0.n_cells}")
    t = quadrature_nodes(n_k)
    slopes = np.array([gram_apply(np.interp(t, x0.nodes, xb), space) for xb in ls.basis])
    trunks, residuals = zip(*(fit_trunk(yb, n_j, seed + 7 * ell)
                              for ell, yb in enumerate(ls.induced)))
    coeffs = StructuredSurrogateCoeffs(t, *_near_linear_branch(slopes, x0.sample(t)),
                                       *map(np.stack, zip(*trunks)))

    q_n = 0.0
    for x, _ in ls.probes:
        e = x.values - x0.values
        outputs = eval_branch(coeffs, x.sample(t))
        for b, xb in zip(outputs.tolist(), ls.basis):
            q_n = max(q_n, abs(b - _inner_nodal(e, xb, space)))

    return coeffs, SurrogateDiagnostics(estimate_nu_N(ls), q_n, max(residuals),
                                        ls.n_terms)
