"""Tikhonov regularization with certified approximate minimizers.

The functional is ``||F_n[x_xi] - y_delta||^2_L2 + alpha ||x - x0||^2_X``
where ``F_n`` is one of three interchangeable forward maps (``FemMap``,
the direct FEM solve; ``RankMap``, the rank-N linear expansion;
``NeuralMap``, the branch/trunk sigmoid operator), x0 is its prior ``center``
and ``x_xi`` is the mollified iterate when a smoothing width is configured.
X and nu are those of the map's problem; the map checks once that x lies on
its center's mesh.  Minimization is limited-memory BFGS (the two-loop
recursion of Liu & Nocedal, 1989) with every inner product taken in the X
metric, projected onto x >= nu, with a monotone backtracking line search.
Its initial matrix inverts the Hessian of the linear model that the map
gives as its ``_directions``: exactly for the rank map, which is its model
(one Newton step reaches the minimizer), and the Gauss-Newton one at the
prior center, on a few leading directions of its Jacobian, for the FEM map.
It is gamma I for the neural map, and after a step clipped by x >= nu.  It
stops when the certificate ``gradient_norm^2 / (4 alpha)``, which bounds the
gap to the infimum and is exact for quadratic models, drops below eta, when
the best value has not strictly decreased for STALL_ITERATIONS iterations
(floating-point precision reached), or when the iteration budget is spent;
``Certificate.status`` says which.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateScale, EmptyProbeSet, NonAdmissibleCoefficient, Stalled
from .fem import ProblemKind, gauss_newton_directions, misfit_gradient_nodal, solve_forward_fem
from .grid import (GridFunction, SpaceKind, _inner_nodal, gram_apply, gram_solve, norm,
                   trapezoid_weights)
from .mollify import mollify, mollify_matrix
from .neural import StructuredSurrogateCoeffs, eval_structured_with_gradient
from .training import LinearSurrogate, fem_probe_pairs

ARMIJO = 1e-4
MAX_HALVINGS = 60
STEP_MIN, STEP_MAX = 1e-12, 1e12
STALL_ITERATIONS = 50
MEMORY = 8  # L-BFGS pairs; above N + 2 for the 6-term c-example surrogates
#: Lanczos steps of the FEM map's initial matrix; at n = 256 the a-example's
#: Gauss-Newton operator has 3 to 7 eigenvalues above 1e-3 alpha
GAUSS_NEWTON_STEPS = 8


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TikhonovConfig:
    """The functional's weights, tolerance and budget; the prior center, X
    and the bound x >= nu are those of the forward map."""

    alpha: float
    eta: float
    xi: float
    max_iterations: int = 2000

    def __post_init__(self):
        # each error names its one field
        for name, v in (("alpha", self.alpha), ("eta", self.eta), ("xi", self.xi)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, not {v!r}")
            if v < 0 or (v == 0 and name != "xi"):
                word = "nonnegative" if name == "xi" else "positive"
                raise ValueError(f"{name} must be {word}, not {v!r}")
        if self.xi >= 0.5:
            raise ValueError(f"xi must be in [0, 0.5), the widths that fit, not {self.xi!r}")
        m = self.max_iterations
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"max_iterations must be a positive integer, not {m!r}")


# ---------------------------------------------------------------------------
# forward maps


class SurrogateHandle:
    """A forward map F_n inside the functional: FemMap, RankMap or NeuralMap.

    Each map provides ``label``, ``n_terms``, ``problem``, its prior
    ``center``, the solved ``probes`` (x, F[x]) that it does not fit, and
    ``_evaluate(x)``, which returns the nodal data y of the (already
    mollified) input x and a pullback taking the nodal residual r to the
    Euclidean nodal gradient of inner(y, r, L2) in x; it may give a linear
    model of itself as ``_directions(xi)``.  The GridFunction entry points
    ``forward`` and ``misfit_and_gradient`` check once that x lies on the center's mesh.
    """

    __slots__ = ("_rho",)

    @property
    def rho(self) -> float:
        """The error that the parameter rule balances against the noise:
        ``surrogate_error`` on the probes, measured on first use and kept."""
        if not hasattr(self, "_rho"):
            self._rho = surrogate_error(self, self.probes)
        return self._rho

    def forward(self, x: GridFunction) -> GridFunction:
        """Surrogate data for the (already mollified) input x."""
        x._check_mesh(self.center.n_cells)
        return GridFunction(self._evaluate(x)[0])

    def misfit_and_gradient(self, x: GridFunction, y_delta: GridFunction):
        """Data misfit ||forward(x) - y_delta||^2 and its Euclidean nodal
        gradient with respect to the values of x."""
        x._check_mesh(self.center.n_cells)
        y_delta._check_mesh(self.center.n_cells)  # before the map's evaluation
        y, pullback = self._evaluate(x)
        r = y - y_delta.values
        return _inner_nodal(r, r, SpaceKind.L2), 2.0 * pullback(r)

    def _directions(self, xi: float):
        """Nodal arrays (b_i) and (y_i) of a linear model x -> sum_i <x, b_i>_X y_i, or None."""
        return None

    def inverse_hessian(self, cfg: TikhonovConfig):
        """``_woodbury_inverse`` of the ``_directions`` model, on nodal arrays;
        None for no model, and the optimizer scales its initial matrix by gamma."""
        model = self._directions(cfg.xi)
        return model and _woodbury_inverse(*model, self.problem.image_space, cfg)


class FemMap(SurrogateHandle):
    """The Galerkin solver itself on the mesh of its load and center."""

    __slots__ = ("problem", "load", "center", "probes", "_built")
    label = "FemForward"
    n_terms = 0

    def __init__(self, problem: ProblemKind, load: GridFunction, center: GridFunction):
        self.problem, self.load, self.center = problem, load, center
        self.probes = fem_probe_pairs(problem, load, center)  # checks the meshes first
        self._built = None  # (xi, basis, images) of the last width

    def _evaluate(self, x: GridFunction):
        y = solve_forward_fem(self.problem, x, self.load).values

        def pullback(r: np.ndarray) -> np.ndarray:
            return misfit_gradient_nodal(self.problem, x.values, y, r)

        return y, pullback

    def _directions(self, xi: float):
        """The Gauss-Newton model: the GAUSS_NEWTON_STEPS leading directions b_i
        of ``gauss_newton_directions`` at the (mollified) prior center and their
        images J b_i, J = F'[x_xi], built once per width and reused by every solve."""
        if self._built is None or self._built[0] != xi:
            xc = self.center.values
            if xi > 0:
                xc = mollify_matrix(self.center.n_cells, xi) @ xc
            self._built = (xi, *gauss_newton_directions(
                self.problem, xc, self.load.values, GAUSS_NEWTON_STEPS))
        return self._built[1:]


class ExpansionMap(SurrogateHandle):
    """A map of the rank-N expansion ``ls``, with its problem, center and probes."""

    __slots__ = ("ls",)
    problem = property(lambda self: self.ls.problem)
    center = property(lambda self: self.ls.center[0])
    probes = property(lambda self: self.ls.probes)


class RankMap(ExpansionMap):
    """The rank-N linear expansion around its training center."""

    __slots__ = ()
    label = "LinearRankN"
    n_terms = property(lambda self: self.ls.n_terms)

    def __init__(self, ls: LinearSurrogate):
        self.ls = ls

    def _evaluate(self, x: GridFunction):
        x0, y0 = self.ls.center
        space = self.ls.problem.image_space
        out = y0.values.copy()
        xc = x.values - x0.values
        for b, y in zip(self.ls.basis, self.ls.induced):
            out += _inner_nodal(xc, b, space) * y

        def pullback(r: np.ndarray) -> np.ndarray:
            grad = np.zeros(x.n_cells + 1)
            for b, y in zip(self.ls.basis, self.ls.induced):
                grad += _inner_nodal(r, y, SpaceKind.L2) * gram_apply(b, space)
            return grad

        return out, pullback

    def _directions(self, xi: float):
        """The basis and its induced data: the map is its model, the inverse exact."""
        return self.ls.basis, self.ls.induced


class NeuralMap(ExpansionMap):
    """The branch/trunk sigmoid realization ``coeffs`` of the expansion ``ls``.
    ``forward`` evaluates the values only; the pullback does the
    vector-Jacobian product when a gradient is asked for."""

    __slots__ = ("coeffs",)
    label = "NeuralOperator"
    n_terms = property(lambda self: self.coeffs.n_terms)

    def __init__(self, coeffs: StructuredSurrogateCoeffs, ls: LinearSurrogate):
        self.coeffs, self.ls = coeffs, ls

    def _evaluate(self, x: GridFunction):
        y0 = self.ls.center[1]
        out, vjp = eval_structured_with_gradient(self.coeffs, x, y0.nodes)

        def pullback(r: np.ndarray) -> np.ndarray:
            return vjp(trapezoid_weights(y0.n_cells) * r)

        return y0.values + out, pullback


def _woodbury_inverse(basis, images, space: SpaceKind, cfg: TikhonovConfig):
    """The inverse X-Hessian 2 (alpha I + U C V) of the functional of the
    linear map x -> sum_i <x, b_i>_X y_i (nodal directions b_i, nodal data
    y_i), in Woodbury form:
    H^-1 v = (v - U C (alpha I + V U C)^-1 V v) / (2 alpha).  The rows of V
    are the Riesz functionals G b_i, mollified on the mesh of the b_i when
    xi > 0, U = G_X^-1 V^T, and C is the L2 Gram matrix of the y_i; one
    N x N inverse when the function is built."""
    V = [gram_apply(b, space) for b in basis]
    if cfg.xi > 0:
        V = [mollify_matrix(basis[0].size - 1, cfg.xi).T @ v for v in V]
    V = np.array(V)
    C = np.array([[_inner_nodal(a, b, SpaceKind.L2) for b in images] for a in images])
    # matrix-vector products and lstsq only, kernels the package runs
    # anyway: each further BLAS or LAPACK kernel adds 0.1-0.2 MB resident
    CU = np.array([gram_solve(V.T @ c, space) for c in C])  # (U C)^T
    eye = np.eye(len(C))
    K = np.linalg.lstsq(cfg.alpha * eye + np.array([CU @ v for v in V]), eye, rcond=None)[0]
    return lambda v: (v - CU.T @ (K @ (V @ v))) / (2.0 * cfg.alpha)


def surrogate_error(h: SurrogateHandle, pairs) -> float:
    """The surrogate error rho of the map h that the parameter rule balances
    against the noise: the largest ||h.forward(x) - y||_L2 over the probe
    pairs (x, y = F[x])."""
    errors = [norm(h.forward(x) - y, SpaceKind.L2) for x, y in pairs]
    if not errors:
        raise EmptyProbeSet("need at least one probe pair")
    return max(errors)


# ---------------------------------------------------------------------------
# functional pieces


def add_noise(y: GridFunction, delta: float, seed: int) -> GridFunction:
    """Additive nodal noise scaled to hit the discrete L2 level exactly."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return y
    e = np.random.default_rng(seed).standard_normal(y.values.size)
    scale = delta / float(np.sqrt(max(_inner_nodal(e, e, SpaceKind.L2), 0.0)))
    return GridFunction(y.values + scale * e)


def choose_parameters(delta: float, rho_n: float, constant: float = 1.0):
    """A-priori rule: alpha proportional to max(noise, surrogate error),
    tolerance eta = alpha^2."""
    if delta < 0 or rho_n < 0:
        raise ValueError("levels must be nonnegative")
    if constant <= 0:
        raise ValueError("constant must be positive")
    scale = max(delta, rho_n)
    if scale <= 0:
        raise DegenerateScale("both noise level and surrogate error are zero")
    alpha = constant * scale
    return alpha, alpha * alpha


def tikhonov_value_and_gradient(
    h: SurrogateHandle, x: GridFunction, y_delta: GridFunction, cfg: TikhonovConfig
):
    """Functional value and the nodal values of its gradient in the solution
    space of the map's problem, around its center; the one evaluator of the functional."""
    space = h.problem.image_space
    if float(np.min(x.values)) < h.problem.nu - 1e-12:
        raise NonAdmissibleCoefficient("evaluation point violates the bound nu")
    v = mollify(x, cfg.xi) if cfg.xi > 0 else x
    misfit, gz = h.misfit_and_gradient(v, y_delta)
    if cfg.xi > 0:
        gz = mollify_matrix(x.n_cells, cfg.xi).T @ gz
    d = x.values - h.center.values
    value = misfit + cfg.alpha * _inner_nodal(d, d, space)
    grad = gram_solve(gz, space) + 2.0 * cfg.alpha * d
    return value, grad


# ---------------------------------------------------------------------------
# minimization


class Certificate(NamedTuple):
    gradient_norm: float
    eta_bound: float
    iterations: int  # index of the returned iterate
    status: str  # "converged", "budget" or "stagnated"


class ApproximateMinimizer(NamedTuple):
    x: GridFunction
    functional_value: float
    certificate: Certificate


class _LbfgsMemory:
    """L-BFGS inverse Hessian H of the last MEMORY pairs (s, y) by the
    two-loop recursion (Nocedal & Wright, 2006, Algorithm 7.4) in the X
    inner product, on nodal arrays.  Gradients are X-Riesz representers,
    so one formula serves L2 and H1; keeping G s and G y (G the Gram
    matrix) makes each X product one dot product.  The initial matrix H0
    is ``h0``, the map's inverse Hessian, or gamma I where that is None; an
    exact pair (H0 y = s) leaves an exact H0 unchanged."""

    def __init__(self, space: SpaceKind, h0=None):
        self.gram = lambda v: gram_apply(v, space)
        self.pairs = deque(maxlen=MEMORY)  # (s, y, G s, G y, <s, y>_X)
        self.gamma = 1.0
        self.h0 = h0

    def update(self, s: np.ndarray, y: np.ndarray):
        """Keep the pair only if <s, y>_X > 0; then gamma = <s, y>_X / <y, y>_X."""
        gy = self.gram(y)
        sy = s @ gy
        if sy > 0:
            self.pairs.append((s, y, self.gram(s), gy, sy))
            self.gamma = min(max(sy / (y @ gy), STEP_MIN), STEP_MAX)

    def _initial(self, v: np.ndarray) -> np.ndarray:
        return self.gamma * v if self.h0 is None else self.h0(v)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """H g, or H0 g with the memory dropped if <g, H g>_X <= 0."""
        q = g.copy()
        coefs = []
        for _, y, gs, _, sy in reversed(self.pairs):
            coefs.append(gs @ q / sy)
            q -= coefs[-1] * y
        r = self._initial(q)
        for (s, _, _, gy, sy), a in zip(self.pairs, reversed(coefs)):
            r += (a - gy @ r / sy) * s
        if r @ self.gram(g) <= 0:
            self.pairs.clear()
            return self._initial(g)
        return r


def minimize_tikhonov(
    h: SurrogateHandle,
    y_delta: GridFunction,
    cfg: TikhonovConfig,
) -> ApproximateMinimizer:
    """Projected limited-memory BFGS with a monotone backtracking (halving)
    line search, run on nodal arrays: each trial builds one GridFunction.

    The run starts from the map's prior ``h.center``, which must satisfy
    the bound of ``h.problem``.  Each iteration moves along d = H g from
    ``_LbfgsMemory``, the L-BFGS inverse Hessian of the last MEMORY
    accepted pairs in the X metric, with H0 = ``h.inverse_hessian(cfg)``
    until a step is clipped, and tries x - t d projected onto
    x >= nu.  The first trial fraction is
    t = min(1, 2 t_prev), t_prev the last accepted one, so iterations that
    stall at rounding level do not halve from 1 again.  Accepted steps
    satisfy the Armijo condition and never increase the functional.  The
    run stops with status ``"converged"`` when the certificate
    gradient_norm^2/(4 alpha) drops below eta, with ``"stagnated"`` when
    STALL_ITERATIONS consecutive iterations bring no strict decrease of
    the best value, and with ``"budget"`` when max_iterations is spent;
    the last two return the best iterate, and ``Certificate.iterations``
    is the index of the returned iterate.
    """
    x, space, nu = h.center, h.problem.image_space, h.problem.nu
    if float(np.min(x.values)) < nu:
        raise NonAdmissibleCoefficient("prior center violates the bound nu")
    value, grad = tikhonov_value_and_gradient(h, x, y_delta, cfg)
    memory = _LbfgsMemory(space, h.inverse_hessian(cfg))
    best, t, it = None, 1.0, 0

    while True:
        gnorm = float(np.sqrt(max(_inner_nodal(grad, grad, space), 0.0)))
        if best is None or value < best[1]:
            best = (x, value, gnorm, it)
        if gnorm * gnorm / (4.0 * cfg.alpha) <= cfg.eta:
            return _finish(x, value, gnorm, it, "converged", cfg)
        if it == cfg.max_iterations:
            return _finish(*best, "budget", cfg)
        if it - best[3] >= STALL_ITERATIONS:
            return _finish(*best, "stagnated", cfg)
        it += 1
        d = memory.direction(grad)
        t = min(1.0, 2.0 * t)
        for _ in range(MAX_HALVINGS):
            trial = x.values - t * d
            cand = GridFunction(np.maximum(trial, nu))
            move = x.values - cand.values
            decrease = _inner_nodal(grad, move, space)
            cand_value, cand_grad = tikhonov_value_and_gradient(
                h, cand, y_delta, cfg
            )
            if cand_value <= value - ARMIJO * decrease and cand_value <= value:
                break
            t *= 0.5
        else:
            raise Stalled(
                f"line search failed {MAX_HALVINGS} halvings at iteration {it}"
            )
        if np.min(trial) < nu:  # without the reduced Hessian, H0 = gamma I
            memory.h0 = None
        memory.update(-move, cand_grad - grad)
        x, value, grad = cand, cand_value, cand_grad


def _finish(x, value, gnorm, iterations, status, cfg) -> ApproximateMinimizer:
    cert = Certificate(gnorm, gnorm * gnorm / (4.0 * cfg.alpha), iterations, status)
    return ApproximateMinimizer(x, value, cert)


# ---------------------------------------------------------------------------
# orchestration


def _csv_row(values) -> str:
    """One CSV record: floats to 17 significant digits, which read back to their bits."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values)


class RegularizationRun(NamedTuple):
    problem: str
    surrogate: str
    n: int
    N: int
    delta: float
    alpha: float
    eta: float
    xi: float
    iterations: int
    gradient_norm: float
    error_X: float
    runtime_ms: float
    seed: int

    csv_row = _csv_row


#: the columns of a run's CSV record, in field order
RUN_COLUMNS = RegularizationRun._fields


def solve_inverse_problem(h: SurrogateHandle, x_true: GridFunction, y_true: GridFunction,
                          delta: float, seed: int, constant: float, xi: float,
                          max_iterations: int) -> RegularizationRun:
    """One regularized inversion, and the one place the parameter rule is
    applied: noise of level delta drawn from ``seed`` is added to the clean
    data y_true, alpha = constant * max(delta, h.rho) and eta = alpha^2
    (``choose_parameters``), the functional is minimized from the map's
    prior ``h.center`` in the space and bound of its problem, and the run
    is recorded with its X error against x_true.  ``runtime_ms`` times the
    minimization alone, not the map's first measurement of rho."""
    x_true._check_mesh(h.center.n_cells)  # before the solve, not after it
    y_delta = add_noise(y_true, delta, seed)
    alpha, eta = choose_parameters(delta, h.rho, constant)
    cfg = TikhonovConfig(alpha=alpha, eta=eta, xi=xi, max_iterations=max_iterations)
    start = time.perf_counter()
    result = minimize_tikhonov(h, y_delta, cfg)
    runtime_ms = (time.perf_counter() - start) * 1e3
    return RegularizationRun(
        problem=h.problem.value,
        surrogate=h.label,
        n=h.center.n_cells,
        N=h.n_terms,
        delta=delta,
        alpha=alpha,
        eta=eta,
        xi=xi,
        iterations=result.certificate.iterations,
        gradient_norm=result.certificate.gradient_norm,
        error_X=norm(result.x - x_true, h.problem.image_space),
        runtime_ms=runtime_ms,
        seed=seed,
    )
