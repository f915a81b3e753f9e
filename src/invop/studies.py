"""Convergence-rate studies: discretization, surrogate, regularization, smoothing.

Each study sweeps one resolution or level parameter over a ladder, records a
deterministic table of errors, fits a log-log slope by ordinary least
squares, and optionally writes the table as CSV.  The regularization study
emits the full per-run record described in :mod:`invop.tikhonov`; the map
it inverts brings its prior center and its measured rho, so the study
passes neither.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigInvalid, DegenerateFit, DegenerateScale
from .fem import ProblemKind, adjoint_apply, solve_forward_fem, solve_forward_reference
from .grid import GridFunction, SpaceKind, _inner_nodal, norm, trapezoid_weights
from .mollify import mollify
from .tikhonov import RUN_COLUMNS, FemMap, NeuralMap, RankMap, _csv_row, solve_inverse_problem
from .training import (
    PerturbationSpec,
    assemble_neural_surrogate,
    build_linear_surrogate,
    generate_training_set,
    quadrature_nodes,
)

STUDY_KINDS = ("fem_rate", "surrogate_error", "reg_rate", "mollify_rate")

#: the least value of each size, for a study and for the CLI commands that set it
SIZE_BOUNDS = {"n_cells": 4, "n_train": 1, "n_quad": 2, "n_trunk": 2, "max_iterations": 1}


# ---------------------------------------------------------------------------
# slope fitting


def fit_slope(x, y):
    """Least-squares slope (and its standard error) of log y against log x.

    Only strictly positive pairs enter the fit; fewer than three of them, or
    a ladder without spread in x, raises DegenerateFit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if int(np.count_nonzero(keep)) < 3:
        raise DegenerateFit("need at least three positive points for a slope")
    lx, ly = np.log(x[keep]), np.log(y[keep])
    if np.ptp(lx) == 0.0:
        raise DegenerateFit("all abscissae coincide")
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = lx.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        stderr = math.sqrt(s2 / float(np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# configuration and result table


@dataclass(frozen=True)
class StudyConfig:
    study: str
    problem: str = "a"  # "a" or "c"
    ladder: tuple = ()
    surrogate: str = "fem"  # reg_rate only: "fem" | "rank" | "neural"
    n_cells: int = 256
    n_train: int = 6
    n_quad: int = 512  # branch sample count for the neural surrogate
    n_trunk: int = 14
    seed: int = 0
    constant: float = 1.0  # parameter-choice constant
    xi: float = 0.0
    max_iterations: int = 20000
    jobs: int = 1  # kept so that existing configs parse; takes only 1
    out: Optional[str] = None

    def __post_init__(self):
        # a field with an int default takes an integer, one with a float
        # default a finite real number; neither takes a bool
        for f in fields(self):
            v, kind = getattr(self, f.name), type(f.default)
            if kind in (int, float) and (isinstance(v, bool) or not isinstance(v, (int, kind))
                                         or not -math.inf < v < math.inf):
                word = "an integer" if kind is int else "a finite real number"
                raise ConfigInvalid(f"{f.name} must be {word}, not {v!r}")
        if self.study not in STUDY_KINDS:
            raise ConfigInvalid(f"unknown study {self.study!r}; choose from {STUDY_KINDS}")
        if self.problem not in ("a", "c"):
            raise ConfigInvalid("problem must be 'a' or 'c'")
        if self.surrogate not in ("fem", "rank", "neural"):
            raise ConfigInvalid("surrogate must be fem, rank or neural")
        if self.study == "reg_rate" and (self.problem == "a") != (self.surrogate == "fem"):
            raise ConfigInvalid(
                "reg_rate runs problem 'a' with surrogate 'fem' and problem 'c' "
                f"with 'rank' or 'neural', not {self.problem!r} with {self.surrogate!r}"
            )
        lad = tuple(self.ladder) if len(self.ladder) else self.default_ladder()
        object.__setattr__(self, "ladder", lad)
        if len(lad) < 4:
            raise ConfigInvalid("ladder needs at least four points for a rate fit")
        increasing = all(b > a for a, b in zip(lad, lad[1:]))
        decreasing = all(b < a for a, b in zip(lad, lad[1:]))
        if not (increasing or decreasing):
            raise ConfigInvalid("ladder must be strictly monotone")
        if not all(0 < v < math.inf for v in lad):
            raise ConfigInvalid("ladder entries must be positive and finite")
        if self.study in ("fem_rate", "surrogate_error") and not all(
                float(v).is_integer() for v in lad):
            raise ConfigInvalid(f"the {self.study} ladder counts cells, so each entry must "
                                f"be an integer, not {lad!r}")
        for name, low in SIZE_BOUNDS.items():
            if getattr(self, name) < low:
                raise ConfigInvalid(f"{name} must be at least {low}, not {getattr(self, name)}")
        if self.study == "reg_rate" and self.problem == "c" and self.n_quad < self.n_cells:
            # a branch with fewer sensors than cells misses nodal values
            raise ConfigInvalid(f"n_quad = {self.n_quad} is below n_cells = {self.n_cells}; "
                                "a c reg_rate study needs n_quad >= n_cells")
        if self.constant <= 0:
            raise ConfigInvalid(f"constant must be positive, not {self.constant!r}")
        if not 0 <= self.xi < 0.5:
            raise ConfigInvalid(f"xi must be in [0, 0.5), the widths that fit, not {self.xi!r}")
        if self.jobs != 1:
            raise ConfigInvalid("jobs takes only 1: studies run serially")

    def default_ladder(self) -> tuple:
        if self.study == "fem_rate":
            return (16, 32, 64, 128, 256)
        if self.study == "surrogate_error":
            return (8, 16, 32, 64, 128)
        if self.study == "reg_rate":
            ks = range(3, 10) if self.problem == "a" else range(3, 9)
            return tuple(0.1 * 2.0 ** (-k) for k in ks)
        return tuple(0.25 * 2.0 ** (-k) for k in range(5))


class RateTable(NamedTuple):
    columns: tuple
    rows: tuple
    fitted_slope: float
    slope_stderr: float
    case_slopes: tuple = ()

    def csv_lines(self):
        yield ",".join(self.columns)
        for r in self.rows:
            yield r if isinstance(r, str) else _csv_row(r)


def _write_table(path, table: RateTable, note: str = ""):
    lines = list(table.csv_lines())
    if note:
        lines.append(f"# {note}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# the three analytic discretization cases


#: refinement used to evaluate the continuous L2 distance to an exact solution
_FINE_CELLS = 2048


def analytic_cases():
    """(label, problem, coefficient, load, exact solution) with closed-form
    solutions, given as callables so each mesh size samples them afresh."""
    return [
        (
            "a-flat",
            ProblemKind.A_EXAMPLE,
            lambda s: np.ones_like(s),
            lambda s: np.pi ** 2 * np.sin(np.pi * s),
            lambda s: np.sin(np.pi * s),
        ),
        (
            "a-ramp",
            ProblemKind.A_EXAMPLE,
            lambda s: 1.0 + s,
            lambda s: 1.0 + 4.0 * s,
            lambda s: s * (1.0 - s),
        ),
        (
            "c-flat",
            ProblemKind.C_EXAMPLE,
            lambda s: np.ones_like(s),
            lambda s: (np.pi ** 2 + 1.0) * np.sin(np.pi * s),
            lambda s: np.sin(np.pi * s),
        ),
    ]


def _fem_case_error(case, n: int) -> float:
    """Continuous L2 distance of the piecewise-linear Galerkin solution to the
    exact solution, measured on a fine reference mesh (the nodal values alone
    can be superconvergent and hide the interpolation error)."""
    label, prob, x, f, y_exact = case
    xn = GridFunction.from_callable(x, n)
    fn = GridFunction.from_callable(f, n)
    y = solve_forward_fem(prob, xn, fn)
    fine = GridFunction.from_callable(y_exact, _FINE_CELLS)
    return norm(y.resample(_FINE_CELLS) - fine, SpaceKind.L2)


# ---------------------------------------------------------------------------
# study bodies


def _run_fem_rate(cfg: StudyConfig, rows: list):
    slopes = []
    errs_by_case = {}
    for n in cfg.ladder:
        for case in analytic_cases():
            e = _fem_case_error(case, int(n))
            rows.append((case[0], int(n), e))
            errs_by_case.setdefault(case[0], []).append(e)
    for label, errs in errs_by_case.items():
        slopes.append((label,) + fit_slope([float(v) for v in cfg.ladder], errs))
    worst = max(slopes, key=lambda t: t[1])  # slope closest to zero
    return ("case", "n", "error_L2"), worst[1], worst[2], tuple(slopes)


def _smooth_integrands():
    """Products coefficient * basis direction as they appear inside the
    branch functionals, all smooth on [0, 1]."""
    return [
        lambda s: (1.0 + 0.1 * np.sin(2.0 * np.pi * s)) * np.sin(np.pi * s),
        lambda s: np.exp(s) * np.sin(2.0 * np.pi * s),
        lambda s: s * (1.0 - s) * np.cos(np.pi * s),
        lambda s: 1.0 / (1.0 + s * s),
    ]


def _run_surrogate_error(cfg: StudyConfig, rows: list):
    integrands = _smooth_integrands()
    fine = quadrature_nodes(1 << 16)
    fine_w = trapezoid_weights(1 << 16)
    # exactly rounded; np.dot would split this long sum by the BLAS thread count
    refs = [math.fsum(fine_w * g(fine)) for g in integrands]
    errs = []
    for n_k in cfg.ladder:
        nodes = quadrature_nodes(int(n_k))
        w = trapezoid_weights(int(n_k))
        e = max(
            abs(float(np.dot(w, g(nodes))) - ref)
            for g, ref in zip(integrands, refs)
        )
        rows.append((int(n_k), e))
        errs.append(e)
    slope, stderr = fit_slope([float(v) for v in cfg.ladder], errs)
    return ("n_quad", "quad_error"), slope, stderr, ()


def source_target_a(prob, x0, f):
    """Target with a genuine source representation: prior offset equal to the
    adjoint of a step load, scaled to a 0.2 amplitude.  A zero adjoint (a
    zero load) raises DegenerateScale."""
    w = GridFunction(np.where(x0.nodes > 0.5, 1.0, 0.0))
    g = adjoint_apply(prob, x0, w, f)
    peak = np.max(np.abs(g.values))
    if peak == 0.0:
        raise DegenerateScale("the source direction is zero (a zero load): no target")
    return x0 + (0.2 / peak) * g


def source_target_c(ls):
    """Target whose coefficients along the training span track the surrogate
    spectrum, confined to the three best-resolved directions, around the
    training center."""
    sig = np.array([math.sqrt(_inner_nodal(y, y, SpaceKind.L2)) for y in ls.induced])
    coef = np.zeros(len(ls.basis))
    m = min(3, len(ls.basis))
    coef[:m] = sig[:m] * np.array([1.0, -1.0, 1.0])[:m]
    gp = sum(c * b for c, b in zip(coef, ls.basis))
    gp *= 0.08 / np.max(np.abs(gp))
    return GridFunction(ls.center[0].values + gp)


#: the c-example inversion setup that ``c_example_setup`` returns; its
#: problem, load and prior center are those of the expansion ``ls``
CExample = namedtuple("CExample", "ls xt y_true coeffs diag")


def _read_only(ls, *functions: GridFunction):
    """Make the memoized expansion and functions unwritable."""
    for a in (ls.basis, ls.induced,
              *(g.values for g in (ls.load, *ls.center, *sum(ls.probes, ()), *functions))):
        a.flags.writeable = False


@lru_cache(maxsize=8)
def _c_example_data(n_cells: int, n_train: int):
    """The seed-free part of the c-example (load 50, prior center 1), shared by
    every study of the process with these sizes: (ls, xt, y_true), all read-only."""
    prob = ProblemKind.C_EXAMPLE
    f = GridFunction.constant(50.0, n_cells)
    x0 = GridFunction.constant(1.0, n_cells)
    ts = generate_training_set(prob, f, x0, PerturbationSpec(0.1, n_train))
    ls = build_linear_surrogate(ts)
    xt = source_target_c(ls)
    y_true = solve_forward_reference(prob, xt, f)
    _read_only(ls, xt, y_true)  # f is the load of ls
    return ls, xt, y_true


def c_example_setup(cfg: StudyConfig) -> CExample:
    """The c-example built from the config's sizes and seed; its probe pair
    (the mix of the unit modes at amplitude 0.1 around x0) is that of ``ls``,
    solved once per process.  Only the trunk fits depend on the seed."""
    ls, xt, y_true = _c_example_data(cfg.n_cells, cfg.n_train)
    coeffs, diag = assemble_neural_surrogate(ls, cfg.n_quad, cfg.n_trunk, cfg.seed + 1)
    return CExample(ls, xt, y_true, coeffs, diag)


@lru_cache(maxsize=8)
def _a_example_data(n_cells: int):
    """The a-example setup, which no seed enters, shared by every study of the
    process on this mesh: (xt, FEM map, y_true), all read-only; the map keeps its rho."""
    prob = ProblemKind.A_EXAMPLE
    f = GridFunction.constant(1.0, n_cells)
    x0 = GridFunction.constant(1.0, n_cells)
    xt = source_target_a(prob, x0, f)
    y_true = solve_forward_reference(prob, xt, f)
    h = FemMap(prob, f, x0)
    _read_only(h.ls, xt, y_true)
    return xt, h, y_true


def _run_reg_rate(cfg: StudyConfig, rows: list):
    deltas = [float(d) for d in cfg.ladder]
    if cfg.problem == "a":
        xt, h, y_true = _a_example_data(cfg.n_cells)
    else:
        ex = c_example_setup(cfg)
        xt, y_true = ex.xt, ex.y_true
        h = RankMap(ex.ls) if cfg.surrogate == "rank" else NeuralMap(ex.coeffs, ex.ls)

    runs = []
    for i, d in enumerate(deltas):
        r = solve_inverse_problem(h, xt, y_true, d, cfg.seed + 100 + i, cfg.constant, cfg.xi,
                                  cfg.max_iterations)
        runs.append(r)
        rows.append(r.csv_row())

    slope, stderr = fit_slope(deltas, [r.error_X for r in runs])
    return RUN_COLUMNS, slope, stderr, ()


def _run_mollify_rate(cfg: StudyConfig, rows: list):
    n = cfg.n_cells
    x = GridFunction.from_callable(lambda s: np.sin(np.pi * s) ** 2, n)
    errs = []
    for xi in cfg.ladder:
        e = norm(mollify(x, float(xi)) - x, SpaceKind.L2)
        rows.append((float(xi), e))
        errs.append(e)
    slope, stderr = fit_slope([float(v) for v in cfg.ladder], errs)
    return ("xi", "error_L2"), slope, stderr, ()


_BODIES = {
    "fem_rate": _run_fem_rate,
    "surrogate_error": _run_surrogate_error,
    "reg_rate": _run_reg_rate,
    "mollify_rate": _run_mollify_rate,
}


def run_study(cfg: StudyConfig) -> RateTable:
    """Execute the configured study; on failure the rows completed so far are
    still written, with an ``# aborted: ...`` note, before the error propagates."""
    body = _BODIES[cfg.study]
    rows: list = []
    try:
        columns, slope, stderr, case_slopes = body(cfg, rows)
    except Exception as err:
        if cfg.out:
            table = RateTable(("partial",), tuple(rows), float("nan"), float("nan"))
            _write_table(cfg.out, table, f"aborted: {type(err).__name__}: {err}")
        raise
    table = RateTable(tuple(columns), tuple(rows), slope, stderr, case_slopes)
    if cfg.out:
        _write_table(cfg.out, table)
    return table
