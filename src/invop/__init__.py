"""Regularized inversion of 1-D elliptic coefficients with learned surrogates.

The package solves coefficient identification problems for two-point
boundary value problems by Tikhonov regularization, where the forward map
inside the functional may be the Galerkin solver itself, a rank-N linear
expansion built from training pairs, or a branch/trunk sigmoid operator
initialized from that expansion.
"""

import os
import sys

# OpenBLAS's thread pool costs every fresh process about 60 ms, and no BLAS call
# here is long enough to gain from it: unless numpy is loaded or the caller chose
# a count, load it with one thread, and leave the variable set for child processes.
if "numpy" not in sys.modules and not any(
        os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import (
    ConfigInvalid,
    DegenerateFit,
    DegenerateScale,
    DependentImages,
    DimensionMismatch,
    EmptyProbeSet,
    IllConditionedFit,
    InvopError,
    NonAdmissibleCoefficient,
    NonAdmissiblePerturbation,
    NonFiniteValue,
    PropertyViolation,
    SingularSystem,
    Stalled,
    WidthTooLarge,
)
from .fem import (
    REFERENCE_CELLS,
    ProblemKind,
    adjoint_apply,
    derivative_apply,
    solve_forward_fem,
    solve_forward_reference,
)
from .grid import GridFunction, SpaceKind, inner, norm, trapezoid_weights
from .mollify import mollification_report, mollifier_kernel, mollify, mollify_matrix
from .neural import StructuredSurrogateCoeffs, eval_branch, eval_structured_with_gradient, eval_trunk
from .studies import RateTable, StudyConfig, fit_slope, run_study
from .tikhonov import (
    RUN_COLUMNS,
    ApproximateMinimizer,
    Certificate,
    FemMap,
    NeuralMap,
    RankMap,
    RegularizationRun,
    SurrogateHandle,
    TikhonovConfig,
    add_noise,
    choose_parameters,
    minimize_tikhonov,
    solve_inverse_problem,
    surrogate_error,
    tikhonov_value_and_gradient,
)
from .training import (
    LinearSurrogate,
    PerturbationSpec,
    SurrogateDiagnostics,
    TrainingSet,
    assemble_neural_surrogate,
    build_linear_surrogate,
    estimate_nu_N,
    generate_training_set,
    gram_schmidt,
    perturbation_shape,
)

__version__ = "0.1.0"
