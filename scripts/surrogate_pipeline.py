#!/usr/bin/env python3
"""End-to-end surrogate demo on the reaction-coefficient problem.

Generates training pairs, orthonormalizes them into the rank-N expansion,
assembles the sigmoid branch/trunk surrogate, prints its diagnostics, and
solves one noisy inversion with each of the three forward maps.

Usage: python scripts/surrogate_pipeline.py [delta]
"""

import sys

from invop import (
    RUN_COLUMNS,
    FemMap,
    NeuralMap,
    RankMap,
    StudyConfig,
    TikhonovConfig,
    add_noise,
    choose_parameters,
    fem_rho,
    solve_inverse_problem,
)
from invop.studies import c_example_setup


def main():
    delta = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-3
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    prob, f, x0, xt, diag = ex.problem, ex.load, ex.x0, ex.xt, ex.diag
    n = x0.n_cells
    print(f"diagnostics: nu_N={diag.nu_N:.3e}  q_N={diag.q_N:.3e}  "
          f"r_N={diag.r_N:.3e}  rho_bound={diag.rho_bound:.3e}")

    yd = add_noise(ex.y_true, delta, seed=7)
    # each map with its own surrogate error: the rank map has no sigmoid errors
    maps = [
        (FemMap(prob, f, n), fem_rho(prob, n, 50.0, 1.0)),
        (RankMap(ex.ls), diag.nu_N),
        (NeuralMap(ex.coeffs, ex.ls.center), diag.rho_bound),
    ]
    print(",".join(RUN_COLUMNS))
    for h, rho in maps:
        alpha, eta = choose_parameters(delta, rho, 0.15)
        cfg = TikhonovConfig(alpha=alpha, delta=delta, eta=eta, xi=1e-4,
                             x0=x0, space=prob.image_space, nu=prob.nu,
                             max_iterations=20000, x_true=xt)
        print(solve_inverse_problem(h, yd, cfg, seed=7, problem_label="c").csv_row())


if __name__ == "__main__":
    main()
