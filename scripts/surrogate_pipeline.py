#!/usr/bin/env python3
"""End-to-end surrogate demo on the reaction-coefficient problem.

Generates training pairs, orthonormalizes them into the rank-N expansion,
assembles the sigmoid branch/trunk surrogate, prints its diagnostics, and
solves one noisy inversion with each of the three forward maps.

Usage: python scripts/surrogate_pipeline.py [delta]
"""

import sys

from invop import RUN_COLUMNS, FemMap, StudyConfig, fem_rho, solve_inverse_problem, surrogate_map
from invop.studies import C_CENTER, C_LOAD, c_example_setup


def main():
    delta = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-3
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    ls, diag, x0 = ex.ls, ex.diag, ex.ls.center[0]
    print(f"diagnostics: nu_N={diag.nu_N:.3e}  q_N={diag.q_N:.3e}  "
          f"r_N={diag.r_N:.3e}  rho_bound={diag.rho_bound:.3e}")

    # each map with its own surrogate error
    maps = [(FemMap(ls.problem, ls.load), fem_rho(ls.problem, x0.n_cells, C_LOAD, C_CENTER))] + [
        surrogate_map(kind, ls, diag, ex.coeffs) for kind in ("rank", "neural")]
    print(",".join(RUN_COLUMNS))
    for h, rho in maps:
        run = solve_inverse_problem(h, rho, x0, ex.xt, ex.y_true, delta, 7, 0.15, 1e-4, 20000)
        print(run.csv_row())


if __name__ == "__main__":
    main()
