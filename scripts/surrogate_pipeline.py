#!/usr/bin/env python3
"""End-to-end surrogate demo on the reaction-coefficient problem.

Generates training pairs, orthonormalizes them into the rank-N expansion,
assembles the sigmoid branch/trunk surrogate, prints its diagnostics, and
solves one noisy inversion with each of the three forward maps.  Each row
ends with the map's own surrogate error rho, the one that the parameter
rule balances against delta: the FEM map's error on its sine-mode probes,
and the two surrogates' error on the held-out probe pair of the build.  The
diagnostics line is the build's record.

Usage: python scripts/surrogate_pipeline.py [delta]
"""

import sys

from invop import RUN_COLUMNS, FemMap, NeuralMap, RankMap, StudyConfig, solve_inverse_problem
from invop.studies import c_example_setup


def main():
    delta = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-3
    ex = c_example_setup(StudyConfig("reg_rate", problem="c", surrogate="neural"))
    ls, diag = ex.ls, ex.diag
    print(f"diagnostics: nu_N={diag.nu_N:.3e}  q_N={diag.q_N:.3e}  "
          f"r_N={diag.r_N:.3e}  rho_bound={diag.rho_bound:.3e}")

    print(",".join(RUN_COLUMNS + ("rho",)))
    for h in (FemMap(ls.problem, ls.load, ls.center[0]), RankMap(ls), NeuralMap(ex.coeffs, ls)):
        run = solve_inverse_problem(h, ex.xt, ex.y_true, delta, 7, 0.15, 1e-4, 20000)
        print(f"{run.csv_row()},{h.rho:.17g}")


if __name__ == "__main__":
    main()
