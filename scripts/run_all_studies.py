#!/usr/bin/env python3
"""Run the five headline convergence-rate studies and write their CSV tables.

Usage: python scripts/run_all_studies.py [outdir]

Runs the studies of configs/fem_rate.cfg, quadrature_rate.cfg,
mollify_rate.cfg, reg_rate_a.cfg and reg_rate_c.cfg, writes each table to
<name>.csv in the output directory (default ./results) and prints one
summary line per study.
"""

import sys
import time
from pathlib import Path

from invop import run_study
from invop.config import load_config, study_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STUDIES = ("fem_rate", "quadrature_rate", "mollify_rate", "reg_rate_a", "reg_rate_c")


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in STUDIES:
        cfg = study_config(load_config(CONFIGS / f"{name}.cfg"), out=outdir / f"{name}.csv")
        start = time.perf_counter()
        table = run_study(cfg)
        elapsed = time.perf_counter() - start
        print(f"{name:16s} slope {table.fitted_slope:+.3f} "
              f"(stderr {table.slope_stderr:.2g}) "
              f"{len(table.rows)} rows  {elapsed:.1f}s  -> {cfg.out}")


if __name__ == "__main__":
    main()
