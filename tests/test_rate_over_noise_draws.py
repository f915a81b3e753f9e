"""The rate the paper claims, judged on the converged minimizer over many
noise draws.  One draw per noise level moves the fitted slope by more than
the gate allows from seed to seed; the median error over 20 draws per level
holds it still (Engl, Hanke & Neubauer, *Regularization of Inverse
Problems*, 1996, repeat noise realizations for this reason)."""

from pathlib import Path

import numpy as np

from invop.config import load_config, study_config
from invop.grid import norm
from invop.studies import c_example_setup, fit_slope, run_study
from invop.tikhonov import (RUN_COLUMNS, RankMap, TikhonovConfig, add_noise, choose_parameters,
                            minimize_tikhonov, surrogate_error)

ROOT = Path(__file__).resolve().parents[1]

#: noise draws per level, and criterion 3's gate on the slope
DRAWS = 20
GATE = (0.35, 0.65)


def test_median_error_over_twenty_draws_falls_at_the_claimed_rate():
    """The c study of configs/reg_rate_c.cfg (seed 100, its ladder) through
    the rank map.  Draw j at level index i uses noise seed
    seed + 100 + i + 1000 j, so draw 0 is the study's own.  The slope of the
    median error over the draws lies in the gate, and every solve converges.
    Measured: 0.5489, against 0.6281 for draw 0 alone; study seeds 0 and 7
    give 0.5180 and 0.5969."""
    sec = load_config(ROOT / "configs" / "reg_rate_c.cfg")
    sec["study"]["surrogate"] = "rank"
    study = study_config(sec)
    assert study.seed == 100
    ex = c_example_setup(study)
    h = RankMap(ex.ls)
    rho = surrogate_error(h, ex.ls.probes)
    rows = run_study(study).rows
    medians = []
    for i, (delta, row) in enumerate(zip(study.ladder, rows)):
        alpha, eta = choose_parameters(delta, rho, study.constant)
        cfg = TikhonovConfig(alpha, eta, study.xi, study.max_iterations)
        errors = []
        for j in range(DRAWS):
            noisy = add_noise(ex.y_true, delta, study.seed + 100 + i + 1000 * j)
            res = minimize_tikhonov(h, noisy, cfg)
            assert res.certificate.status == "converged", (delta, j, res.certificate)
            errors.append(norm(res.x - ex.xt, h.problem.image_space))
        assert errors[0] == float(row.split(",")[RUN_COLUMNS.index("error_X")])
        medians.append(float(np.median(errors)))
    slope, _ = fit_slope(study.ladder, medians)
    assert GATE[0] <= slope <= GATE[1], slope
