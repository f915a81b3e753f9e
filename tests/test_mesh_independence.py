"""Mesh independence (Allgower, Böhmer, Potra & Rheinboldt, SIAM J. Numer.
Anal. 23, 1986): the optimizer takes every inner product in the problem's
function space X, so the iterations a study takes, and the surrogate error
the rank map measures, should not depend on the mesh.  The single-mesh
benchmark cannot see a change that breaks this."""

from dataclasses import replace
from pathlib import Path

import pytest

from invop.config import load_config, study_config
from invop.studies import c_example_setup, run_study
from invop.tikhonov import RUN_COLUMNS, RankMap, surrogate_error

ROOT = Path(__file__).resolve().parents[1]
MESHES = (64, 256, 1024)
#: fixed before the run: each study's total iterations stay within 15% of
#: its n = 256 value, and the rank map's rho within 1%
ITERATIONS_TOL, RHO_TOL = 0.15, 0.01


def _study(name: str, surrogate: str, seed: int):
    sec = load_config(ROOT / "configs" / name)
    sec["study"]["surrogate"] = surrogate
    return study_config(sec, seed=seed)


#: the a study of configs/reg_rate_a.cfg at seed 0 through the FEM map, and
#: the c study of configs/reg_rate_c.cfg at seed 100 through each surrogate
STUDIES = {"a fem": ("reg_rate_a.cfg", "fem", 0), "c rank": ("reg_rate_c.cfg", "rank", 100),
           "c neural": ("reg_rate_c.cfg", "neural", 100)}


@pytest.mark.parametrize("label", STUDIES)
def test_study_iterations_do_not_depend_on_the_mesh(label):
    """Measured: a 20, 19, 19; c rank 6, 6, 6; c neural 36, 40, 37 at
    n = 64, 256, 1024.  The a gradient without its H1 Riesz map takes 414,
    276 and 246."""
    study = _study(*STUDIES[label])
    col = RUN_COLUMNS.index("iterations")
    totals = {}
    for n in MESHES:
        rows = run_study(replace(study, n_cells=n, n_quad=max(512, n))).rows
        totals[n] = sum(int(row.split(",")[col]) for row in rows)
    for n in MESHES:
        assert abs(totals[n] - totals[256]) <= ITERATIONS_TOL * totals[256], totals


def test_rank_rho_does_not_depend_on_the_mesh():
    """Measured: 1.3824e-4, 1.3832e-4 and 1.3832e-4 at n = 64, 256, 1024.
    The neural map's rho is not gated: at n = 64 its 512 sensors resample
    a coarse input, and it reads 9% below its n = 256 value."""
    study = _study("reg_rate_c.cfg", "rank", 100)
    rho = {}
    for n in MESHES:
        ls = c_example_setup(replace(study, n_cells=n, n_quad=max(512, n))).ls
        rho[n] = surrogate_error(RankMap(ls), ls.probes)
    for n in MESHES:
        assert abs(rho[n] - rho[256]) <= RHO_TOL * rho[256], rho
