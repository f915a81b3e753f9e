import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invop.errors import PropertyViolation, WidthTooLarge
from invop.grid import GridFunction, SpaceKind, norm
from invop.mollify import (
    NORMALIZATION,
    mollification_report,
    mollifier_kernel,
    mollify,
    mollify_matrix,
)
from invop.studies import fit_slope

#: integral of exp(1/(s^2-1)) over (-1,1), computed independently by a
#: high-resolution midpoint rule during test collection
_REF_MASS = None


def _reference_mass():
    global _REF_MASS
    if _REF_MASS is None:
        m = 2_000_001
        s = (np.arange(m) + 0.5) / m * 2.0 - 1.0
        _REF_MASS = float(np.mean(np.exp(1.0 / (s * s - 1.0))) * 2.0)
    return _REF_MASS


def test_normalization_constant_against_independent_quadrature():
    assert NORMALIZATION == pytest.approx(1.0 / _reference_mass(), rel=1e-9)
    # the package stores the constant as a literal; it must be the exact
    # float that scipy's adaptive quadrature gives with these settings
    from scipy.integrate import quad

    val, _ = quad(lambda s: math.exp(1.0 / (s * s - 1.0)), -1.0, 1.0,
                  epsabs=1e-14, epsrel=1e-14)
    assert NORMALIZATION == 1.0 / val


def test_kernel_has_unit_mass_and_compact_support():
    xi = 0.07
    s = np.linspace(-xi, xi, 200001)
    mass = np.trapezoid(mollifier_kernel(xi, s), s)
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert mollifier_kernel(xi, xi) == 0.0
    assert mollifier_kernel(xi, -1.5 * xi) == 0.0


def test_kernel_symmetric_and_nonnegative():
    s = np.linspace(-0.3, 0.3, 301)
    k = mollifier_kernel(0.2, s)
    assert np.all(k >= 0.0)
    assert k == pytest.approx(k[::-1], rel=1e-9, abs=1e-12)


def test_constant_away_from_boundary_is_preserved():
    n = 256
    x = GridFunction.constant(1.0, n)
    xm = mollify(x, 0.05)
    interior = xm.values[(x.nodes > 0.1) & (x.nodes < 0.9)]
    assert interior == pytest.approx(1.0, abs=1e-6)


def test_width_bound_enforced():
    with pytest.raises(WidthTooLarge):
        mollify_matrix(64, 0.5)
    for xi in (0.0, -0.1):
        with pytest.raises(WidthTooLarge):
            mollify_matrix(64, xi)
        with pytest.raises(WidthTooLarge):
            mollifier_kernel(xi, 0.0)


def test_matrix_is_read_only():
    A = mollify_matrix(32, 0.1)
    with pytest.raises(ValueError):
        A[0, 0] = 1.0


def test_contraction_in_l2():
    n = 256
    rng = np.random.default_rng(0)
    for trial in range(5):
        x = GridFunction(rng.standard_normal(n + 1))
        for xi in (0.2, 0.05, 0.01):
            assert norm(mollify(x, xi), SpaceKind.L2) <= norm(x, SpaceKind.L2) * (1 + 1e-8)


@settings(max_examples=25, deadline=None)
@given(amp=st.floats(0.1, 5.0), freq=st.integers(1, 6))
def test_contraction_property(amp, freq):
    n = 128
    x = GridFunction.from_callable(lambda s: amp * np.sin(freq * np.pi * s), n)
    assert norm(mollify(x, 0.05), SpaceKind.L2) <= norm(x, SpaceKind.L2) * (1 + 1e-8)


def test_second_order_rate_for_flat_boundary_input():
    # input vanishing to second order at the boundary: the zero extension
    # introduces no boundary layer and the interior Taylor term dominates
    n = 512
    x = GridFunction.from_callable(lambda s: np.sin(np.pi * s) ** 2, n)
    xis = [0.25 * 2.0 ** (-k) for k in range(5)]
    errs = [norm(mollify(x, xi) - x, SpaceKind.L2) for xi in xis]
    slope, _ = fit_slope(xis, errs)
    assert 1.7 < slope < 2.3


def test_report_rows_and_monotonicity():
    n = 256
    x = GridFunction.from_callable(lambda s: np.sin(np.pi * s) ** 2, n)
    rows = mollification_report(x, [0.2, 0.1, 0.05])
    assert len(rows) == 3
    errs = [r[1] for r in rows]
    assert errs == sorted(errs, reverse=True)
    assert all(r[2] <= 1 + 1e-8 for r in rows)


def test_report_rejects_unsorted_widths():
    x = GridFunction.constant(1.0, 32)
    with pytest.raises(PropertyViolation):
        mollification_report(x, [0.05, 0.1])
