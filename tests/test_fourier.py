"""Cosine coefficients and truncation error of the centered window.

The coefficient oracle is plain dense numerical integration of
G(t) cos(2 pi l t), computed here with no reference to the closed form
under test.
"""

import math

import numpy as np
import pytest

from powcorr import DomainError
from powcorr.fourier import coefficients, jackson_trend, truncation_sup
from powcorr.mollify import centered, make_outer


def coeff_oracle(G, l: int, panels: int = 200001) -> float:
    ts = np.linspace(-0.5, 0.5, panels)
    vals = G.eval_array(ts) * np.cos(2.0 * math.pi * l * ts)
    # trapezoid over one period
    return float(np.trapezoid(vals, ts))


@pytest.fixture(scope="module")
def window():
    return centered(make_outer(1.0, 64))


def test_mean_mode_vanishes(window):
    cs = coefficients(window, 8)
    assert cs[0] == 0.0


def test_coefficients_match_dense_integration(window):
    cs = coefficients(window, 12)
    for l in (1, 2, 3, 7, 12):
        assert cs[l] == pytest.approx(coeff_oracle(window, l), abs=5e-10)


def test_reconstruction_converges_pointwise():
    # ramp width 1/N^2 = 1/100, so cutoffs past a few hundred resolve it
    G = centered(make_outer(1.0, 10))
    ts = np.linspace(-0.5, 0.5, 1001)
    gv = G.eval_array(ts)
    err = []
    for L in (8, 64, 512):
        ls = np.arange(1, L + 1)
        cs = coefficients(G, L)[1:]
        pv = cs @ np.cos(2.0 * math.pi * np.outer(ls, ts)) * 2.0
        err.append(float(np.abs(gv - pv).max()))
    assert err[2] < err[0]
    assert err[2] < 1e-2


def test_truncation_sup_decreases_on_doubling(window):
    sups = [truncation_sup(window, L) for L in (16, 32, 64, 128, 256)]
    assert all(b <= a + 1e-15 for a, b in zip(sups, sups[1:]))


def test_truncation_sup_scale():
    # the ramp has width 1/N^2, so cutoffs far beyond N^2 resolve it
    G = centered(make_outer(1.0, 10))
    assert truncation_sup(G, 10 ** 3) < 5e-2


def test_cutoff_rejected_below_one(window):
    with pytest.raises(DomainError):
        coefficients(window, 0)


def test_jackson_trend_needs_three_increasing_points():
    with pytest.raises(DomainError):
        jackson_trend(1.0, (10, 20))
    with pytest.raises(DomainError):
        jackson_trend(1.0, (10, 40, 20))


def test_jackson_trend_reports_the_measured_slope():
    rep = jackson_trend(1.0, (10, 20, 40))
    assert rep.cutoffs == (10 ** 3, 20 ** 3, 40 ** 3)
    # with L = N^3 the cutoff outruns the N^2 prefactor, so the measured
    # sup shrinks as N grows
    assert rep.sups == pytest.approx(
        (1.8805643745578582e-04, 4.6513051361496416e-05,
         1.1569746773743006e-05), rel=1e-6)
    assert not rep.sups_non_decreasing
    assert rep.slope == pytest.approx(3.043569093395701, rel=1e-9)
    # decay is much faster than the envelope shape, so the fitted slope
    # exceeds the 1.15 gate and the trend check reports failure
    assert not rep.passed

