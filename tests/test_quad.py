"""Quadrature and root-finding kernels.

Oracles here are closed forms: polynomial integrals, explicit roots,
and the Fresnel-free small cases of the oscillatory integral where a
dense Riemann sum is affordable.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError, NumericalError
from powcorr.mollify import centered, make_outer
from powcorr.probe import blocks, cond_exp_Z, pair_overlap_integral
from powcorr.quad import (DEFAULT_QUAD, QuadConfig, gauss_panels, gauss_rule,
                          monotone_root, oscillatory_power_integral,
                          power_diff)


def test_gauss_rule_integrates_polynomials_exactly():
    # an n-node rule is exact through degree 2n - 1
    xs, ws = gauss_rule(6)
    for deg in range(0, 12):
        num = float((ws * xs ** deg).sum())
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert num == pytest.approx(exact, abs=1e-14)
    # the compound rule: one call of f on every panel's nodes at once
    panels = [(-1.0, 0.25), (0.25, 2.0), (2.0, 3.5)]
    shapes = []

    def power(deg):
        def f(x):
            shapes.append(x.shape)
            return x ** deg
        return f

    for deg in range(0, 12):
        got = gauss_panels(panels, 6, power(deg))
        want = [(b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
                for a, b in panels]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14)
    assert shapes == [(3, 6)] * 12
    assert gauss_panels([], 6, power(1)) == []
    assert len(shapes) == 12


def test_monotone_root_explicit_cube_root():
    r = monotone_root(lambda x: x ** 3, lambda x: 3 * x * x,
                      10.0, 1.0, 3.0)
    assert r == pytest.approx(10.0 ** (1.0 / 3.0), rel=1e-14)


def test_monotone_root_accepts_endpoint_roots():
    g = lambda x: x * x
    dg = lambda x: 2 * x
    assert monotone_root(g, dg, 1.0, 1.0, 2.0) == 1.0
    assert monotone_root(g, dg, 4.0, 1.0, 2.0) == 2.0


def test_monotone_root_rejects_unbracketed_targets():
    with pytest.raises(DomainError):
        monotone_root(lambda x: x, lambda x: 1.0, 5.0, 0.0, 1.0)


@given(st.floats(min_value=1.05, max_value=2.8),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=100, deadline=None)
def test_monotone_root_inverts_powers(target_base, n):
    target = target_base ** n
    r = monotone_root(lambda x: x ** n, lambda x: n * x ** (n - 1),
                      target, 1.0, 3.0)
    assert r == pytest.approx(target_base, rel=1e-12)


def test_power_diff_matches_direct_evaluation():
    xs = np.linspace(1.25, 2.75, 11)
    assert np.allclose(power_diff(xs, 1.0, 5), xs ** 5 - 1.0, rtol=1e-13)


def test_power_diff_avoids_cancellation_near_the_anchor():
    p = 1.5
    x = p + 1e-13
    # direct subtraction loses most digits here; the anchored form keeps
    # them (exact first-order value n * p^(n-1) * (x - p))
    expected = 9 * p ** 8 * 1e-13
    assert float(power_diff(np.array([x]), p, 9)[0]) == pytest.approx(
        expected, rel=1e-2)


def dense_oscillatory_oracle(l, n, m, a, b, steps=4_000_001):
    ts = np.linspace(a, b, steps)
    phases = np.exp(2j * math.pi * l * (ts ** n - ts ** m))
    return complex(np.trapezoid(phases, ts))


def test_oscillatory_integral_matches_dense_riemann_small_case():
    val = oscillatory_power_integral(1, 2, 1, 1.5, 2.5)
    oracle = dense_oscillatory_oracle(1, 2, 1, 1.5, 2.5)
    assert abs(val - oracle) < 1e-8


def test_oscillatory_integral_matches_dense_riemann_higher_power():
    val = oscillatory_power_integral(2, 3, 1, 1.25, 2.0)
    oracle = dense_oscillatory_oracle(2, 3, 1, 1.25, 2.0)
    assert abs(val - oracle) < 1e-8


def test_oscillatory_integral_levin_regime_decays():
    # gamma grows like l * n * a^(n-1), so the integral must shrink
    lo = abs(oscillatory_power_integral(1, 4, 1, 1.5, 2.0))
    hi = abs(oscillatory_power_integral(64, 4, 1, 1.5, 2.0))
    assert hi < lo / 8.0


def test_oscillatory_integral_domain_errors():
    with pytest.raises(DomainError):
        oscillatory_power_integral(1, 2, 1, 0.5, 2.0)
    with pytest.raises(DomainError):
        oscillatory_power_integral(0, 2, 1, 1.5, 2.0)
    with pytest.raises(DomainError):
        oscillatory_power_integral(1, 1, 1, 1.5, 2.0)


def test_quad_config_validates():
    with pytest.raises(DomainError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(levin_nodes=4)


def test_impossible_tolerance_raises_numerical_error():
    # a doubling certificate cannot hold at 1e-30 for a genuinely
    # oscillatory integrand, nor for the window-piece and overlap
    # quadratures, so every scheme must refuse, not lie
    strict = QuadConfig(rel_tol=1e-30)
    with pytest.raises(NumericalError, match="oscillatory quadrature"):
        oscillatory_power_integral(5, 6, 1, 1.5, 2.5, cfg=strict)
    G = centered(make_outer(1.0, 1024))
    with pytest.raises(NumericalError, match="window-piece quadrature"):
        cond_exp_Z(Fraction(3, 2), 1, blocks(1024), G, 0, quad_cfg=strict)
    with pytest.raises(NumericalError, match="overlap quadrature"):
        pair_overlap_integral(8, 6, 2, Fraction(3, 2), make_outer(1, 100),
                              quad_cfg=strict)
