"""Quadrature and root-finding kernels.

Oracles here are closed forms: polynomial integrals, explicit roots,
and the Fresnel-free small cases of the oscillatory integral where a
dense Riemann sum is affordable.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError, DyadicRational, NumericalError, quad
from powcorr.mollify import centered, make_outer
from powcorr.probe import blocks, cond_exp_Z, pair_overlap_integral
from powcorr.quad import (DEFAULT_QUAD, QuadConfig, certify, gauss_panels,
                          gauss_rule, monotone_root, oscillatory_power_integral,
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
    # m = 0: g(x) = x^3 - 1
    r = monotone_root(3, 0, 1.0, 3.0, np.array([9.0]))
    assert r.shape == (1,)
    assert r[0] == pytest.approx(10.0 ** (1.0 / 3.0), rel=1e-14)


def test_monotone_root_accepts_endpoint_roots():
    # g(x) = x^2 - x: g(1) = 0, g(2) = 2
    r = monotone_root(2, 1, 1.0, 2.0, np.array([[0.0], [2.0]]))
    assert r.tolist() == [[1.0], [2.0]]


def test_monotone_root_clips_out_of_range_targets():
    # targets below g(lo) or above g(hi) end at the nearer end
    r = monotone_root(2, 1, 1.0, 2.0, np.array([-5.0, -1e-300, 2.5, 1e9]))
    assert r.tolist() == [1.0, 1.0, 2.0, 2.0]


@given(st.floats(min_value=1.05, max_value=2.8),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=100, deadline=None)
def test_monotone_root_inverts_powers(target_base, n):
    r = monotone_root(n, 0, 1.0, 3.0, np.array([target_base ** n - 1.0]))
    assert r[0] == pytest.approx(target_base, rel=1e-12)


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


def fraction_oscillatory_integral(l, n, m, a, b, cfg=DEFAULT_QUAD):
    """(integral, panel kinds) by the per-panel evaluation the integrator
    had before its phases moved to integers: both runs recompute every
    panel's cycle count and its phase anchors from Fraction powers."""
    edges = quad._power_panels(n, a, b)
    kinds = set()

    def phase(p):
        f = p.as_fraction()
        return float((l * (f ** n - f ** m)) % 1)

    def run(refine):
        total = 0.0 + 0.0j
        for p, q in zip(edges[:-1], edges[1:]):
            fp, fq = p.as_fraction(), q.as_fraction()
            osc = float(l * ((fq ** n - fq ** m) - (fp ** n - fp ** m)))
            pf, qf = float(p), float(q)
            if osc <= quad.DIRECT_OSC_LIMIT:
                kinds.add("direct")
                nodes = int(math.ceil(quad.NODES_PER_OSC * max(osc, 1.0))) + 16
                anchor = phase(p)
                total += gauss_panels(
                    [(pf, qf)], min(nodes * refine, 8000),
                    lambda pts: np.exp(2j * np.pi * (anchor + l * (
                        power_diff(pts, pf, n) - power_diff(pts, pf, m)))))[0]
                continue
            kinds.add("levin")
            nodes = cfg.levin_nodes + 12 * (refine - 1)
            D, t = quad._cheb(nodes - 1)
            half, mid = 0.5 * (qf - pf), 0.5 * (qf + pf)
            xs = mid + half * t
            dphi = l * (n * xs ** (n - 1) - m * xs ** (m - 1))
            M = D / half + 2j * np.pi * np.diag(dphi)
            try:
                u = np.linalg.solve(M, np.ones(nodes, dtype=complex))
            except np.linalg.LinAlgError:
                u, *_ = np.linalg.lstsq(M, np.ones(nodes, dtype=complex),
                                        rcond=None)
            e_q = np.exp(2j * np.pi * phase(q))
            e_p = np.exp(2j * np.pi * phase(p))
            total += u[0] * e_q - u[-1] * e_p
        return total

    return certify(run, 1, cfg.rel_tol, 1e-13, "oscillatory quadrature"), kinds


def _vdc_draws(count, seed):
    # (l, n, m, a, b) drawn like the vdc gate's tuples but with l up to 64,
    # n up to 20, [a, b] inside [65/64, 191/64] on the 2^-6 grid
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 20)
        ai = rng.randint(1, 120)
        gap = rng.randint(1, 127 - ai)
        yield (rng.choice((1, 2, 5, 8, 64)), n, rng.randint(1, n - 1),
               DyadicRational(64 + ai, 6), DyadicRational(64 + ai + gap, 6))


@pytest.mark.parametrize("cfg", [DEFAULT_QUAD, QuadConfig(levin_nodes=36)])
def test_oscillatory_integral_matches_fraction_panels_bit_for_bit(cfg):
    third = DyadicRational(3, 1)
    named = [((1, 2, 1, third, DyadicRational(5, 1)), {"direct"}),
             ((64, 4, 1, third, DyadicRational(2, 0)), {"levin"}),
             ((3, 6, 1, DyadicRational(65, 6), DyadicRational(150, 6)),
              {"direct", "levin"})]
    for args, want in named:
        value, kinds = fraction_oscillatory_integral(*args, cfg)
        assert kinds == want
        assert repr(oscillatory_power_integral(*args, cfg)) == repr(value)
    seen = set()
    for args in _vdc_draws(24, 10):
        value, kinds = fraction_oscillatory_integral(*args, cfg)
        seen |= kinds
        assert repr(oscillatory_power_integral(*args, cfg)) == repr(value), args
    assert seen == {"direct", "levin"}


def test_oscillatory_integral_evaluates_each_edge_phase_once(monkeypatch):
    # both doubling runs read one decomposition: one exact phase per edge
    calls = []

    def counted(c, e, n, m):
        calls.append(c)
        return real(c, e, n, m)

    real = quad.scaled_g
    monkeypatch.setattr(quad, "scaled_g", counted)
    a, b = DyadicRational(65, 6), DyadicRational(150, 6)
    oscillatory_power_integral(3, 6, 1, a, b)
    edges = quad._power_panels(6, a, b)
    assert len(edges) == 7
    e = max(x.exponent for x in edges)
    assert calls == [x.numerator << (e - x.exponent) for x in edges]


def test_scaled_g_is_exact_at_dyadic_points():
    for c, e, n, m in ((3, 1, 2, 1), (65, 6, 9, 3), (2 ** 40 + 17, 40, 20, 19)):
        x = Fraction(c, 2 ** e)
        assert quad.scaled_g(c, e, n, m) == (x ** n - x ** m) * 2 ** (e * n)


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


def test_certify_checks_arrays_element_by_element():
    # the first element whose runs disagree raises, its record holding its
    # index, its gap |fine - coarse| and its tolerance as Python floats;
    # agreeing arrays come back as the fine run
    def run(nodes):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        if nodes == 24:
            values[[1, 3]] += [1e-6, 1e-3]
        return values

    with pytest.raises(NumericalError, match=r"^window-piece quadrature, "
                       r"element 1: 1e-06 > 2e-08 \(margin 50\)$") as err:
        certify(run, 12, 1e-8, 1e-15, "window-piece quadrature")
    check = err.value.check
    assert check.what == "window-piece quadrature, element 1"
    assert check.value == (2.0 + 1e-6) - 2.0
    assert check.bound == 1e-8 * ((2.0 + 1e-6) + 1e-15)
    assert type(check.value) is float and type(check.bound) is float
    assert check.margin == check.value / check.bound > 1
    # indices count from `first`, the place of the run's first element
    with pytest.raises(NumericalError, match="element 301:"):
        certify(run, 12, 1e-8, 1e-15, "window-piece quadrature", 300)
    fine = certify(run, 12, 1e-3, 1e-15, "window-piece quadrature")
    assert fine.tolist() == run(24).tolist()


def test_certify_keeps_scalar_and_complex_runs():
    # scalar runs, real or complex (the oscillatory integrals), return the
    # fine value itself; a failure names no element and records |gap|
    assert certify(lambda s: 1.0 + 1e-12 / s, 1, 1e-8, 0.0, "x") == 1.0 + 5e-13
    value = certify(lambda s: (1 + 1j) * (1 + 1e-12 / s), 1, 1e-8, 1e-13, "x")
    assert value == (1 + 1j) * (1 + 5e-13) and type(value) is complex
    with pytest.raises(NumericalError,
                       match="^oscillatory quadrature: ") as err:
        certify(lambda s: 1j * s, 1, 1e-8, 1e-13, "oscillatory quadrature")
    assert err.value.check.what == "oscillatory quadrature"
    assert (err.value.check.value, err.value.check.bound) == (
        1.0, 1e-8 * (2.0 + 1e-13))


def test_certify_refuses_a_nan_run():
    # a NaN gap is not within any tolerance
    with pytest.raises(NumericalError, match="^x, element 1: nan > "):
        certify(lambda s: np.array([1.0, math.nan]), 1, 1e-8, 0.0, "x")
