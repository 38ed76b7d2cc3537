"""Window function hypotheses, exact moments, and the sandwich property."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError
from powcorr.mollify import (CenteredMollifier, Mollifier, centered,
                             make_inner, make_outer, verify_hypotheses,
                             window_fraction)


def chi_indicator(t: float, s: float, N: int) -> float:
    """The raw window indicator 1[|t mod 1, centered| <= s/N]."""
    u = t - math.floor(t)
    d = min(u, 1.0 - u)
    return 1.0 if d <= s / N else 0.0


def test_integral_is_exactly_two_p_plus_delta():
    for N in (10, 100, 1000):
        for s in (0.5, 1.0, 2.0):
            for maker in (make_inner, make_outer):
                F = maker(s, N)
                assert F.integral == 2 * F.p + F.delta


def test_outer_dominates_indicator_and_inner_is_dominated():
    rng = random.Random(12)
    for N in (50, 500):
        s = 1.0
        Fi = make_inner(s, N)
        Fo = make_outer(s, N)
        for _ in range(2000):
            t = rng.random()
            chi = chi_indicator(t, s, N)
            assert Fi.eval(t) <= chi + 1e-15
            assert chi <= Fo.eval(t) + 1e-15


def test_eval_array_matches_scalar_eval():
    F = make_outer(1.0, 64)
    ts = np.linspace(-0.5, 1.5, 701)
    vec = F.eval_array(ts)
    scal = np.array([F.eval(float(t)) for t in ts])
    assert np.array_equal(vec, scal)


def test_plateau_and_support_edges():
    F = make_outer(1.0, 100)
    assert F.eval(float(F.p_f) * 0.999) == 1.0
    assert F.eval(float(F.edge_f) * 1.001) == 0.0


def test_derivative_bound_holds_on_ramp():
    F = make_outer(2.0, 250)
    ts = np.linspace(float(F.p_f), float(F.edge_f), 4001)[1:-1]
    slopes = np.abs(np.diff(F.eval_array(ts)) / np.diff(ts))
    assert slopes.max() <= F.deriv_sup * (1.0 + 1e-9)


def test_hypotheses_pass_for_both_flavors():
    for N in (10, 100, 1000):
        for maker in (make_inner, make_outer):
            report = verify_hypotheses(maker(1.0, N))
            assert report.all_pass, [c for c in report.checks if not c.passed]


def test_centered_mean_is_the_integral():
    F = make_outer(1.0, 128)
    G = centered(F)
    assert G.mean == F.integral
    # quadrature of G over one period vanishes to rounding
    ts = np.linspace(0.0, 1.0, 200001)[:-1]
    assert abs(G.eval_array(ts).mean()) < 1e-6


def test_window_fraction_exactness():
    assert window_fraction(0.5) == Fraction(1, 2)
    assert window_fraction(Fraction(3, 4)) == Fraction(3, 4)
    with pytest.raises(DomainError):
        window_fraction(-1.0)


def test_small_n_is_rejected_when_window_cannot_fit():
    with pytest.raises(DomainError):
        make_outer(2.0, 4)


@given(st.floats(min_value=0.1, max_value=3.0),
       st.integers(min_value=20, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_sandwich_property_random_windows(s, N):
    Fi = make_inner(s, N)
    Fo = make_outer(s, N)
    rng = random.Random(int(s * 1000) + N)
    for _ in range(50):
        t = rng.uniform(-0.6, 0.6)
        chi = chi_indicator(t, s, N)
        assert Fi.eval(t) - 1e-15 <= chi <= Fo.eval(t) + 1e-15


def unblocked_eval(F: Mollifier, ts) -> np.ndarray:
    """eval_array's formula on the whole input at once."""
    ts = np.asarray(ts, dtype=np.float64)
    u = np.abs(ts - np.round(ts))
    v = np.clip((u - F.p_f) / F.delta_f, 0.0, 1.0)
    vals = 1.0 - v * v * (3.0 - 2.0 * v)
    return np.where(u >= F.edge_f, 0.0, np.where(u <= F.p_f, 1.0, vals))


def test_blockwise_eval_array_matches_the_unblocked_formula():
    from powcorr.mollify import EVAL_BLOCK
    F = make_outer(1.0, 1000)
    rng = np.random.default_rng(5)
    for size in (1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1,
                 2 * EVAL_BLOCK + 3):
        # ramp points on both sides, far points and exact edges
        ts = rng.uniform(-2.5e-3, 2.5e-3, size) + rng.integers(-2, 3, size)
        ts[::7] = F.edge_f
        ts[1::11] = -F.p_f
        got = F.eval_array(ts)
        assert got.shape == ts.shape
        assert got.tobytes() == unblocked_eval(F, ts).tobytes()
    grid = rng.uniform(-1.0, 1.0, (3, EVAL_BLOCK + 5))
    for ts in (grid, grid[:, ::2], grid.T):          # 2-d, strided
        got = F.eval_array(ts)
        assert got.shape == ts.shape
        assert got.tobytes() == unblocked_eval(F, ts).tobytes()
    for t in (0.0, F.p_f, 0.5 * (F.p_f + F.edge_f), 0.3):
        got = F.eval_array(t)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == unblocked_eval(F, t).tobytes()


def _with_eval_array(F: Mollifier, defect):
    """F whose eval_array(ts) is defect(genuine eval_array, ts)."""
    class Planted(Mollifier):
        def eval_array(self, ts):
            genuine = lambda t: Mollifier.eval_array(self, t)
            return defect(genuine, np.asarray(ts, dtype=np.float64))
    return Planted(s=F.s, N=F.N, delta=F.delta, flavor=F.flavor, p=F.p)


@pytest.mark.parametrize("index, defect", [
    # halving every value beyond |t| = 1 keeps F even but not periodic
    (1, lambda ev, ts: np.where(np.abs(ts) >= 1.0, 0.5, 1.0) * ev(ts)),
    # a shift by a lattice step keeps F periodic but no longer even
    (2, lambda ev, ts: ev(ts + 2.0 ** -20)),
    # scaling by 3/2 lifts the plateau above 1
    (4, lambda ev, ts: 1.5 * ev(ts)),
], ids=["periodicity", "evenness", "bounds"])
def test_hypotheses_catch_planted_eval_array_defects(index, defect):
    F = _with_eval_array(make_outer(1.0, 100), defect)
    report = verify_hypotheses(F)
    failed = [c for c in report.checks if not c.passed]
    assert [c.index for c in failed] == [index]
    t = failed[0].witness
    assert t is not None
    v = F.eval_array(t)
    if index == 1:
        assert v != F.eval_array(t + 1.0) or v != F.eval_array(t - 1.0)
    elif index == 2:
        assert v != F.eval_array(-t)
    else:
        assert not 0.0 <= v <= 1.0


def test_derivative_check_matches_a_scalar_slope_loop():
    # hypothesis 5 reads |F'| off arrays; a scalar loop over the same
    # points, reducing by IEEE remainder, must give the same sup, digit
    # for digit in the report
    from powcorr.mollify import _probe_points
    for F in (make_outer(1.0, 100), make_inner(0.5, 1000)):
        ts = list(_probe_points(F, 2026)) + [F.p_f + 0.5 * F.delta_f]
        sup = 0.0
        for t in ts:
            u = abs(math.remainder(float(t), 1.0))
            if F.p_f < u < F.edge_f:
                v = min(max((u - F.p_f) / F.delta_f, 0.0), 1.0)
                sup = max(sup, abs(-6.0 * v * (1.0 - v) / F.delta_f))
        check = verify_hypotheses(F).checks[4]
        assert check.detail == (f"measured sup {sup}, bound "
                                f"{1.5 / float(F.delta)}")
