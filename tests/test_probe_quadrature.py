"""Geometric probes: oscillatory bounds, level sets, window overlaps.

Frozen constants below were produced by independent dense-grid oracles
(plain Riemann sums with kink-aware spacing) and by exact rational
root sign checks; they are regression locks, not tautologies.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from powcorr import DomainError, DyadicRational, NumericalError, as_dyadic
from powcorr import probe
from powcorr.mollify import make_outer
from powcorr.probe import (convexity_measure, level_intervals,
                           pair_overlap_integral, vdc_bound_check)

A32 = DyadicRational(3, 1)
B52 = DyadicRational(5, 1)


# ---------------------------------------------------------------------------
# oscillatory integral bound

def test_vdc_small_case_locked():
    value, bound = vdc_bound_check(A32, B52, 1, 2, 1)
    assert value == pytest.approx(0.03888413571279747, rel=1e-9)
    assert bound == 1.0
    assert value <= bound


def test_vdc_adjacent_exponents_high_frequency():
    value, bound = vdc_bound_check(A32, B52, 8, 20, 19)
    assert value == pytest.approx(1.2237999942966689e-06, rel=1e-6)
    assert bound == pytest.approx(8.457993557485805e-06, rel=1e-12)
    assert value <= bound


def test_vdc_bound_is_exact_rational_before_float():
    # gamma = l * n * a^(n-1) * (1 - 1/a) evaluated by hand for the
    # small case: 1 * 2 * (3/2) * (1/3) = 1, so the bound is exactly 1
    _, bound = vdc_bound_check(A32, B52, 1, 2, 1)
    assert bound == 1.0


def test_vdc_rejects_non_convex_phase():
    # n = 2, m = 1 works; m >= n must be refused
    with pytest.raises(DomainError):
        vdc_bound_check(A32, B52, 1, 2, 2)
    with pytest.raises(DomainError):
        vdc_bound_check(A32, B52, 0, 2, 1)
    with pytest.raises(DomainError):
        vdc_bound_check(DyadicRational(1, 1), B52, 1, 2, 1)


def test_vdc_holds_across_a_seeded_grid():
    import random
    rng = random.Random(7)
    for _ in range(25):
        l = rng.randint(1, 8)
        n = rng.randint(2, 20)
        m = rng.randint(1, n - 1)
        ai = rng.randint(1, 120)
        gap = rng.randint(1, 127 - ai)
        a = DyadicRational(64 + ai, 6)
        b = DyadicRational(64 + ai + gap, 6)
        value, bound = vdc_bound_check(a, b, l, n, m)
        assert value <= bound


# ---------------------------------------------------------------------------
# level sets of x^m1 - x^m2

def test_level_intervals_locked_small_case():
    ivs = level_intervals(2, 1, A32, 1.0, 100)
    assert len(ivs) == 3
    assert [iv.M for iv in ivs] == [1, 2, 3]
    # x^2 - x = 1 - 4/100 solves to x = 1.6 exactly (hand algebra:
    # (x - 8/5)(x + 3/5) = x^2 - x - 24/25)
    assert ivs[0].lo == pytest.approx(1.6, abs=2e-15)
    assert ivs[0].hi == pytest.approx(1.6357816691600533, rel=1e-9)
    total = sum(iv.length for iv in ivs)
    assert total == pytest.approx(0.08463781747516919, rel=1e-9)


def test_level_intervals_match_dense_grid_oracle():
    ivs = level_intervals(2, 1, A32, 1.0, 100)
    xs = np.linspace(1.5, 2.5, 2_000_001)
    g = xs * xs - xs
    w = 4.0 * 1.0 / 100.0
    inside = np.abs(g - np.round(g)) <= w
    oracle = inside.mean()  # measure of the preimage, up to grid error
    total = sum(iv.length for iv in ivs)
    assert total == pytest.approx(oracle, abs=2e-6)


def test_level_intervals_are_disjoint_and_ordered():
    ivs = level_intervals(3, 1, A32, 2.0, 500)
    for a, b in zip(ivs, ivs[1:]):
        assert a.hi <= b.lo
    assert all(iv.length > 0 for iv in ivs)


def test_level_intervals_reject_wide_windows():
    with pytest.raises(DomainError):
        level_intervals(2, 1, A32, 40.0, 100)
    with pytest.raises(DomainError):
        level_intervals(1, 1, A32, 1.0, 100)


# ---------------------------------------------------------------------------
# convexity measure

def test_convexity_measure_locked_values():
    measure, bound = convexity_measure((2, 1), (A32, B52), 1.0, 100)
    assert measure == pytest.approx(0.021158035120670604, rel=1e-9)
    assert bound == pytest.approx(0.06, rel=1e-12)
    assert measure <= bound

    measure10, bound10 = convexity_measure(2, (A32, B52), 1.0, 10)
    assert measure10 == pytest.approx(0.19329679964861768, rel=1e-9)
    assert measure10 <= bound10


def test_convexity_measure_pure_power_matches_dense_grid():
    measure, _ = convexity_measure(2, (A32, B52), 1.0, 100)
    xs = np.linspace(1.5, 2.5, 2_000_001)
    g = xs * xs
    inside = np.abs(g - np.round(g)) <= 1.0 / 100.0
    assert measure == pytest.approx(inside.mean(), abs=2e-6)


def test_convexity_window_matches_level_intervals_exactly():
    # the same preimage enumerator serves both: a convexity window of
    # 4s/N equals the level window at scale s, so the measures agree
    # to the last bit
    ivs = level_intervals(2, 1, A32, 1.0, 100)
    total = sum(iv.length for iv in ivs)
    measure, _ = convexity_measure((2, 1), (A32, B52), 4.0, 100)
    assert measure == total


def test_convexity_measure_rejects_concave_inputs():
    with pytest.raises(DomainError):
        convexity_measure((1, 2), (A32, B52), 1.0, 100)


# ---------------------------------------------------------------------------
# window overlap integrals

def test_overlap_cross_exponent_locked():
    F = make_outer(1.0, 100)
    value, bound = pair_overlap_integral(9, 6, 3, A32, F)
    assert value == pytest.approx(0.0004739759224770123, rel=1e-9)
    assert bound == pytest.approx(0.003928873693012116, rel=1e-12)
    assert value <= bound


def test_overlap_below_feasibility_threshold_is_refused():
    F = make_outer(1.0, 100)
    with pytest.raises(DomainError) as err:
        pair_overlap_integral(8, 5, 3, A32, F)
    assert "6" in str(err.value)


def test_overlap_equal_exponents_match_dense_oracle():
    F = make_outer(1.0, 50)
    value, bound = pair_overlap_integral(3, 1, 1, DyadicRational(2, 0), F)
    assert value == pytest.approx(0.04032232859713142, rel=1e-9)
    assert value <= bound
    xs = np.linspace(2.0, 3.0, 4_000_001)
    vals = F.eval_array(xs ** 3 - xs) ** 2
    assert value == pytest.approx(float(np.trapezoid(vals, xs)), abs=5e-7)


def test_overlap_rejects_bad_exponent_order():
    F = make_outer(1.0, 100)
    with pytest.raises(DomainError):
        pair_overlap_integral(3, 3, 1, A32, F)
    with pytest.raises(DomainError):
        pair_overlap_integral(5, 2, 3, A32, F)


def test_overlap_envelope_catches_planted_defect(monkeypatch):
    # an envelope constant planted below the measured value must make the
    # probe refuse rather than report
    F = make_outer(1.0, 50)
    A = as_dyadic(Fraction(9, 4))
    value, _ = pair_overlap_integral(2, 1, 1, A, F)
    monkeypatch.setattr(probe, "C_OVERLAP_EQUAL", 0.5 * value * F.N)
    with pytest.raises(NumericalError):
        pair_overlap_integral(2, 1, 1, A, F)
