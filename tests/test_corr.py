"""Correlation statistics against brute-force oracles and controls."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError, DyadicRational, ResourceError, as_dyadic
from powcorr.corr import (control_nalpha, forward_window_pairs,
                          golden_ratio_dyadic, level_spacings,
                          pair_corr, pair_corr_bruteforce,
                          pair_corr_smoothed, spacings_sup_exponential,
                          star_discrepancy, triple_corr, uniform_control)
from powcorr.hpgen import ladder_frac_powers, sample_x
from powcorr.mollify import make_inner, make_outer


def circ_dist(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def pair_count_oracle(points, w: float) -> int:
    """O(N^2) loop written independently of the library counters."""
    n = len(points)
    c = 0
    for i in range(n):
        for j in range(n):
            if i != j and circ_dist(points[i], points[j]) <= w:
                c += 1
    return c


def test_sweep_counter_matches_slow_loop_on_small_samples():
    rng = random.Random(42)
    for _ in range(40):
        N = rng.randint(5, 120)
        sample = uniform_control(N, rng.randrange(2 ** 30))
        s = rng.choice([0.25, 0.5, 1.0, 2.0])
        expected = pair_count_oracle(sample.points, s / N) / N
        assert pair_corr(sample, s) == expected


def test_sweep_counter_matches_vectorized_oracle():
    rng = random.Random(43)
    for _ in range(30):
        N = rng.randint(10, 1500)
        sample = uniform_control(N, rng.randrange(2 ** 30))
        s = rng.choice([0.5, 1.0, 2.0])
        assert pair_corr(sample, s) == pair_corr_bruteforce(sample, s)


def test_ladder_samples_agree_with_oracle_too():
    rng = random.Random(44)
    for _ in range(10):
        N = rng.randint(100, 1200)
        x = sample_x(DyadicRational(3, 1), 64, rng.randrange(2 ** 30))
        sample = ladder_frac_powers(x, 1, N)
        assert pair_corr(sample, 1.0) == pair_corr_bruteforce(sample, 1.0)


def test_tie_at_the_window_boundary_counts_inside():
    from powcorr.hpgen import UnitSample
    # dyadic grid with spacing exactly s/N = 1/4: every float operation is
    # exact, so all four adjacent pairs (including the wrap) tie at the
    # boundary and count as inside
    pts = np.array([0.125, 0.375, 0.625, 0.875])
    sample = UnitSample(n_max=4, points=pts, err_bound=0.0,
                        base=DyadicRational.from_int(2),
                        xi=DyadicRational.from_int(1))
    assert pair_corr(sample, 1.0) == 2.0


def test_oracle_cap_is_enforced():
    sample = uniform_control(5000, 1)
    with pytest.raises(ResourceError):
        pair_corr_bruteforce(sample, 1.0)


def test_reach_is_the_next_float_up_of_the_inflated_end():
    """The int64 successor in `_reach` is np.nextafter(., inf) on sorted
    uniforms, zero, subnormals and the floats around 1.0 and 2.0."""
    from powcorr.corr import _reach
    tiny = 5e-324
    ys = np.sort(np.concatenate([
        np.random.default_rng(7).random(10_000),
        [0.0, tiny, 2 * tiny, 2.0 ** -1060, 2.0 ** -1022 - tiny,
         2.0 ** -1022, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
         np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]]))
    for width in (tiny, 1e-310, 2.0 ** -30, 0.5 / 8, 0.49):
        want = np.nextafter(ys + width * (1.0 + 2.0 ** -40), np.inf)
        got = _reach(ys, width)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_window_reaching_half_is_rejected():
    sample = uniform_control(10, 1)
    with pytest.raises(DomainError):
        pair_corr(sample, 5.0)


def test_smoothed_statistic_sandwiches_the_sharp_count():
    sample = uniform_control(2000, 9)
    s = 1.0
    inner = pair_corr_smoothed(sample, make_inner(s, 2000))
    outer = pair_corr_smoothed(sample, make_outer(s, 2000))
    sharp = pair_corr(sample, s)
    assert inner <= sharp + 1e-12
    assert sharp <= outer + 1e-12


def test_golden_ratio_control_is_locked_and_far_from_poisson():
    # {n * alpha} has no pairs closer than the three-gap minimum, so the
    # pair count collapses; the exact value below is a deterministic
    # regression constant (2 * count / N at N = 5000, s = 1)
    sample = control_nalpha(golden_ratio_dyadic(), 5000)
    r2 = pair_corr(sample, 1.0)
    assert r2 == 1.294
    assert abs(r2 / 2.0 - 1.0) > 0.15


def test_golden_ratio_dyadic_value():
    g = golden_ratio_dyadic()
    assert abs(float(g) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-18


def test_uniform_control_is_near_poisson_at_moderate_n():
    vals = [pair_corr(uniform_control(4000, seed), 1.0)
            for seed in range(5)]
    assert all(abs(v / 2.0 - 1.0) < 0.2 for v in vals)


@pytest.mark.parametrize("seed", [0, 5, 4242, 2 ** 40 + 3, 123456789])
def test_uniform_control_draws_the_points_of_random_random(seed):
    # the bulk draw must reproduce N calls of random.Random(seed).random()
    # bit for bit
    rng = random.Random(seed)
    loop = np.array([rng.random() for _ in range(50_000)])
    got = uniform_control(50_000, seed).points
    assert got.tobytes() == loop.tobytes()


def test_spacings_ecdf_shape():
    sample = uniform_control(3000, 3)
    ecdf = level_spacings(sample)
    t, f = ecdf[:, 0], ecdf[:, 1]
    assert np.all(np.diff(t) >= 0)
    assert f[-1] == 1.0
    assert t.sum() == pytest.approx(sample.n_max, rel=1e-9)
    # sup distance to 1 - exp(-t) is small for genuinely uniform points
    assert spacings_sup_exponential(ecdf) < 0.05


def test_star_discrepancy_hand_values():
    from powcorr.hpgen import UnitSample
    one = UnitSample(n_max=1, points=np.array([0.5]), err_bound=0.0,
                     base=DyadicRational.from_int(2),
                     xi=DyadicRational.from_int(1))
    assert star_discrepancy(one) == 0.5
    grid = UnitSample(n_max=4, points=np.array([0.125, 0.375, 0.625, 0.875]),
                      err_bound=0.0, base=DyadicRational.from_int(2),
                      xi=DyadicRational.from_int(1))
    assert star_discrepancy(grid) == 0.125


def test_triple_corr_matches_slow_loop():
    rng = random.Random(45)
    for _ in range(10):
        N = rng.randint(10, 80)
        sample = uniform_control(N, rng.randrange(2 ** 30))
        s = rng.choice([0.5, 1.0, 2.0])
        w = s / N
        count = 0
        pts = sample.points
        for m in range(N):
            for l in range(N):
                for n in range(N):
                    if l != m and n != m and l != n \
                            and circ_dist(pts[l], pts[m]) <= w \
                            and circ_dist(pts[n], pts[m]) <= w:
                        count += 1
        assert triple_corr(sample, s, s) == pytest.approx(count / N)


@given(st.integers(min_value=3, max_value=300),
       st.integers(min_value=0, max_value=2 ** 20))
@settings(max_examples=60, deadline=None)
def test_pair_corr_is_symmetric_under_shift(N, seed):
    # circular statistics are invariant under rotating every point
    sample = uniform_control(N, seed)
    shifted = np.mod(sample.points + 0.3125, 1.0)
    from powcorr.hpgen import UnitSample
    rot = UnitSample(n_max=N, points=shifted, err_bound=0.0,
                     base=sample.base, xi=sample.xi)
    assert pair_corr(rot, 1.0) == pytest.approx(pair_corr(sample, 1.0))


# ---- one enumeration per point set, cut to each width ----------------------

#: edge points: 0, within 2^-50 of 0 and of 1 (wrap-around pairs), 1/2
EDGE_POINTS = [0.0, 2.0 ** -52, 2.0 ** -50, 0.5, 1.0 - 2.0 ** -50,
               math.nextafter(1.0, 0.0)]


@st.composite
def shared_enumeration_cases(draw):
    """(sample, s values): duplicates, edge points and pairs exactly s/N
    apart; the s values are unsorted and may repeat."""
    from powcorr.hpgen import UnitSample
    N = draw(st.sampled_from([8, 16, 32, 37, 50, 64]))
    s_values = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
                             min_size=1, max_size=5))
    # a dyadic grid point y and y + s/N: exact float gaps when N = 2^k
    grid = [k / 4096 for k in draw(st.lists(st.integers(0, 4095),
                                            max_size=N // 4))]
    grid += [(y + s / N) % 1.0 for y in grid for s in s_values[:1]]
    pts = grid + draw(st.lists(st.sampled_from(EDGE_POINTS), max_size=6))
    pts += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                         min_size=max(0, N - len(pts)), max_size=N))
    pts = pts[:N]
    pts += draw(st.lists(st.sampled_from(pts), min_size=N - len(pts),
                         max_size=N - len(pts)))       # duplicates
    sample = UnitSample(n_max=N, points=np.array(pts), err_bound=0.0,
                        base=DyadicRational.from_int(2),
                        xi=DyadicRational.from_int(1))
    return sample, s_values


def triple_by_add_at(sample, s1, s2) -> float:
    """triple_corr's degree count written with np.add.at on a fresh
    enumeration, as it was before the degrees came from the runs."""
    w1, w2, n = s1 / sample.n_max, s2 / sample.n_max, sample.n_max
    pw = forward_window_pairs(sample.points, max(w1, w2))
    degs = []
    for w in (w1, w2, min(w1, w2)):
        deg = np.zeros(n)
        inside = pw.gaps <= w
        np.add.at(deg, pw.pos_i[inside], 1.0)
        np.add.at(deg, pw.pos_j[inside], 1.0)
        degs.append(deg)
    return float(np.sum(degs[0] * degs[1] - degs[2])) / n


@given(shared_enumeration_cases())
@settings(max_examples=150, deadline=None)
def test_cut_reproduces_a_fresh_enumeration(case):
    sample, s_values = case
    N = sample.n_max
    windows = {s: (make_inner(s, N), make_outer(s, N)) for s in s_values}
    widths = [s / N for s in s_values]
    widths += [F.edge_f for pair in windows.values() for F in pair]
    wide = forward_window_pairs(sample.points, max(widths))
    for w in widths:
        keep = wide.cut(w)
        fresh = forward_window_pairs(sample.points, w)
        # the same pairs in the same order, bit for bit
        for field in ("gaps", "ends", "pos_i", "pos_j"):
            got = getattr(wide, field)[keep]
            want = getattr(fresh, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(wide.order, fresh.order)
    for s in s_values:
        assert pair_corr(sample, s, wide) == pair_corr(sample, s)
        for F in windows[s]:
            assert (pair_corr_smoothed(sample, F, wide)
                    == pair_corr_smoothed(sample, F))
        for s2 in s_values:
            r3 = triple_corr(sample, s, s2)
            assert triple_corr(sample, s, s2, wide) == r3
            assert r3 == triple_by_add_at(sample, s, s2)


def test_cut_tests_the_far_end_not_the_gap():
    """At N = 8, s = 1/4 the run of y = 3 * 2^-58 reaches 0x1.0000000001003p-5;
    the point one ulp past it is outside the run, yet its float gap from y
    rounds onto the reach's own gap, so only the far end tells them apart."""
    from powcorr.hpgen import UnitSample
    pts = np.array([3 * 2.0 ** -58, float.fromhex("0x1.0000000001004p-5"),
                    0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
    sample = UnitSample(n_max=8, points=pts, err_bound=0.0,
                        base=DyadicRational.from_int(2),
                        xi=DyadicRational.from_int(1))
    wide = forward_window_pairs(pts, 0.5 / 8)
    fresh = forward_window_pairs(pts, 0.25 / 8)
    keep = wide.cut(0.25 / 8)
    assert len(wide.gaps[keep]) == len(fresh.gaps) == len(wide.gaps) - 1
    assert pair_corr(sample, 0.25, wide) == pair_corr(sample, 0.25) == 0.0


def test_cut_refuses_a_wider_width_and_another_sample():
    sample = uniform_control(100, 3)
    wide = forward_window_pairs(sample.points, 1.0 / 100)
    with pytest.raises(DomainError):
        wide.cut(2.0 / 100)
    with pytest.raises(DomainError):
        pair_corr(sample, 2.0, wide)
    with pytest.raises(DomainError):
        pair_corr(uniform_control(90, 3), 0.5, wide)
