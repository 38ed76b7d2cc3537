"""Correlation statistics against brute-force oracles and controls."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError, DyadicRational, ResourceError, as_dyadic
from powcorr.corr import (control_nalpha, count_pairs, forward_window_pairs,
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
    assert inner <= sharp <= outer


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
    # bit for bit, also across the 624-word refill of the generator
    for N in (1, 2, 625, 50_000):
        rng = random.Random(seed)
        loop = np.array([rng.random() for _ in range(N)])
        got = uniform_control(N, seed).points
        assert got.tobytes() == loop.tobytes(), N


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


# ---- one counting pass per point set, smoothed sums included -------------

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


def searchsorted_window_pairs(points, width):
    """(counts, ends, gaps) of forward_window_pairs as it was written with
    np.searchsorted, before its run lengths came from the offset pass."""
    from powcorr.corr import _reach
    n = len(points)
    ys = np.sort(points)
    doubled = np.concatenate([ys, ys + 1.0])
    starts = np.arange(1, n + 1)
    counts = np.clip(np.searchsorted(doubled, _reach(ys, width),
                                     side="right"),
                     starts, starts + (n - 1))
    counts -= starts
    pair_j = np.arange(int(counts.sum()))
    if len(pair_j):
        starts -= np.cumsum(counts) - counts
        pair_j += np.repeat(starts, counts)
    ends = doubled[pair_j]
    return counts, ends, ends - np.repeat(ys, counts)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def enumerate_as_searchsorted(points, width):
    """forward_window_pairs(points, width), asserted byte-equal to the
    searchsorted enumeration in counts, ends and gaps."""
    pw = forward_window_pairs(points, width)
    for got, want in zip((pw.counts, pw.ends, pw.gaps),
                         searchsorted_window_pairs(points, width)):
        assert_same_bytes(got, want)
    return pw


def case_widths(sample, s_values):
    """Every width a statistic of the case reads: each s/N and the edges
    of the inner and outer windows at s."""
    N = sample.n_max
    windows = {s: (make_inner(s, N), make_outer(s, N)) for s in s_values}
    widths = [s / N for s in s_values]
    widths += [F.edge_f for pair in windows.values() for F in pair]
    return windows, widths


def pairwise_smoothed(sample, F):
    """pair_corr_smoothed as it was written before the bands: numpy's
    pairwise sum of F over a fresh enumeration at F's edge."""
    gaps = forward_window_pairs(sample.points, F.edge_f).gaps
    return 2.0 * float(F.eval_array(gaps).sum()) / sample.n_max


def assert_smoothed_sums(sample, F, counts):
    """pair_corr_smoothed, with these counts and with its own pass, is 2/N
    times the fsum of F over a fresh enumeration at F's edge, bit for bit;
    the band holds exactly that enumeration's pairs above the plateau; and
    the pairwise sum agrees within 2 gamma_K sum|v|."""
    N = sample.n_max
    fresh = forward_window_pairs(sample.points, F.edge_f)
    values = F.eval_array(fresh.gaps)
    want = 2.0 * math.fsum(values) / N
    assert pair_corr_smoothed(sample, F, counts).hex() == want.hex()
    assert pair_corr_smoothed(sample, F).hex() == want.hex()
    assert_same_bytes(np.sort(counts.bands[F]),
                      np.sort(fresh.gaps[fresh.gaps > F.p_f]))
    K = len(values)
    gamma = K * 2.0 ** -53 / (1.0 - K * 2.0 ** -53)
    tol = 2.0 * gamma * (2.0 * math.fsum(np.abs(values)) / N)
    assert abs(pairwise_smoothed(sample, F) - want) <= tol


@given(shared_enumeration_cases())
@settings(max_examples=150, deadline=None)
def test_one_pass_gives_every_count_and_smoothed_sum(case):
    """One pass at the widest edge: pair counts and triple correlations
    equal those of a pass of their own, and each window's smoothed sum
    equals the fsum over a fresh enumeration at its edge."""
    sample, s_values = case
    windows, _ = case_widths(sample, s_values)
    counts = count_pairs(sample.points, [s / sample.n_max for s in s_values],
                         runs=True,
                         windows=[F for pair in windows.values() for F in pair])
    for s in s_values:
        assert pair_corr(sample, s, counts) == pair_corr(sample, s)
        for F in windows[s]:
            assert_smoothed_sums(sample, F, counts)
        for s2 in s_values:
            r3 = triple_corr(sample, s, s2)
            assert triple_corr(sample, s, s2, counts) == r3
            assert r3 == triple_by_add_at(sample, s, s2)


@given(shared_enumeration_cases(),
       st.sampled_from([None, Fraction(1, 2 ** 10)]))
@settings(max_examples=100, deadline=None)
def test_smoothed_sums_sandwich_the_count_exactly(case, delta):
    """r2_inner <= r2 <= r2_outer with no slack at every s of the grid:
    the plateau count is an integer and fsum rounds monotonically."""
    sample, s_values = case
    N = sample.n_max
    windows = {s: (make_inner(s, N, delta), make_outer(s, N, delta))
               for s in s_values}
    counts = count_pairs(sample.points, [s / N for s in s_values],
                         windows=[F for pair in windows.values() for F in pair])
    for s, (inner, outer) in windows.items():
        r2 = pair_corr(sample, s, counts)
        assert pair_corr_smoothed(sample, inner, counts) <= r2
        assert r2 <= pair_corr_smoothed(sample, outer, counts)


@given(shared_enumeration_cases())
@settings(max_examples=150, deadline=None)
def test_pass_matches_a_fresh_enumeration_and_the_searchsorted_one(case):
    """One pass's counts and run lengths at every width equal the window
    tests of a fresh enumeration at that width, whose counts, ends and
    gaps are byte-equal to the searchsorted enumeration's."""
    sample, s_values = case
    _, widths = case_widths(sample, s_values)
    counts = count_pairs(sample.points, widths, runs=True)
    for w in widths:
        fresh = enumerate_as_searchsorted(sample.points, w)
        inside = fresh.gaps <= w
        assert counts.pairs[w] == int(np.count_nonzero(inside))
        per_run = np.bincount(fresh.pos_i[inside], minlength=sample.n_max)
        assert np.array_equal(counts.runs[w], per_run)


@pytest.mark.parametrize("points", [
    [0.5], [0.0], [0.25, 0.25], [0.1, 0.9], [0.0, math.nextafter(1.0, 0.0)],
    [0.3, 0.30001]], ids=["one", "zero", "tied-pair", "far-pair",
                          "wrapped-pair", "close-pair"])
@pytest.mark.parametrize("width", [2.0 ** -30, 0.01, 0.2, 0.49])
def test_enumeration_and_counts_of_one_and_two_points(points, width):
    pts = np.array(points)
    pw = enumerate_as_searchsorted(pts, width)
    counts = count_pairs(pts, [width], runs=True)
    assert counts.pairs[width] == int(np.count_nonzero(pw.gaps <= width))
    assert np.array_equal(counts.runs[width],
                          np.bincount(pw.pos_i[pw.gaps <= width],
                                      minlength=len(pts)))


@st.composite
def chunked_cases(draw):
    """(sample, s values, windows): N from 1, so below a chunk count too;
    ties, 0.0 and 1 - 2^-53, and clusters of points 2^-40 apart whose
    runs are long and cross the edges of the chunks of sorted positions."""
    from powcorr.hpgen import UnitSample
    N = draw(st.integers(1, 48))
    pts = draw(st.lists(st.sampled_from([0.0, 1.0 - 2.0 ** -53, 0.5]),
                        max_size=3))
    for centre in draw(st.lists(st.floats(0.0, 0.999), max_size=3)):
        pts += [centre + j * 2.0 ** -40
                for j in range(draw(st.integers(2, N // 2 + 2)))]
    pts += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                         min_size=N, max_size=N))
    pts = pts[:N]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))      # ties
    N = len(pts)
    s_values = draw(st.lists(st.sampled_from(
        [s for s in (0.25, 0.5, 1.0, 2.0, 3.0) if s / N < 0.5]),
        min_size=1, max_size=3, unique=True))
    delta = draw(st.sampled_from([None, Fraction(1, 2 ** 10)]))
    windows = []
    for s in s_values:
        for maker in (make_inner, make_outer):
            try:
                windows.append(maker(s, N, delta))
            except DomainError:         # no plateau at so small an N
                pass
    sample = UnitSample(n_max=N, points=np.array(pts), err_bound=0.0,
                        base=DyadicRational.from_int(2),
                        xi=DyadicRational.from_int(1))
    return sample, s_values, windows


@given(chunked_cases())
@settings(max_examples=150, deadline=None)
def test_a_chunked_pass_equals_the_one_chunk_pass_bit_for_bit(case):
    """Pair counts, run lengths, degrees, bands, smoothed sums and triple
    correlations of a pass in 2, 3 or 4 chunks are those of one chunk,
    byte for byte; and the degrees are those of a fresh enumeration."""
    sample, s_values, windows = case
    N = sample.n_max
    widths = [s / N for s in s_values]
    one = count_pairs(sample.points, widths, runs=True, windows=windows)
    for w in widths:
        fresh = forward_window_pairs(sample.points, max(widths))
        inside = fresh.gaps <= w
        assert np.array_equal(
            one.degrees[w], np.bincount(fresh.pos_i[inside], minlength=N)
            + np.bincount(fresh.pos_j[inside], minlength=N))
    for threads in (2, 3, 4):
        many = count_pairs(sample.points, widths, runs=True, windows=windows,
                           threads=threads)
        assert many.pairs == one.pairs
        for w in widths:
            assert_same_bytes(many.runs[w], one.runs[w])
            assert_same_bytes(many.degrees[w], one.degrees[w])
        for F in windows:
            assert_same_bytes(many.bands[F], one.bands[F])
            assert (pair_corr_smoothed(sample, F, many).hex()
                    == pair_corr_smoothed(sample, F, one).hex())
        for s in s_values:
            assert (triple_corr(sample, s, s, many).hex()
                    == triple_corr(sample, s, s, one).hex())


@pytest.mark.parametrize("threads", [1, 3])
def test_counting_and_enumeration_leave_their_input_unchanged(threads):
    """The points are sorted in a buffer of their own: a writeable input
    array keeps its order and values."""
    pts = uniform_control(3000, 5).points.copy()
    assert pts.flags.writeable
    before = pts.copy()
    count_pairs(pts, [1 / 3000, 2 / 3000], runs=True, threads=threads)
    assert np.array_equal(pts, before)
    forward_window_pairs(pts, 2 / 3000)
    assert np.array_equal(pts, before)


def test_more_chunks_than_cores_under_fast_thread_switches():
    """Eight chunks on fewer cores, with the threads switching every
    microsecond: each step's in-degree tallies land past the chunk's own
    end, in its neighbour's positions, and a clustered stretch keeps
    hundreds of steps going, so a tally lost or made twice would change a
    degree; they all equal one chunk's."""
    import sys
    pts = np.concatenate([uniform_control(20000, 11).points,
                          0.3 + 2.0 ** -40 * np.arange(300)])
    widths = [1 / 20000, 3 / 20000]
    one = count_pairs(pts, widths, runs=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = count_pairs(pts, widths, runs=True, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert many.pairs == one.pairs
    for w in widths:
        assert_same_bytes(many.runs[w], one.runs[w])
        assert_same_bytes(many.degrees[w], one.degrees[w])


@pytest.mark.parametrize("width", [2.0 ** -30, 0.01, 0.2])
def test_a_point_exactly_at_the_reach_is_in_its_run(width):
    """The reach is inclusive, both in the contiguous steps (two points)
    and after the pass has narrowed to the open runs (a cluster of three
    among spread points, the third at the first one's reach)."""
    from powcorr.corr import _reach
    at_reach = float(_reach(np.array([0.25]), width)[0])
    spread = [0.5 + k / 32 for k in range(13)]
    for pts in ([0.25, at_reach], [0.25, 0.25 + 2.0 ** -40, at_reach]
                + spread):
        pw = enumerate_as_searchsorted(np.array(pts), width)
        assert pw.ends[pw.counts[0] - 1] == at_reach


def dyadic_sample(points):
    from powcorr.hpgen import UnitSample
    return UnitSample(n_max=len(points), points=np.array(points),
                      err_bound=0.0, base=DyadicRational.from_int(2),
                      xi=DyadicRational.from_int(1))


def test_band_tests_the_far_end_not_the_gap():
    """At N = 8, s = 1/4 the run of y = 3 * 2^-58 reaches 0x1.0000000001003p-5;
    the point one ulp past it is outside the run, yet its float gap from y
    rounds onto the reach's own gap, so only the far end tells them apart.
    A pass at s = 1/2 holds that pair; the band of the inner window at
    s = 1/4, whose edge is 1/32, must leave it out."""
    sample = dyadic_sample([3 * 2.0 ** -58,
                            float.fromhex("0x1.0000000001004p-5"),
                            0.25, 0.375, 0.5, 0.625, 0.75, 0.875])
    pts = sample.points
    wide = enumerate_as_searchsorted(pts, 0.5 / 8)
    fresh = enumerate_as_searchsorted(pts, 0.25 / 8)
    assert len(fresh.gaps) == len(wide.gaps) - 1 == 0
    F = make_inner(0.25, 8)
    assert F.edge_f == 0.25 / 8
    # the pair's gap passes the edge by under 2^-39 relative, inside the
    # band's gap test; only its far end is outside
    assert F.p_f < wide.gaps[0] <= F.edge_f * (1.0 + 2.0 ** -39)
    counts = count_pairs(pts, [0.25 / 8, 0.5 / 8], runs=True, windows=[F])
    assert len(counts.bands[F]) == 0
    assert_smoothed_sums(sample, F, counts)
    assert counts.pairs[0.25 / 8] == int(np.count_nonzero(fresh.gaps
                                                          <= 0.25 / 8))
    assert pair_corr(sample, 0.25, counts) == pair_corr(sample, 0.25) == 0.0
    assert (triple_corr(sample, 0.25, 0.5, counts)
            == triple_by_add_at(sample, 0.25, 0.5))


def test_pairs_exactly_at_the_plateau_and_at_the_edge():
    """N = 8, s = 1, delta = 1/64: the outer plateau ends at 1/8 and its
    support at 9/64, the inner ones at 7/64 and 1/8; dyadic points put
    pairs exactly on each.  A pair at p_f is counted (value 1.0), not in
    the band; one at edge_f falls in the band with value 0.0."""
    d = Fraction(1, 64)
    sample = dyadic_sample([0.0, 1 / 8, 0.25, 0.25 + 9 / 64, 0.5,
                            0.5 + 7 / 64, 0.75, 0.9375])
    inner, outer = make_inner(1, 8, d), make_outer(1, 8, d)
    counts = count_pairs(sample.points, [1 / 8], windows=[inner, outer])
    assert float(outer.eval_array(9 / 64)) == 0.0
    assert 9 / 64 in counts.bands[outer].tolist()
    assert 1 / 8 in counts.bands[inner].tolist()
    assert 1 / 8 not in counts.bands[outer].tolist()
    assert 7 / 64 not in counts.bands[inner].tolist()
    for F in (inner, outer):
        assert_smoothed_sums(sample, F, counts)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_a_wide_ramp_puts_many_pairs_in_the_band(seed):
    """delta = 1/2^10 at N = 500: each band holds hundreds of pairs."""
    sample = uniform_control(500, seed)
    d = Fraction(1, 2 ** 10)
    windows = [maker(s, 500, d) for s in (1.0, 2.0)
               for maker in (make_inner, make_outer)]
    counts = count_pairs(sample.points, [1 / 500, 2 / 500], windows=windows)
    assert min(len(counts.bands[F]) for F in windows) > 100
    for F in windows:
        assert_smoothed_sums(sample, F, counts)


def test_an_outer_edge_of_one_half():
    """N = 4, s = 3/2, delta = 1/8: the outer support edge is exactly 1/2,
    and the forward gap 1/2 + 2^-42 is inside the run at 1/2, so it is in
    the band although it passes the edge.  F reads it as 1/2 - 2^-42 from
    the next integer; its ramp value 3 (2^-39)^2 is lost in the rounding
    of 1 - v^2 (3 - 2 v), so it adds 0.0, as in the enumeration."""
    F = make_outer(Fraction(3, 2), 4, Fraction(1, 8))
    assert F.edge_f == 0.5
    sample = dyadic_sample([0.0, 0.5 + 2.0 ** -42, 0.625, 0.8125])
    counts = count_pairs(sample.points, [], windows=[F])
    assert 0.5 + 2.0 ** -42 in counts.bands[F].tolist()
    assert_smoothed_sums(sample, F, counts)


def test_counts_refuse_another_sample_a_missing_width_or_window():
    sample = uniform_control(100, 3)
    F = make_outer(0.5, 100)
    counts = count_pairs(sample.points, [1.0 / 100], windows=[F])
    assert pair_corr_smoothed(sample, F, counts) == pair_corr_smoothed(
        sample, F)
    with pytest.raises(DomainError):     # counted over another N
        pair_corr_smoothed(uniform_control(90, 3), make_outer(0.5, 90),
                           counts)
    for other in (make_outer(1.0, 100), make_inner(0.5, 100),
                  make_outer(0.5, 100, Fraction(1, 2 ** 12))):
        with pytest.raises(DomainError):     # without this window's band
            pair_corr_smoothed(sample, other, counts)
    with pytest.raises(DomainError):
        pair_corr_smoothed(sample, F, count_pairs(sample.points, [F.p_f]))
    with pytest.raises(DomainError):
        pair_corr(sample, 2.0, counts)
    with pytest.raises(DomainError):
        pair_corr(uniform_control(90, 3), 0.5, counts)
    with pytest.raises(DomainError):     # counted without the run lengths
        triple_corr(sample, 1.0, 1.0, counts)


# ---- the candidate-pair cap --------------------------------------------------

def watch_passes(monkeypatch, delay=0.0):
    """Record, for each `_offset_pass` (one per chunk), its width and the m
    of every step it yields; with `delay`, every chunk but the first (the
    one in the calling thread) sleeps that long before each step."""
    import time
    from powcorr import corr
    passes, real = [], corr._offset_pass

    def watched(ys, doubled, width, lo=0, hi=None, out=None):
        steps = []
        passes.append((width, steps))
        for step in real(ys, doubled, width, lo, hi, out):
            if lo:
                time.sleep(delay)
            steps.append(step[3])
            yield step

    monkeypatch.setattr(corr, "_offset_pass", watched)
    return passes


#: (threads, delay) of `watch_passes`: one to four chunks, and four whose
#: threads lag the calling one
CHUNKINGS = [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (4, 0.002)]


@pytest.mark.parametrize("n", [2, 3, 40])
def test_cap_refuses_one_pair_over_the_candidate_total(monkeypatch, n):
    """n equal points: run i holds n - 1 - i pairs, n(n - 1)/2 in all.  A
    cap of the total passes and one less refuses, in any number of
    chunks."""
    from powcorr import corr
    total = n * (n - 1) // 2
    pts = np.full(n, 0.375)
    for threads in (1, 2, 3, 4):
        monkeypatch.setattr(corr, "MAX_WINDOW_PAIRS", total)
        assert count_pairs(pts, [0.01], threads=threads).pairs[0.01] == total
        assert len(forward_window_pairs(pts, 0.01).gaps) == total
        monkeypatch.setattr(corr, "MAX_WINDOW_PAIRS", total - 1)
        with pytest.raises(ResourceError):
            count_pairs(pts, [0.01], threads=threads)
        with pytest.raises(ResourceError):
            forward_window_pairs(pts, 0.01)


@pytest.mark.parametrize("cap", [0, 1, 39, 40, 100, 500, 779])
def test_cap_stops_the_pass_at_the_step_that_crosses_it(monkeypatch, cap):
    """n = 40 equal points: step k opens n - k runs.  The pass refuses at
    the first step whose running total passes the cap and names that step
    and total, whatever the chunks and however their threads are timed;
    every chunk stops there, and all of them ran at one width."""
    from powcorr import corr
    n = 40
    monkeypatch.setattr(corr, "MAX_WINDOW_PAIRS", cap)
    totals = list(itertools.accumulate(n - k for k in range(1, n)))
    k = next(k for k, total in enumerate(totals, 1) if total > cap)
    for threads, delay in CHUNKINGS:
        with monkeypatch.context() as mp:
            passes = watch_passes(mp, delay)
            with pytest.raises(ResourceError) as refusal:
                count_pairs(np.full(n, 0.375), [0.01], threads=threads)
        assert str(refusal.value) == (
            f"window enumeration passed {cap} candidate pairs at offset {k} "
            f"({totals[k - 1]} touched); narrow the window")
        assert [width for width, _ in passes] == [0.01] * threads
        assert max(len(steps) for _, steps in passes) == k
        assert sum(sum(steps) for _, steps in passes) == totals[k - 1]


@pytest.mark.parametrize("threads", [1, 3])
def test_threads_end_with_the_pass(monkeypatch, threads):
    """count_pairs leaves no thread behind, whether it returns or
    refuses."""
    import threading
    from powcorr import corr
    before = threading.active_count()
    pts = uniform_control(2000, 5).points
    count_pairs(pts, [1 / 2000, 2 / 2000], runs=True, threads=threads)
    assert threading.active_count() == before
    monkeypatch.setattr(corr, "MAX_WINDOW_PAIRS", 10)
    with pytest.raises(ResourceError):
        count_pairs(pts, [1 / 2000], threads=threads)
    assert threading.active_count() == before
