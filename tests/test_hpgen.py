"""Certified power ladders against the exact-rational oracle.

The oracle computes {xi * x^n} with full-precision integer arithmetic,
so any ladder disagreement beyond its certified error bound is a bug,
not noise.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DyadicRational, DomainError, PrecisionError, as_dyadic
from powcorr.hpgen import (UnitSample, _block_length, _block_shape,
                           _round_shift, _unit_floats, ceil_log2_ratio,
                           default_guard_bits, ensure_ladders_resolve,
                           exact_frac_powers, ladder_bound,
                           ladder_frac_powers, precision_budget,
                           required_guard_bits, sample_x, save_sample,
                           ensure_window_resolution)

ONE_MINUS = math.nextafter(1.0, 0.0)


def frac_oracle(x: DyadicRational, xi: DyadicRational, N: int) -> list:
    """Independent exact computation of the fractional parts."""
    xf = x.as_fraction()
    acc = xi.as_fraction()
    out = []
    for _ in range(N):
        acc *= xf
        out.append(acc - math.floor(acc))
    return out


def test_three_halves_first_points():
    # (3/2)^1 = 1.5, (3/2)^2 = 2.25, (3/2)^3 = 3.375: fractional parts by hand
    sample = ladder_frac_powers(DyadicRational(3, 1), 1, 3)
    assert sample.points.tolist() == [0.5, 0.25, 0.375]


def test_ladder_matches_exact_oracle_within_bound():
    rng = random.Random(101)
    for _ in range(25):
        N = rng.randint(2, 256)
        x = sample_x(DyadicRational(3, 1), 48, rng.randrange(2 ** 30))
        sample = ladder_frac_powers(x, 1, N)
        exact = frac_oracle(x, DyadicRational.from_int(1), N)
        worst = max(abs(p - float(e)) for p, e in zip(sample.points, exact))
        assert worst <= sample.err_bound


def test_exact_frac_powers_agrees_with_fraction_arithmetic():
    x = DyadicRational(13, 3)  # 1.625
    pts = exact_frac_powers(x, 1, 40)
    oracle = frac_oracle(x, DyadicRational.from_int(1), 40)
    assert all(p == float(o) for p, o in zip(pts.points, oracle))


def test_xi_multiplier_shifts_the_orbit():
    x = DyadicRational(3, 1)
    xi = DyadicRational(5, 2)  # 1.25
    sample = ladder_frac_powers(x, xi, 10)
    oracle = frac_oracle(x, xi, 10)
    assert max(abs(p - float(o))
               for p, o in zip(sample.points, oracle)) <= sample.err_bound


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_sample_x_lands_in_the_unit_window(seed, nbits_seed):
    A = DyadicRational(3, 1)
    x = sample_x(A, 1 + nbits_seed % 64, seed)
    assert A <= x < A + DyadicRational.from_int(1)


def test_sample_x_is_deterministic():
    A = as_dyadic(1.02)
    assert sample_x(A, 64, 7) == sample_x(A, 64, 7)
    assert sample_x(A, 64, 7) != sample_x(A, 64, 8)


def test_required_guard_bits_grow_with_n():
    x = DyadicRational(3, 1)
    small = ladder_frac_powers(x, 1, 16)
    # synthetic long sample: required_guard_bits only reads base and n_max
    big = UnitSample(n_max=40000, points=np.zeros(40000), err_bound=1.0,
                     base=x, xi=DyadicRational.from_int(1))
    assert required_guard_bits(big, 1.0) > required_guard_bits(small, 1.0)


@pytest.mark.parametrize("A,N,s", [("1.02", 2000, 0.01), ("1.02", 500, 1.0),
                                   ("3/2", 3000, 0.5), ("5", 700, 2.0)])
def test_the_hint_is_the_least_guard_bit_count_that_passes(A, N, s):
    """The ladder at the hinted guard bits stores `ladder_bound` and passes
    the gate; one bit fewer fails it with the same hint."""
    for seed in range(4):
        x = sample_x(as_dyadic(A), 64, seed)
        g = required_guard_bits(ladder_frac_powers(x, 1, N, 32), s)
        passing = ladder_frac_powers(x, 1, N, g)
        assert passing.err_bound == ladder_bound(x, N, g)
        ensure_window_resolution(passing, s)
        if g > 32:
            with pytest.raises(PrecisionError) as err:
                ensure_window_resolution(ladder_frac_powers(x, 1, N, g - 1),
                                         s)
            assert err.value.required_guard_bits == g


def test_ladders_are_checked_before_they_run_with_the_largest_hint():
    """ensure_ladders_resolve refuses with the largest stored bound and the
    largest hint of the ladders it checks, and passes at that hint."""
    xs = [sample_x(as_dyadic("1.02"), 64, seed) for seed in range(1, 11)]
    ladders = [ladder_frac_powers(x, 1, 2000, 32) for x in xs]
    with pytest.raises(PrecisionError) as err:
        ensure_ladders_resolve(xs, 2000, 32, 0.01)
    g = max(required_guard_bits(smp, 0.01) for smp in ladders)
    assert err.value.required_guard_bits == g
    assert err.value.check.value == max(smp.err_bound for smp in ladders)
    assert err.value.check.bound == 0.01 / 2000 / 100
    ensure_ladders_resolve(xs, 2000, g, 0.01)
    for x in xs:
        ensure_window_resolution(ladder_frac_powers(x, 1, 2000, g), 0.01)


def test_a_unit_sample_is_checked_without_n_sized_temporaries():
    """Building a sample of 10^6 float64 points allocates no copy and no
    mask of them."""
    import tracemalloc
    pts = np.random.default_rng(1).random(10 ** 6)
    tracemalloc.start()
    try:
        sample = UnitSample(n_max=len(pts), points=pts, err_bound=0.0,
                            base=DyadicRational(3, 1),
                            xi=DyadicRational.from_int(1))
        sample.prefix(10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_ladder_rejects_x_below_one():
    with pytest.raises(DomainError):
        ladder_frac_powers(DyadicRational(1, 1), 1, 10)


def read_sample(path) -> UnitSample:
    """A sample file read back: a key=value header line, then one point
    per line."""
    header, *lines = path.read_text(encoding="ascii").splitlines()
    fields = dict(item.split("=", 1) for item in header.split())
    return UnitSample(n_max=int(fields["N"]),
                      points=np.array([float(v) for v in lines]),
                      err_bound=float(fields["err_bound"]),
                      base=DyadicRational.parse(fields["x"]),
                      xi=DyadicRational.parse(fields["xi"]),
                      guard_bits=int(fields["g"]))


def test_save_load_roundtrip(tmp_path):
    x = sample_x(DyadicRational(3, 1), 64, 5)
    sample = ladder_frac_powers(x, 1, 50)
    path = tmp_path / "sample.txt"
    save_sample(sample, path)
    back = read_sample(path)
    assert back.n_max == sample.n_max
    assert back.base == sample.base
    assert back.xi == sample.xi
    assert back.err_bound == sample.err_bound
    assert np.array_equal(back.points, sample.points)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -0.5])
def test_unit_sample_refuses_points_outside_the_unit_interval(bad):
    with pytest.raises(DomainError):
        UnitSample(n_max=3, points=[0.1, bad, 0.2], err_bound=0.0,
                   base=DyadicRational(3, 1), xi=DyadicRational.from_int(1))


def test_window_resolution_guard_rejects_coarse_samples():
    sample = UnitSample(n_max=100, points=np.full(100, 0.5),
                        err_bound=0.25, base=DyadicRational(3, 1),
                        xi=DyadicRational.from_int(1))
    with pytest.raises(PrecisionError) as err:
        ensure_window_resolution(sample, 1.0)
    # the record of the gate err_bound < (s/N)/100, then the guard bits
    # whose ladder bound would pass it
    check, g = err.value.check, err.value.required_guard_bits
    assert (check.value, check.bound) == (0.25, 1.0 / 100 / 100.0)
    assert check.margin == 2500.0
    assert g == required_guard_bits(sample, 1.0)
    assert str(err.value) == ("err_bound against the (s/N)/100 gate: "
                              f"0.25 > 0.0001 (margin 2.5e+03); regenerate "
                              f"with guard bits >= {g}")
    # a sample without a ladder base gets the record and no hint
    control = UnitSample(n_max=100, points=np.full(100, 0.5),
                         err_bound=0.25, base=DyadicRational.from_int(1),
                         xi=DyadicRational.from_int(1))
    with pytest.raises(PrecisionError) as err:
        ensure_window_resolution(control, 1.0)
    assert err.value.required_guard_bits is None
    assert str(err.value) == str(err.value.check)


# ---- the blocked ladder -------------------------------------------------

def block_length(x: DyadicRational, N: int, g: int) -> int:
    """The J the ladder uses for (x, N, g)."""
    return _block_length(precision_budget(x, N, g).total_bits, x.exponent, N)


def assert_matches_oracle(x: DyadicRational, xi, N: int, g=None) -> None:
    """Ladder points sit within err_bound of the exact oracle, and within
    the derivation's 2^-g (N/2 + 1/4) plus the two outputs' rounding."""
    lad = ladder_frac_powers(x, xi, N, g)
    exact = exact_frac_powers(x, xi, N)
    d = np.abs(lad.points - exact.points)
    d = float(np.minimum(d, 1.0 - d).max())
    assert d <= lad.err_bound + exact.err_bound
    derived = Fraction(2 * N + 1, 4 << lad.guard_bits) + Fraction(2, 2 ** 53)
    assert Fraction(d) <= derived


BASES = st.one_of(
    # integer bases (e = 0, J = 1), powers of two among them: exact ties
    st.sampled_from([2, 3, 4, 7]).map(DyadicRational.from_int),
    # x = 1 + k / 2^e in (1, 8]
    st.integers(1, 64).flatmap(lambda e: st.integers(1, 7 << e).map(
        lambda k, e=e: DyadicRational((1 << e) + k, e))),
)
SEEDS = st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(3, 1024),
                         Fraction(2 ** 100 + 1, 2 ** 100), Fraction(3),
                         Fraction(-3, 4)])


@given(BASES, SEEDS, st.one_of(st.integers(1, 300), st.sampled_from([1, 2])),
       st.sampled_from([32, 40, None]))
@settings(max_examples=120, deadline=None)
def test_blocked_ladder_matches_exact_oracle(x, xi, N, g):
    assert_matches_oracle(x, as_dyadic(xi), N, g)


@pytest.mark.parametrize("x", [DyadicRational(3, 1), DyadicRational(129, 7),
                               sample_x(as_dyadic(1.02), 64, 3),
                               DyadicRational.from_int(3)],
                         ids=["3/2", "129/128", "1.02-draw", "3"])
def test_blocked_ladder_block_edges(x):
    """N of one block, of one block plus one, and of no whole number of
    blocks; an integer base steps one at a time (J = 1)."""
    g = 32
    Js = {N: block_length(x, N, g) for N in [*range(1, 301), 997, 2000]}
    sizes = {1, 2} | {N for N, J in Js.items() if N in (J, J + 1)}
    ragged = [N for N, J in Js.items() if N % J]
    sizes |= set(ragged[:3] + ragged[-1:])
    if x.exponent == 0:
        assert set(Js.values()) == {1}
    else:
        assert any(Js[N] > 1 and N % Js[N] for N in sizes)
    for N in sorted(sizes):
        for xi in (1, DyadicRational(5, 2)):
            assert_matches_oracle(x, as_dyadic(xi), N, g)


def test_blocked_ladder_tail_windows():
    """Block starts with F_b below the window's t fraction bits take the
    window V mod 2^(F_b + e*J) without truncation; several occur here."""
    x, N, g = DyadicRational(129, 7), 2000, 32
    budget = precision_budget(x, N, g)
    J = block_length(x, N, g)
    t = g + J * ceil_log2_ratio(x, 1) + 2
    tail = [b for b in range(0, N, J) if budget.frac_bits[b] < t]
    assert J > 1 and len(tail) > 3
    assert_matches_oracle(x, as_dyadic(Fraction(5, 4)), N, g)


def test_blocked_ladder_suffix_at_sweep_scale():
    """The last 512 of N = 20000 points, where rounding has built up over
    every block, against the exact oracle started at x^(N - 512)."""
    x, N, tail = sample_x(as_dyadic(1.02), 64, 11), 20000, 512
    lad = ladder_frac_powers(x, 1, N)
    exact = exact_frac_powers(x, x ** (N - tail), tail)
    d = np.abs(lad.points[N - tail:] - exact.points)
    d = np.minimum(d, 1.0 - d)
    assert float(d.max()) <= lad.err_bound + exact.err_bound


def reference_ladder_points(x: DyadicRational, xi: DyadicRational, N: int,
                            g: int) -> np.ndarray:
    """The ladder's points by the per-point window loop: the same chain
    of block starts, then each block's window stepped by p one point at a
    time and each point one correctly rounded int / int."""
    p, e = x.numerator, x.exponent
    q, f = xi.numerator, xi.exponent
    budget = precision_budget(x, N, g)
    F = budget.frac_bits
    J, t = _block_shape(x, N, g, budget.total_bits)
    pJ = p ** J
    keep = (1 << (t + e * J)) - 1
    pts = []
    V = _round_shift(q * p, (f + e) - F[0])
    for b in range(0, N, J):
        if b:
            V = _round_shift(V * pJ, F[b - J] + e * J - F[b])
        s = F[b] - t
        W = (V >> s if s >= 0 else V << -s) & keep
        for i in range(min(J, N - b)):
            den = 1 << (t + e * i)
            pts.append(min((W & (den - 1)) / den, ONE_MINUS))
            W = (W * p) & keep
    return np.array(pts)


D = DyadicRational
PACKED_GRID = [
    # integer bases: e = 0, J = 1, one block per point, fields of 36-39 bits
    *[(D.from_int(p), xi, N, g) for p in (3, 7)
      for xi in (D(1, 0), D(-3, 2)) for N in (1, 2, 333) for g in (32, None)],
    # 3/2 with N <= 7 and g = 32: fields of at most 64 bits
    *[(D(3, 1), D(5, 2), N, 32) for N in (1, 2, 3, 6, 7)],
    # 129/128: the block length capped at N, N below its uncapped value
    *[(D(129, 7), xi, N, g) for xi in (D(1, 0), D(3, 10))
      for N in (2, 3, 5, 11, 1000) for g in (32, 40, 200)],
    (D(5, 2), D((1 << 100) + 1, 100), 1337, None),
    (D(1025, 10), D(-3, 2), 4000, 32),
    *[(sample_x(as_dyadic(1.02), 64, seed), D(1, 0), N, None)
      for seed, N in ((1, 5000), (2, 4321), (3, 20000))],
]


def test_packed_ladder_points_equal_the_per_point_loop():
    shapes = []
    for x, xi, N, g in PACKED_GRID:
        g = default_guard_bits(N) if g is None else g
        lad = ladder_frac_powers(x, xi, N, g)
        assert np.array_equal(lad.points, reference_ladder_points(x, xi, N, g))
        total = precision_budget(x, N, g).total_bits
        J, t = _block_shape(x, N, g, total)
        shapes.append((x.exponent, N, J, g, t + x.exponent * (J - 1),
                       x.exponent and math.isqrt(total // x.exponent)))
    assert any(e == 0 for e, *_ in shapes)
    assert any(N % J for _, N, J, *_ in shapes)
    assert any(1 < J == N < free for _, N, J, _, _, free in shapes)
    assert any(g == 32 for *_, g, _, _ in shapes)
    assert any(widest <= 64 and N > 1 for _, N, _, _, widest, _ in shapes)
    assert any(widest > 512 for *_, widest, _ in shapes)


def words_of(fields: list, nwords: int) -> np.ndarray:
    """Rows of little-endian uint64 words, one row per integer."""
    raw = b"".join(v.to_bytes(8 * nwords, "little") for v in fields)
    return np.frombuffer(raw, dtype="<u8").reshape(len(fields), nwords)


def unit_quotient(field: int, L: int) -> float:
    return min((field & ((1 << L) - 1)) / (1 << L), ONE_MINUS)


@pytest.mark.parametrize("L", [1, 36, 63, 64, 65, 100, 127, 128, 129, 191,
                               300])
def test_unit_floats_round_as_int_division(L):
    rng = random.Random(L)
    nwords = L // 64 + 2
    # random rows, with junk above bit L that must be ignored
    fields = [rng.getrandbits(64 * nwords) for _ in range(300)]
    # all ones: 1.0 after rounding once L >= 54, then clamped below 1
    fields.append((1 << L) - 1)
    fields.append((rng.getrandbits(64) << L) | ((1 << L) - 1))
    # a 53-bit significand led at bit h, then the round bit set: an exact
    # half-ulp tie (to even, both ways), and with a sticky bit at bit 0
    for d in range(0, 14):
        h = L - 1 - d
        if h >= 54:
            for m in ((1 << 52) | rng.getrandbits(52) | 1,
                      (1 << 52) | (rng.getrandbits(52) & ~1)):
                tie = (m << (h - 52)) | (1 << (h - 53))
                fields += [tie, tie | 1]
    # fractions below 2^-9 with nonzero low bits: the exact path
    for k in range(10, min(L, 80)):
        fields.append((1 << (L - k)) | rng.getrandbits(L - k) | 1)
    got = _unit_floats(words_of(fields, nwords), L)
    want = [unit_quotient(v, L) for v in fields]
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array(want))
    if L >= 54:
        assert ONE_MINUS in got


def test_unit_floats_need_the_exact_path_below_two_to_minus_nine():
    """Where the top 64 bits of the field are below 2^55 and the lower
    bits are not zero, the sticky-ORed top word alone misrounds."""
    L = 300
    field = (1 << 200) + 1
    top = (field >> (L - 64)) | 1
    assert float(top) * 2.0 ** -64 != field / (1 << L)
    assert _unit_floats(words_of([field], 5), L)[0] == field / (1 << L)


def ceil_log2_exact(x: DyadicRational, m: int) -> int:
    """ceil(m log2 x) from the bit length of p^m - 1."""
    return (x.numerator ** m - 1).bit_length() - m * x.exponent


@pytest.mark.parametrize("x", [
    DyadicRational(3, 1), sample_x(DyadicRational(3, 1), 48, 9),
    DyadicRational.from_int(2), DyadicRational.from_int(4),
    DyadicRational.from_int(5),
    DyadicRational((1 << 40) + 1, 39), DyadicRational((1 << 40) - 1, 39),
    # float log2 of 2^60 - 1 is exactly 60.0: every m is a tie that only
    # the exact path settles (ceil(m log2 p) = 60 m, not 60 m + 1)
    DyadicRational((1 << 60) - 1, 59),
], ids=["3/2", "48-bit", "2", "4", "5", "near-tie-above", "near-tie-below",
        "float-tie"])
def test_vectorized_precision_budget_matches_scalar_schedule(x):
    N, g = 700, default_guard_bits(700)
    budget = precision_budget(x, N, g)
    scalar = tuple(ceil_log2_ratio(x, N - n) + g for n in range(1, N + 1))
    assert budget.frac_bits == scalar
    assert all(type(F) is int for F in budget.frac_bits)
    assert all(budget.frac_bits[n - 1] == ceil_log2_exact(x, N - n) + g
               for n in range(1, N + 1, 37))


def test_ladder_work_charges_the_blocked_ladder():
    """ceil(N / J) full-width products plus N window steps of t + e*J bits,
    with the ladder's own J and t."""
    from powcorr.hpgen import ladder_work
    for x, N, g in ((DyadicRational(3, 1), 59049, 32),
                    (sample_x(as_dyadic(1.02), 64, 1), 20000, None),
                    (DyadicRational(129, 7), 5, 40),
                    (DyadicRational.from_int(3), 100, None)):
        g_used = default_guard_bits(N) if g is None else g
        total = precision_budget(x, N, g_used).total_bits
        J = block_length(x, N, g_used)
        t = g_used + J * ceil_log2_ratio(x, 1) + 2
        assert ladder_work(x, N, g) == (math.ceil(N / J) * total
                                        + N * (t + x.exponent * J))
    # a block of J steps costs far less than J full-width steps did
    x = sample_x(as_dyadic(1.02), 64, 1)
    assert 3 * ladder_work(x, 20000) < 20000 * precision_budget(
        x, 20000, default_guard_bits(20000)).total_bits


@pytest.mark.parametrize("x", [
    DyadicRational(3, 1), sample_x(as_dyadic(1.02), 64, 1),
    sample_x(as_dyadic(1.02), 64, 2)], ids=["3/2", "1.02+u-1", "1.02+u-2"])
@pytest.mark.parametrize("small, large", [(500, 2000), (37, 500)])
def test_a_prefix_is_the_smaller_ladder_with_the_larger_bound(x, small,
                                                             large):
    """The first `small` points of the `large` ladder are the `small`
    ladder's bit for bit (their default guard bits differ, so this holds
    wherever no exact value lies within about 2^-g of a binary64 rounding
    boundary, here everywhere), and the prefix carries the larger ladder's
    bound, which is a sup over every n <= large."""
    big = ladder_frac_powers(x, 1, large)
    own = ladder_frac_powers(x, 1, small)
    part = big.prefix(small)
    assert part.n_max == small
    assert np.array_equal(part.points, own.points)
    assert np.shares_memory(part.points, big.points)
    assert (part.err_bound, part.guard_bits) == (big.err_bound,
                                                 big.guard_bits)
    assert part.err_bound >= own.err_bound
    assert (part.base, part.xi) == (big.base, big.xi)
    assert big.prefix(large) is big
    for bad in (0, large + 1):
        with pytest.raises(DomainError):
            big.prefix(bad)


def test_allowed_cpus_reads_the_affinity_set():
    import os
    from powcorr.hpgen import allowed_cpus
    if hasattr(os, "sched_getaffinity"):
        assert allowed_cpus() == len(os.sched_getaffinity(0))
    assert 1 <= allowed_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("workers, jobs, threads", [
    (None, 1, "all"), (0, 1, "all"), (5000, 1, "all"), (1, 1, 1),
    (1, 20, 1), (None, 20, 1), (0, 20, 1), (3, 20, 1), (None, 0, "all")])
def test_job_threads_go_to_jobs_in_this_process_only(workers, jobs,
                                                     threads):
    from powcorr.hpgen import allowed_cpus, job_threads
    want = allowed_cpus() if threads == "all" else threads
    assert job_threads(workers, jobs) == want
