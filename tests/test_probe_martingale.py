"""Block sums, conditional expectations, and the tower property.

The Y oracle below recomputes every pair term directly from the sample
points, with no window enumeration, so agreement must be bit-exact.
"""

import math
import random

import numpy as np
import pytest

from powcorr import DomainError, DyadicRational, ResourceError
from powcorr.hpgen import ladder_frac_powers, sample_x
from powcorr.mollify import centered, make_outer
from powcorr.probe import (_parity_term_counts, _term_count, block_sum_Y,
                           blocks, cond_exp_Z, cond_exp_cross,
                           filtration, parity_block_sums,
                           parity_identity_check,
                           parity_moment, parity_moment_both,
                           second_moment_slope, tower_check)

A32 = DyadicRational(3, 1)


@pytest.fixture(scope="module")
def scheme():
    return blocks(1024)


@pytest.fixture(scope="module")
def G(scheme):
    return centered(make_outer(1.0, scheme.N))


@pytest.fixture(scope="module")
def sample():
    x = sample_x(A32, 64, 1)
    return ladder_frac_powers(x, 1, 1024)


def y_oracle(sample, k, scheme, G) -> float:
    """Direct double loop over the block's pairs."""
    pts = sample.points
    total = 0.0
    for n in scheme.block(k):
        for m in range(1, n):
            total += G.eval(float(pts[n - 1] - pts[m - 1]))
    return total


@pytest.mark.parametrize("k", [1, 2, 5, 511])
def test_block_sum_matches_direct_loop_bitwise(sample, scheme, G, k):
    assert block_sum_Y(sample, k, scheme, G) == y_oracle(sample, k, scheme, G)


def test_block_sum_respects_the_crude_bound(sample, scheme, G):
    # |Y_k| <= (number of pair terms) * sup |G|
    k = 512
    terms = sum(n - 1 for n in scheme.block(k))
    sup_abs = max(abs(1 - G.mean_f), G.mean_f)
    assert abs(block_sum_Y(sample, k, scheme, G)) <= terms * sup_abs


def test_parity_split_sums_to_all_blocks(sample, scheme, G):
    odd, even = parity_block_sums(sample, scheme, G)
    full = sum(block_sum_Y(sample, k, scheme, G)
               for k in range(1, scheme.n_blocks + 1))
    assert odd + even == pytest.approx(full, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("K", [2, 3])
def test_parity_term_counts_match_the_blockwise_sum(K):
    scheme = blocks(K ** 10)
    counts = [_term_count(k, K) for k in range(1, scheme.n_blocks + 1)]
    t_odd, t_even = _parity_term_counts(scheme)
    assert (t_odd, t_even) == (sum(counts[0::2]), sum(counts[1::2]))
    assert t_odd + t_even == scheme.N * (scheme.N - 1) // 2


def test_parity_block_sums_locked_bits(sample, scheme, G):
    odd, even = parity_block_sums(sample, scheme, G)
    assert (odd.hex(), even.hex()) == ("0x1.8ab1fa82c9800p-3",
                                       "0x1.89ff800000000p+5")


def test_parity_identity_holds_at_machine_precision(scheme, G):
    for seed in (1, 2, 3):
        x = sample_x(A32, 64, seed)
        sam = ladder_frac_powers(x, 1, scheme.N)
        lhs, rhs, rel = parity_identity_check(sam, scheme, G)
        assert rel <= 1e-9


def test_parity_identity_lock(sample, scheme, G):
    lhs, rhs, rel = parity_identity_check(sample, scheme, G)
    assert lhs == pytest.approx(98.88495627806924, rel=1e-9)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_parity_identity_refuses_giant_samples(scheme, G):
    x = sample_x(A32, 64, 1)
    big = ladder_frac_powers(x, 1, 59049)
    with pytest.raises(ResourceError):
        parity_identity_check(big, blocks(59049), centered(make_outer(1.0, 59049)))


def test_cond_exp_Z_locked_value(scheme, G):
    assert cond_exp_Z(A32, 1, scheme, G, 0) == pytest.approx(
        0.0004451328438329319, rel=1e-8)


@pytest.mark.parametrize("k, atom, value", [
    (3, 0, -0.001574322771645622), (3, 67, -0.0030971715247269903),
    (3, 134, 0.0029261679389044476), (4, 0, -0.000327786609889226),
    (4, 332, -0.003960443234053496), (4, 664, 0.0031465985929596714)])
def test_cond_exp_Z_of_first_middle_and_last_atom_is_locked(scheme, G, k,
                                                           atom, value):
    """Values, repr for repr, of the materialized-partition route that
    `cond_exp_Z` took before it read its atom off the filtration runs."""
    assert filtration(A32, k, scheme.K).N_k == {3: 135, 4: 665}[k]
    assert repr(cond_exp_Z(A32, k, scheme, G, atom)) == repr(value)


def test_cond_exp_Z_matches_dense_riemann(scheme, G):
    # k = 1, atom [3/2, 2): the single pair term is G(x^2 - x); the grid
    # must be much finer than the 1/N^2 ramp for the trapezoid to keep up
    xs = np.linspace(1.5, 2.0, 8_000_001)
    vals = G.eval_array(xs * xs - xs)
    oracle = float(np.trapezoid(vals, xs)) / 0.5
    assert cond_exp_Z(A32, 1, scheme, G, 0) == pytest.approx(oracle, abs=5e-8)


@pytest.mark.parametrize("k", [1, 2])
def test_tower_property(scheme, G, k):
    weighted, direct, rel = tower_check(A32, k, scheme, G)
    assert rel <= 1e-9
    assert weighted == pytest.approx(direct, rel=1e-6, abs=1e-15)


def test_tower_locked_values(scheme, G):
    weighted, _, _ = tower_check(A32, 1, scheme, G)
    assert weighted == pytest.approx(0.00011313543387472336, rel=1e-8)


def test_cond_exp_cross_locked_values(scheme, G):
    rep = cond_exp_cross(A32, 1, 3, scheme, G)
    assert rep.verdict == "reported"
    assert rep.measured == pytest.approx(
        (-0.00015667688573769295, -0.00021885235649233073,
         0.0003872640322731165, 8.58287900162985e-05), rel=1e-6)


def test_cond_exp_cross_needs_two_levels_between(scheme, G):
    with pytest.raises(DomainError):
        cond_exp_cross(A32, 2, 3, scheme, G)


def test_parity_moment_locked_values(scheme, G):
    both = parity_moment_both(A32, scheme, G, 100, 31)
    assert both["odd"] == pytest.approx(482.7694507420416, rel=1e-9)
    assert both["even"] == pytest.approx(553.3778314816259, rel=1e-9)
    rep = parity_moment(A32, scheme, G, "odd", 100, 31)
    assert rep.verdict == "reported"
    assert rep.measured[0] == pytest.approx(482.7694507420416, rel=1e-9)


def test_parity_moment_draws_on_a_pool_sum_in_draw_order(scheme, G):
    # the one-process loop the pool replaced, summing squares in draw order
    sq_odd = sq_even = 0.0
    for i in range(100):
        draw = ladder_frac_powers(sample_x(A32, 32, 31 + i), 1, scheme.N)
        y_odd, y_even = parity_block_sums(draw, scheme, G)
        sq_odd += y_odd * y_odd
        sq_even += y_even * y_even
    want = {"odd": sq_odd / 100, "even": sq_even / 100}
    for workers in (1, 2, None):
        assert parity_moment_both(A32, scheme, G, 100, 31,
                                  workers=workers) == want


def test_parity_moment_validates_inputs(scheme, G):
    with pytest.raises(DomainError):
        parity_moment(A32, scheme, G, "both", 100, 31)
    with pytest.raises(DomainError):
        parity_moment(A32, scheme, G, "odd", 10, 31)


def test_second_moment_slope_needs_two_sizes():
    with pytest.raises(DomainError):
        second_moment_slope(A32, 1.0, mc_samples=100, seed=1, Ns=(1024,))


def test_second_moment_slope_enforces_minimum_draws():
    # the full-depth Monte Carlo trend lives in the acceptance gate; here
    # only the input gates are cheap enough to exercise
    with pytest.raises(DomainError):
        second_moment_slope(A32, 1.0, mc_samples=2, seed=5,
                            Ns=(1024, 59049))
