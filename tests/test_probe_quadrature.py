"""Geometric probes: oscillatory bounds, level sets, window overlaps.

Frozen constants below were produced by independent dense-grid oracles
(plain Riemann sums with kink-aware spacing) and by exact rational
root sign checks; they are regression locks, not tautologies.
"""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powcorr import DomainError, DyadicRational, NumericalError, as_dyadic
from powcorr import probe
from powcorr.mollify import Mollifier, centered, make_outer
from powcorr.probe import (blocks, cond_exp_Z, convexity_measure,
                           filtration, level_intervals, pair_overlap_integral,
                           vdc_bound_check)
from powcorr.quad import QuadConfig, gauss_rule, monotone_root

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


def test_overlap_threshold_matches_fraction_loop():
    # the integer comparison against the Fraction loop it replaced, on
    # bases with exponents 1 to 6 of the 2^-6 grid and a few at 2^-52
    def reference(m2, A):
        af = A.as_fraction()
        for m in range(m2 + 1, 501):
            L = math.floor(af ** m - af ** m2)
            if L >= 3 and Fraction(L - 2) ** 2 >= af ** m:
                return m
        return None

    bases = [DyadicRational(num, 6) for num in range(65, 192)]
    bases += [DyadicRational.from_float(1.0 + k / 7.0) for k in (1, 3, 5, 9)]
    for m2 in range(1, 15):
        for A in bases:
            assert probe._overlap_threshold(m2, A) == reference(m2, A), (m2, A)


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
    with pytest.raises(NumericalError, match="^overlap integral against its "
                       "fitted envelope: ") as err:
        pair_overlap_integral(2, 1, 1, A, F)
    assert err.value.check.value == value
    assert err.value.check.margin == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# window-piece integrals: one decomposition, any node count

def scalar_newton_root(g, dg, target, lo, hi):
    """Root of g(x) = target on [lo, hi] for increasing g: at most 80
    Newton steps with a bisection safeguard from the bracket middle."""
    glo, ghi = g(lo) - target, g(hi) - target
    assert glo <= 0 <= ghi, "root not bracketed"
    if glo == 0:
        return lo
    if ghi == 0:
        return hi
    x = 0.5 * (lo + hi)
    for _ in range(80):
        val = g(x) - target
        if val > 0:
            hi = x
        elif val < 0:
            lo = x
        else:
            return x
        d = dg(x)
        nxt = x - (val / d if d > 0 else math.inf)
        if abs(nxt - x) <= 4.0 * math.ulp(x):
            return nxt if lo < nxt < hi else x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        x = nxt
    return x


def scalar_newton_cuts(n, m, lo, hi, F):
    """Reference cuts inside (lo, hi): one scalar Newton root per window
    boundary M -+ p, M -+ edge strictly between the float g(lo), g(hi),
    each bracketed from the previous root on."""
    g = lambda x: x ** n - x ** m
    dg = lambda x: n * x ** (n - 1) - m * x ** (m - 1)
    glo, ghi = g(lo), g(hi)
    cuts, cursor = [], lo
    for M in range(math.floor(glo), math.ceil(ghi) + 1):
        for off in sorted({-F.edge_f, -F.p_f, F.p_f, F.edge_f}):
            if glo < M + off < ghi:
                cursor = scalar_newton_root(g, dg, M + off, cursor, hi)
                cuts.append(cursor)
    return cuts


def per_piece_reference(terms, span, intervals, F, nodes):
    """Reference: every term's cuts over the dyadic span found again at
    each node count and bisected as a list for each interval, scalar
    midpoint phases, one Gauss rule and one dot product per ramp piece,
    one running sum."""
    gs = [lambda x, n=n, m=m: x ** n - x ** m for n, m in terms]
    cut_lists = [sorted(probe._term_cuts(n, m, *span, F).ravel().tolist())
                 for n, m in terms]
    xs, ws = gauss_rule(nodes)
    total = 0.0
    for lo, hi in intervals:
        if not hi > lo:
            continue
        cuts = {c for cut_list in cut_lists for c in cut_list[
            bisect.bisect_right(cut_list, lo):bisect.bisect_left(cut_list, hi)]}
        edges = [lo] + sorted(cuts) + [hi]
        for x0, x1 in zip(edges[:-1], edges[1:]):
            if not x1 > x0:
                continue
            xm = 0.5 * (x0 + x1)
            u = max(abs(v - round(v)) for v in [g(xm) for g in gs])
            if u >= F.edge_f:
                continue
            if u <= F.p_f:
                total += x1 - x0
                continue
            half = 0.5 * (x1 - x0)
            vals = F.eval_array(gs[0](xm + half * xs))
            for g in gs[1:]:
                vals = vals * F.eval_array(g(xm + half * xs))
            total += half * float(np.dot(ws, vals))
    return total


A52 = A32 + DyadicRational.from_int(1)
Y_TERMS = [(3, 1), (3, 2), (4, 1), (4, 3)]
OVERLAPS = [(6, 3, 3), (8, 6, 2), (9, 6, 3)]


def y_atom():
    return filtration(A32, 2, 2).atom(1)


def preimage_intervals(n, m, a, b, w):
    """The nonempty level intervals of x^n - x^m for the windows M -+ w, as
    `level_intervals` builds them from `probe._window_ends`."""
    ms, (los, his) = probe._window_ends(n, m, a, b, (-w, w))
    return [probe.LevelInterval(M, lo, hi)
            for M, lo, hi in zip(ms, los.tolist(), his.tolist()) if hi > lo]


def overlap_supports(n, m1, F):
    return [(piece.lo, piece.hi)
            for piece in preimage_intervals(n, m1, A32, A52, F.edge)]


@pytest.mark.parametrize("term", Y_TERMS)
def test_window_integral_of_a_Y_term_matches_the_per_piece_loop(term):
    # each interval of one run against the reference over it alone: the
    # filtration's level-2 atoms, cut over [A, A + 1], and one atom cut
    # over itself
    F = make_outer(1.0, 1024)
    zs = filtration(A32, 2, 2).z
    atoms = [(float(z0), float(z1)) for z0, z1 in zip(zs, zs[1:])]
    z0, z1 = y_atom()
    atom = [(float(z0), float(z1))]
    for span, intervals in (((A32, A52), atoms), ((z0, z1), atom)):
        cuts = {term: probe._term_cuts(*term, *span, F)}
        run = probe._window_integral([(term,)], cuts, intervals, F)
        for nodes in (12, 24):
            values = run(nodes)
            assert len(values) == len(intervals)
            for value, interval in zip(values.tolist(), intervals):
                assert value == per_piece_reference((term,), span,
                                                    [interval], F, nodes)


def test_window_integral_sums_each_interval_over_its_products_in_order():
    # a Y block: the products' per-interval values added in product order
    F = make_outer(1.0, 1024)
    zs = filtration(A32, 2, 2).z
    atoms = [(float(z0), float(z1)) for z0, z1 in zip(zs, zs[1:])]
    cuts = {t: probe._term_cuts(*t, A32, A52, F) for t in Y_TERMS}
    block = probe._window_integral([(t,) for t in Y_TERMS], cuts, atoms, F)
    alone = [probe._window_integral([(t,)], cuts, atoms, F)(12)
             for t in Y_TERMS]
    total = np.zeros(len(atoms))
    for values in alone:
        total += values
    assert block(12).tolist() == total.tolist()


OVERLAP_CASES = [(tup, make_outer(1.0, 100)) for tup in OVERLAPS] + [
    ((6, 3, 3), make_outer(0.5, 2))]      # F.edge = 1/2: the windows touch


@pytest.mark.parametrize("tup, F", OVERLAP_CASES,
                         ids=["tup0", "tup1", "tup2", "tup-touching"])
def test_window_integral_of_overlap_supports_matches_the_per_piece_loop(
        tup, F):
    # the run over [A, A + 1] drops the pieces off the first factor's
    # supports: the reference integrates over the supports alone
    n, m1, m2 = tup
    supports = overlap_supports(n, m1, F)
    terms = ((n, m1), (n, m2))
    cuts = {t: probe._term_cuts(*t, A32, A52, F) for t in terms}
    run = probe._window_integral([terms], cuts, [(A32, A52)], F)
    for nodes in (12, 24):
        assert run(nodes).tolist() == [per_piece_reference(
            terms, (A32, A52), supports, F, nodes)]


def test_window_ends_do_not_depend_on_the_offsets_sharing_the_pass():
    # the four window ends of a term in one pass are the ends of the two
    # one-width passes, bit for bit, the touching widths 1/2 included
    for F in (make_outer(1.0, 100), make_outer(0.5, 2)):
        for n, m in ((6, 3), (8, 2), (9, 6)):
            ms, ends = probe._window_ends(n, m, A32, A52,
                                          (-F.edge, -F.p, F.p, F.edge))
            for w, rows in ((F.edge, [0, 3]), (F.p, [1, 2])):
                one_ms, one = probe._window_ends(n, m, A32, A52, (-w, w))
                assert one_ms == ms and one.tolist() == ends[rows].tolist()


def test_level_set_cuts_match_the_scalar_newton_cuts():
    # the same cuts, to the 2^-48 grid bracket, on the atom and the
    # supports above.  Only cuts farther than that from the interval's ends
    # are compared: the scalar finder also re-finds a support's own end, an
    # ulp inside it, where float rounding puts its target inside
    # (g(lo), g(hi)), and such a piece is narrower than the bracket
    F = make_outer(1.0, 1024)
    z0, z1 = y_atom()
    cases = [(term, (z0, z1), [(float(z0), float(z1))], F)
             for term in Y_TERMS]
    F = make_outer(1.0, 100)
    for n, m1, m2 in OVERLAPS:
        supports = overlap_supports(n, m1, F)
        cases += [((n, m), (A32, A52), supports, F) for m in (m1, m2)]
    seen = 0
    for (n, m), span, intervals, G in cases:
        cuts = np.sort(probe._term_cuts(n, m, *span, G), axis=None)
        for lo, hi in intervals:
            near = 4 * 2.0 ** -48
            new = cuts[(cuts > lo + near) & (cuts < hi - near)]
            old = [c for c in scalar_newton_cuts(n, m, lo, hi, G)
                   if lo + near < c < hi - near]
            assert len(new) == len(old), (n, m, lo, hi)
            assert np.all(np.abs(new - np.array(old)) <= near)
            seen += len(new)
    assert seen > 1000


def test_each_certified_window_integral_decomposes_once(monkeypatch):
    # one set of cuts per (n, m) term per call, over the range the call
    # integrates: a Z atom alone, [A, A + 1] for the tower check (shared by
    # its atoms and its direct integral) and for the overlap; the coarse
    # and fine runs of one doubling check share their pieces, and a run
    # evaluates every ramp piece in one window call per factor
    calls = []
    evals = []
    term_cuts = probe._term_cuts
    eval_array = Mollifier.eval_array

    def counted(n, m, a, b, F):
        calls.append((n, m, a, b))
        return term_cuts(n, m, a, b, F)

    def counted_eval(self, ts):
        evals.append(np.shape(ts))
        return eval_array(self, ts)

    monkeypatch.setattr(probe, "_term_cuts", counted)
    monkeypatch.setattr(Mollifier, "eval_array", counted_eval)
    scheme, G = blocks(1024), centered(make_outer(1.0, 1024))
    block2 = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    cond_exp_Z(A32, 2, scheme, G, 0)
    z0, z1 = filtration(A32, 2, 2).atom(0)
    assert calls == [(n, m, z0, z1) for n, m in block2]
    calls.clear()
    probe.tower_check(A32, 2, scheme, G)
    assert calls == [(n, m, A32, A52) for n, m in block2]
    # one window call per term per run of each of the tower's two certified
    # quantities (every atom, the direct integral), whatever the atom count
    for k in (2, 3):
        evals.clear()
        probe.tower_check(A32, k, scheme, G)
        assert filtration(A32, k, 2).N_k > 5
        assert len(evals) == 2 * 2 * probe._term_count(k, 2)
    calls.clear()
    probe.cond_exp_cross(A32, 1, 3, scheme, G, atom_sample=2)
    atoms = [filtration(A32, 1, 2).atom(i) for i in (0, 4)]
    assert sorted(calls) == sorted((n, m, *atom) for atom in atoms
                                   for n in scheme.block(3)
                                   for m in range(1, n))
    F = make_outer(1.0, 100)
    for tup in OVERLAPS:
        calls.clear()
        evals.clear()
        pair_overlap_integral(*tup, A32, F)
        assert sorted(calls) == sorted((tup[0], m, A32, A52)
                                       for m in set(tup[1:]))
        ramps = evals[0][0]
        assert ramps > 1 and evals == [(ramps, 12)] * 2 + [(ramps, 24)] * 2


def test_ramps_evaluated_in_blocks_give_the_same_values(monkeypatch):
    scheme, G = blocks(1024), centered(make_outer(1.0, 1024))
    F = make_outer(1.0, 100)
    whole = (probe.tower_check(A32, 2, scheme, G),
             pair_overlap_integral(8, 6, 2, A32, F))
    rows = []
    eval_array = Mollifier.eval_array

    def counted_eval(self, ts):
        rows.append(np.shape(ts)[0])
        return eval_array(self, ts)

    # 3 ramps per window call at 12 nodes, 1 at 24
    monkeypatch.setattr(probe, "EVAL_BLOCK", 36)
    monkeypatch.setattr(Mollifier, "eval_array", counted_eval)
    blocked = (probe.tower_check(A32, 2, scheme, G),
               pair_overlap_integral(8, 6, 2, A32, F))
    assert max(rows) == 3 and rows.count(3) > 10
    assert repr(blocked) == repr(whole)


def test_tower_atoms_are_certified_in_groups_in_order(monkeypatch):
    # at k = 3, 9 terms: a group holds EVAL_BLOCK // 12 // 9 atoms, here
    # 10, so the 135 atoms take 14 window integrals and the direct one 1
    scheme, G = blocks(1024), centered(make_outer(1.0, 1024))
    whole = probe.tower_check(A32, 3, scheme, G)
    groups = []
    window_integral = probe._window_integral

    def counted(products, cuts, intervals, F):
        groups.append(len(intervals))
        return window_integral(products, cuts, intervals, F)

    monkeypatch.setattr(probe, "EVAL_BLOCK", 12 * 9 * 10)
    monkeypatch.setattr(probe, "_window_integral", counted)
    assert repr(probe.tower_check(A32, 3, scheme, G)) == repr(whole)
    assert groups == [10] * 13 + [5, 1]
    # no group meets 1e-30: the first raises before the second is cut
    del groups[:]
    with pytest.raises(NumericalError, match="^window-piece quadrature, "
                       "element 0: ") as err:
        probe.tower_check(A32, 3, scheme, G, QuadConfig(rel_tol=1e-30))
    assert groups == [10] and err.value.check.margin > 1


# ---------------------------------------------------------------------------
# level-set roots against exact signs

STEP = Fraction(1, 1 << 48)
#: anchors p = c/4 where g(p) = p^n - p^m is exact in binary64 for n <= 12
ANCHORS = [Fraction(c, 4) for c in range(5, 11)]


def _g(x: Fraction, n: int, m: int) -> Fraction:
    return x ** n - x ** m


def _half_width(g_end: Fraction, nudge) -> float:
    """A window half-width below 1/2 with a window end M -+ w exactly on
    g_end (nudge 0), one binary64 step from it (nudge -1 or 1), or an
    eighth when g_end sits on an integer or a half-integer."""
    f = g_end - math.floor(g_end)
    w = min(f, 1 - f)
    w = float(w) if 0 < w < Fraction(1, 2) else 0.125
    return w if nudge == 0 else math.nextafter(w, nudge * math.inf)


def _check_against_signs(n, m, a, b, w, ivs) -> None:
    """Ends clip to a or b exactly where M - w <= g(a) or M + w >= g(b);
    interior ends lie within 4 grid steps 2^-48 of their exact root.  An
    M whose window meets (g(a), g(b)) is missing only if its exact
    preimage is shorter than 8 grid steps."""
    ga, gb = _g(a, n, m), _g(b, n, m)
    got = {iv.M: iv for iv in ivs}
    assert len(got) == len(ivs)
    for M in range(math.floor(ga - w), math.ceil(gb + w) + 1):
        lo_t, hi_t = M - w, M + w
        if not (hi_t > ga and lo_t < gb):
            assert M not in got
        elif M not in got:
            assert (lo_t <= ga and _g(a + 8 * STEP, n, m) >= hi_t) or (
                hi_t >= gb and _g(b - 8 * STEP, n, m) <= lo_t)
        else:
            for x, t in ((got[M].lo, lo_t), (got[M].hi, hi_t)):
                if t <= ga:
                    assert x == float(a)
                elif t >= gb:
                    assert x == float(b)
                else:
                    x = Fraction(x)
                    assert _g(x - 4 * STEP, n, m) <= t <= _g(x + 4 * STEP,
                                                             n, m)


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_convexity_pieces_match_exact_signs(n, data):
    m = data.draw(st.integers(0, n - 1), label="m")
    p = data.draw(st.sampled_from(ANCHORS), label="anchor")
    # about 8 to 64 windows inside an interval of width 2^-k next to p
    slope = n * float(p + Fraction(1, 8)) ** (n - 1)
    k = max(3, math.ceil(math.log2(slope / 64))) + data.draw(
        st.integers(0, 3), label="k")
    a, b = (p, p + Fraction(1, 1 << k)) if data.draw(st.booleans(),
                                                     label="left") \
        else (p - Fraction(1, 1 << k), p)
    s = _half_width(_g(p, n, m), data.draw(st.sampled_from((-1, 0, 1)),
                                           label="nudge"))
    ad, bd = as_dyadic(a), as_dyadic(b)
    ivs = preimage_intervals(n, m, ad, bd, Fraction(s))
    _check_against_signs(n, m, a, b, Fraction(s), ivs)
    measure, _ = convexity_measure((n, m), (ad, bd), s, 1)
    assert measure == float(sum(iv.length for iv in ivs))


@given(st.integers(2, 6), st.data())
@settings(max_examples=50, deadline=None)
def test_level_intervals_match_exact_signs(m1, data):
    m2 = data.draw(st.integers(1, m1 - 1), label="m2")
    A = data.draw(st.sampled_from(ANCHORS[:3]), label="A")
    end = data.draw(st.sampled_from((A, A + 1)), label="end")
    s = _half_width(_g(end, m1, m2), data.draw(st.sampled_from((-1, 0, 1)),
                                               label="nudge")) / 4
    ivs = level_intervals(m1, m2, as_dyadic(A), s, 1)
    _check_against_signs(m1, m2, A, A + 1, 4 * Fraction(s), ivs)


def test_convexity_measure_certifies_a_window_end_next_to_g_of_a():
    # one window end lies within binary64 rounding of g(a); a float
    # bracket check refused that root although the exact signs bracket it
    a = DyadicRational(1385316916043, 40)
    measure, bound = convexity_measure((5, 4), (a, a + DyadicRational(1, 3)),
                                       0.3449602169916573, 1)
    assert 0 < measure <= bound


def test_certified_root_from_far_seeds_takes_wide_spreads_then_bisection(
        monkeypatch):
    # x^5 - x^2 = 7 on [3/2, 5/2]: a seed 1000 grid steps off needs the
    # 4096-step bracket, one 2^-20 off (2^28 steps) the exact bisection
    n, m, t = 5, 2, 7
    root = float(monotone_root(n, m, 1.5, 2.5, np.array([7.0]))[0])
    real = probe._sign_at
    exps = []

    def counted(c, e, *rest):
        exps.append(e)
        return real(c, e, *rest)

    monkeypatch.setattr(probe, "_sign_at", counted)
    for offset, steps, bisected in ((1000 * 2.0 ** -48, 4096, False),
                                    (2.0 ** -20, 4, True)):
        exps.clear()
        x = Fraction(probe._certified_root(n, m, t, 1, root + offset,
                                           3, 5, 1))
        assert _g(x - steps * STEP, n, m) <= t <= _g(x + steps * STEP, n, m)
        assert len(exps) > 80 if bisected else set(exps) == {48}
        assert len(exps) >= 4


# ---------------------------------------------------------------------------
# the binary64 sign filter in front of the exact signs

@given(st.integers(2, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_sign_filter_decides_only_exact_signs(n, data):
    # a target t/d = M -+ w on g(c0 / 2^48), or one binary64 step of w off
    # it, for a grid point c0 next to an anchor; the filter is asked at c0,
    # where rounding decides, at the bracket ends c0 -+ 4, a few steps off
    # and up to 2^40 steps away.  "Undecided" is always allowed.
    m = data.draw(st.integers(0, n - 1), label="m")
    p = data.draw(st.sampled_from(ANCHORS), label="anchor")
    c0 = int(p * (1 << 48)) + data.draw(st.integers(-(1 << 40), 1 << 40),
                                        label="c0")
    g0 = _g(Fraction(c0, 1 << 48), n, m)
    w = Fraction(_half_width(g0, data.draw(st.sampled_from((-1, 0, 1)),
                                           label="nudge")))
    M, side = (math.floor(g0), 1) if g0 - math.floor(g0) <= Fraction(1, 2) \
        else (math.ceil(g0), -1)
    t, d = M * w.denominator + side * w.numerator, w.denominator
    target = float(M) + side * float(w)    # as _window_ends rounds it
    offsets = data.draw(st.lists(st.one_of(
        st.integers(-8, 8), st.integers(-(1 << 40), 1 << 40)), max_size=12),
        label="offsets")
    c = np.array([c0 + o for o in (0, -4, 4, *offsets)], dtype=np.int64)
    signs = probe._sign_filter(n, m, c, np.full(len(c), target))
    for ci, sign in zip(c.tolist(), signs.tolist()):
        if sign:
            assert sign == probe._sign_at(ci, 48, n, m, t, d)
    # and it is no empty shortcut: 2^20 steps from the root it decides
    assert signs[np.abs(c - c0) >= 1 << 20].all()


def _filter_off(n, m, c, targets):
    return np.zeros(c.shape)


@pytest.mark.parametrize("n, m, a, b, s, N", [
    # n = 12, m = 0: 115 windows over [5/4, 3/2]
    (12, 0, DyadicRational(5, 2), A32, 1.0, 100),
    # a window end within binary64 rounding of g(a)
    (5, 4, DyadicRational(1385316916043, 40),
     DyadicRational(1385316916043, 40) + DyadicRational(1, 3),
     0.3449602169916573, 1),
    # two M, every end clipped: [g(a), g(b)] = [3/4, 0.78]
    (2, 1, A32, DyadicRational(97, 6), 0.3, 1),
    # three M: the lowest and highest clip, the middle one has two roots
    (2, 1, A32, DyadicRational(7, 2), 0.125, 1),
    # three M: the middle window's lower end clips to a, its upper is a root
    (3, 1, A32, DyadicRational(13, 3), 0.25, 1),
])
def test_exact_path_gives_the_filtered_intervals(monkeypatch, n, m, a, b,
                                                  s, N):
    offsets = (-Fraction(s) / N, Fraction(s) / N)
    filtered = probe._window_ends(n, m, a, b, offsets)
    measure = convexity_measure((n, m), (a, b), s, N)
    real = probe._certified_root
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(probe, "_sign_filter", _filter_off)
    monkeypatch.setattr(probe, "_certified_root", counted)
    ms, ends = probe._window_ends(n, m, a, b, offsets)
    assert ms == filtered[0] and ends.tolist() == filtered[1].tolist()
    assert len(calls) == sum(x not in (float(a), float(b))
                             for x in ends.ravel().tolist())
    assert convexity_measure((n, m), (a, b), s, N) == measure


def test_exact_path_gives_the_filtered_level_intervals(monkeypatch):
    filtered = level_intervals(3, 1, A32, 1.0, 100)
    monkeypatch.setattr(probe, "_sign_filter", _filter_off)
    assert level_intervals(3, 1, A32, 1.0, 100) == filtered


def test_grid_points_past_2_to_53_take_the_integer_path(monkeypatch):
    # on [40, 81/2] the grid points x 2^48 exceed 2^53, where binary64
    # cannot hold them: the filter must not run, and every end is exact
    monkeypatch.setattr(probe, "_sign_filter", None)
    a, b, w = Fraction(40), Fraction(81, 2), Fraction(1, 100)
    ivs = preimage_intervals(3, 1, as_dyadic(a), as_dyadic(b), w)
    assert len(ivs) > 2000
    _check_against_signs(3, 1, a, b, w, ivs)
