"""Correlation statistics on unit-interval samples.

The pair counter and its quadratic-time oracle are kept predicate-identical:
both decide membership through the same float subtractions (forward gap
y_j - y_i, wrapped gap (y_j + 1.0) - y_i) compared against the same window
w = s/N, so their counts agree exactly, ties included.

A point set is sorted and its close pairs enumerated once, by
`forward_window_pairs` at the widest window any of its statistics needs;
`pair_corr`, `pair_corr_smoothed` and `triple_corr` take that enumeration
and read their own narrower width off it with `PairWindows.cut`, which
selects exactly the pairs a fresh enumeration at that width would return,
in the same order.  So every count and every float sum is the one a fresh
enumeration gives, bit for bit.  Called without one, a statistic
enumerates at its own width.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicRational, as_dyadic
from .errors import DomainError, ResourceError
from .hpgen import UnitSample, ensure_window_resolution
from .mollify import Mollifier

__all__ = [
    "PairWindows", "forward_window_pairs", "window_width", "pair_corr",
    "pair_corr_bruteforce", "pair_corr_smoothed", "triple_corr",
    "level_spacings", "spacings_sup_exponential", "star_discrepancy",
    "control_nalpha", "uniform_control",
]

#: largest N the quadratic oracle will accept
ORACLE_CAP = 4000
#: cap on enumerated candidate pairs in the windowed counter
MAX_WINDOW_PAIRS = 80_000_000


def _reach(ys: np.ndarray, width: float) -> np.ndarray:
    """Upper endpoint of each sorted point's run at `width`.

    Inflated, so that the runs hold a strict superset of the pairs with
    doubled[j] - ys[i] <= width.  With ys >= 0 and width > 0 the sum is
    positive and finite, so its next float up is the next int64 bit
    pattern, as np.nextafter(a, np.inf) gives at a tenth of the cost."""
    a = ys + width * (1.0 + 2.0 ** -40)
    bits = a.view(np.int64)
    bits += 1
    return a


@dataclass(frozen=True)
class PairWindows:
    """Candidate close pairs of a sample in sorted order, at one width.

    ys are the sorted points and doubled is ys followed by ys + 1.0.  Run
    i holds the pairs (i, j) for j = i+1, i+2, ... with doubled[j] <=
    reach_i (`_reach`), at most n - 1 of them; counts[i] is its length.
    ends[k] is doubled[j] and gaps[k] the forward float gap
    doubled[j] - ys[i] of pair k.  The pairs are a superset of those at
    circular distance <= width; callers re-test the exact predicate on
    gaps.  pos_i, pos_j and order (sorted position -> original 0-based
    index) are derived on demand; the statistics read only gaps and
    counts.

    reach_i grows with the width, so the run of i at a narrower width is
    a prefix of its run here: the pairs with ends <= reach_i at that
    width.  `cut` selects them, in the same order, so one enumeration at
    the widest width serves every narrower one exactly.
    """

    width: float
    points: np.ndarray
    ys: np.ndarray
    counts: np.ndarray
    ends: np.ndarray
    gaps: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """Original index of each sorted position (ties in input order)."""
        return np.argsort(self.points, kind="stable")

    @property
    def pos_i(self) -> np.ndarray:
        """Sorted position of each pair's first point."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    @property
    def pos_j(self) -> np.ndarray:
        """Sorted position of each pair's second point."""
        n = len(self.counts)
        # pair k of run i sits at doubled[i + 1 + k - run_starts[i]]
        pair_j = np.arange(len(self.gaps))
        if len(pair_j):
            run_starts = np.cumsum(self.counts) - self.counts
            pair_j += np.repeat(np.arange(1, n + 1) - run_starts, self.counts)
        return np.remainder(pair_j, n, out=pair_j)

    def cut(self, width: float):
        """Index of the pairs that forward_window_pairs(points, width)
        returns, for width <= self.width, in their order: all of them
        (a slice) at this width, else a boolean mask."""
        if width == self.width:
            return slice(None)
        if not width < self.width:
            raise DomainError(
                f"cannot cut width {width} from pairs enumerated at "
                f"{self.width}")
        return self.ends <= np.repeat(_reach(self.ys, width), self.counts)


def forward_window_pairs(points: np.ndarray, width: float) -> PairWindows:
    """Enumerate a guaranteed superset of pairs within circular width."""
    n = len(points)
    # the values of points[argsort(points, kind="stable")], without the
    # permutation, which only `order` needs
    ys = np.sort(points)
    doubled = np.concatenate([ys, ys + 1.0])
    starts = np.arange(1, n + 1)
    counts = np.clip(np.searchsorted(doubled, _reach(ys, width),
                                     side="right"),
                     starts, starts + (n - 1))
    counts -= starts
    total = int(counts.sum())
    if total > MAX_WINDOW_PAIRS:
        raise ResourceError(
            f"window enumeration would touch {total} candidate pairs "
            f"(cap {MAX_WINDOW_PAIRS}); narrow the window")
    # pair k of run i sits at doubled[starts[i] + (k - run_starts[i])].
    # The pair arrays reach ~10^7 entries at N = 10^6, so each is built in
    # place and n-sized temporaries are dropped first
    pair_j = np.arange(total)
    if total:
        starts -= np.cumsum(counts) - counts
        pair_j += np.repeat(starts, counts)
    del starts
    ends = doubled[pair_j]
    del pair_j, doubled
    gaps = ends - np.repeat(ys, counts)
    return PairWindows(width=width, points=points, ys=ys, counts=counts,
                       ends=ends, gaps=gaps)


def window_width(sample: UnitSample, s: float) -> float:
    """The window s/N of a statistic at scale s, checked: positive, below
    the wrap-around scale 1/2, and resolved by the sample's err_bound."""
    if not s > 0:
        raise DomainError(f"s must be positive, got {s}")
    w = s / sample.n_max
    if w >= 0.5:
        raise DomainError(
            f"window s/N = {w} reaches the wrap-around scale 1/2")
    ensure_window_resolution(sample, s)
    return w


def _pairs_at(sample: UnitSample, width: float, windows):
    """(enumeration, index of its pairs at `width`): `windows`, a wider
    enumeration of the sample's points, cut to `width`, or with None a
    fresh enumeration at `width`, read whole."""
    if windows is None:
        windows = forward_window_pairs(sample.points, width)
    elif len(windows.counts) != sample.n_max:
        raise DomainError(
            f"pairs enumerated over {len(windows.counts)} points but sample "
            f"has N = {sample.n_max}")
    return windows, windows.cut(width)


def pair_corr(sample: UnitSample, s: float,
              windows: PairWindows | None = None) -> float:
    """Ordered pairs at circular distance <= s/N, divided by N.

    Sorted windowed enumeration; ties at exactly s/N count as inside.
    """
    w = window_width(sample, s)
    pw, keep = _pairs_at(sample, w, windows)
    inside = int(np.count_nonzero(pw.gaps[keep] <= w))
    return 2.0 * inside / sample.n_max


def pair_corr_bruteforce(sample: UnitSample, s: float) -> float:
    """Quadratic reference counter with identical tie semantics."""
    n = sample.n_max
    if n > ORACLE_CAP:
        raise ResourceError(f"oracle cap is N <= {ORACLE_CAP}, got {n}")
    w = window_width(sample, s)
    pts = sample.points
    inside_total = 0
    block = max(1, 2_000_000 // max(n, 1))
    for lo in range(0, n, block):
        rows = pts[lo:lo + block, None]
        d = np.abs(rows - pts[None, :])
        hi = np.maximum(rows, pts[None, :])
        small = np.minimum(rows, pts[None, :])
        wrap = (small + 1.0) - hi
        inside_total += int(np.count_nonzero((d <= w) | (wrap <= w)))
    return (inside_total - n) / n  # remove the n diagonal self-pairs


def pair_corr_smoothed(sample: UnitSample, F: Mollifier,
                       windows: PairWindows | None = None) -> float:
    """(1/N) * sum over ordered pairs of F(y_n - y_m)."""
    if F.N != sample.n_max:
        raise DomainError(
            f"window built for N = {F.N} but sample has N = {sample.n_max}")
    pw, keep = _pairs_at(sample, F.edge_f, windows)
    return 2.0 * float(F.eval_array(pw.gaps[keep]).sum()) / sample.n_max


def _run_lengths(counts: np.ndarray, keep) -> np.ndarray:
    """Pairs per run that `keep` (a slice or a per-pair mask) selects."""
    if isinstance(keep, slice):
        return counts
    # int32 suffices below the MAX_WINDOW_PAIRS cap
    kept = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    run_ends = np.cumsum(counts)
    return kept[run_ends] - kept[run_ends - counts]


def _degrees(counts: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Pairs in `inside` at each sorted position, as either point.

    Gaps grow along a run, so `inside`, a window test on them, holds a
    prefix of every run: the pairs (i, j) of run i in it are j = i+1 ..
    i+c_i.  Position i counts c_i, and the j cover one range of doubled
    positions, which folds mod n."""
    n = len(counts)
    c = _run_lengths(counts, inside)
    past = np.arange(1, n + 1)
    past += c
    cover = np.bincount(past, minlength=2 * n)
    del past
    np.negative(cover, out=cover)
    cover[1:n + 1] += 1
    np.cumsum(cover, out=cover)
    return c + cover[:n] + cover[n:]


def triple_corr(sample: UnitSample, s1: float, s2: float,
                windows: PairWindows | None = None) -> float:
    """Pairwise-distinct (l, m, n) with l, n inside m's two windows, over N."""
    w1 = window_width(sample, s1)
    w2 = window_width(sample, s2)
    pw, keep = _pairs_at(sample, max(w1, w2), windows)
    counts = _run_lengths(pw.counts, keep)
    deg = {w: _degrees(counts, (pw.gaps <= w)[keep]) for w in {w1, w2}}
    return float(np.sum(deg[w1] * deg[w2] - deg[min(w1, w2)])) / sample.n_max


def level_spacings(sample: UnitSample) -> np.ndarray:
    """ECDF of the N circular gaps scaled by N: rows (t, F(t)).

    The scaled gaps sum to N; under the Poisson model the ECDF tends to
    1 - exp(-t).
    """
    n = sample.n_max
    if n < 2:
        raise DomainError(f"need at least 2 points, got {n}")
    ys = np.sort(sample.points)
    gaps = np.empty(n)
    gaps[:-1] = np.diff(ys)
    gaps[-1] = (ys[0] + 1.0) - ys[-1]
    scaled = np.sort(gaps * n)
    ecdf = np.arange(1, n + 1, dtype=np.float64) / n
    return np.column_stack([scaled, ecdf])


def spacings_sup_exponential(ecdf: np.ndarray) -> float:
    """Two-sided sup distance between the ECDF and 1 - exp(-t)."""
    t = ecdf[:, 0]
    fhat = ecdf[:, 1]
    model = 1.0 - np.exp(-t)
    upper = np.abs(fhat - model)
    lower = np.abs(np.concatenate([[0.0], fhat[:-1]]) - model)
    return float(np.maximum(upper, lower).max())


def star_discrepancy(sample: UnitSample) -> float:
    """Exact D*_N by the sorted-points formula."""
    n = sample.n_max
    if n < 1:
        raise DomainError("need at least one point")
    ys = np.sort(sample.points)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max((i / n - ys).max(), (ys - (i - 1.0) / n).max()))


def control_nalpha(alpha, N: int) -> UnitSample:
    """Negative control {n * alpha}: exact rational accumulation."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    a = as_dyadic(alpha).as_fraction()
    acc = Fraction(0)
    pts = np.empty(N, dtype=np.float64)
    for i in range(N):
        acc = (acc + a) % 1
        pts[i] = float(acc)
    pts[pts >= 1.0] = math.nextafter(1.0, 0.0)
    return UnitSample(n_max=N, points=pts, err_bound=2.0 ** -53,
                      base=DyadicRational.from_float(float(a)),
                      xi=DyadicRational.from_int(1))


def golden_ratio_dyadic() -> DyadicRational:
    """(sqrt(5) - 1) / 2 truncated to a 64-bit-deep dyadic."""
    num = math.isqrt(5 << 126) - (1 << 63)
    return DyadicRational(num, 64)


def uniform_control(N: int, seed: int) -> UnitSample:
    """Seeded i.i.d. uniform points; the baseline every statistic targets.

    The points are those of N calls of random.Random(seed).random(), drawn
    in bulk: a numpy MT19937 takes over that generator's state, and each
    point is CPython's ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of two
    consecutive 32-bit outputs a, b, exact in binary64."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    key = random.Random(seed).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(key[:-1], dtype=np.uint32),
                          "pos": key[-1]}}
    raw = mt.random_raw(2 * N)
    pts = ((raw[0::2] >> 5) * 2.0 ** 26 + (raw[1::2] >> 6)) / 2.0 ** 53
    return UnitSample(n_max=N, points=pts, err_bound=0.0,
                      base=DyadicRational.from_int(2),
                      xi=DyadicRational.from_int(1))
