"""Correlation statistics on unit-interval samples.

The pair counter and its quadratic-time oracle are kept predicate-identical:
both decide membership through the same float subtractions (forward gap
y_j - y_i, wrapped gap (y_j + 1.0) - y_i) compared against the same window
w = s/N, so their counts agree exactly, ties included.
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
    "PairWindows", "pair_corr", "pair_corr_bruteforce",
    "pair_corr_smoothed", "triple_corr", "level_spacings",
    "spacings_sup_exponential", "star_discrepancy", "control_nalpha",
    "uniform_control",
]

#: largest N the quadratic oracle will accept
DEFAULT_ORACLE_CAP = 4000
#: cap on enumerated candidate pairs in the windowed counter
MAX_WINDOW_PAIRS = 80_000_000


@dataclass(frozen=True)
class PairWindows:
    """Candidate close pairs of a sample in sorted order.

    gaps[k] is the forward float gap doubled[j] - ys[i] (with ys the
    sorted points and doubled ys followed by ys + 1.0), a superset of all
    pairs at circular distance <= width; callers re-test the exact
    predicate on gaps.  order maps sorted positions back to original
    0-based indices.
    """

    order: np.ndarray
    pos_i: np.ndarray
    pos_j: np.ndarray
    gaps: np.ndarray


def forward_window_pairs(points: np.ndarray, width: float) -> PairWindows:
    """Enumerate a guaranteed superset of pairs within circular width."""
    n = len(points)
    order = np.argsort(points, kind="stable")
    ys = points[order]
    doubled = np.concatenate([ys, ys + 1.0])
    # inflated upper endpoints make the searchsorted cut a strict superset
    # of the exact predicate (doubled[j] - ys[i] <= width)
    hi = np.nextafter(ys + width * (1.0 + 2.0 ** -40), np.inf)
    starts = np.arange(1, n + 1)
    counts = np.clip(np.searchsorted(doubled, hi, side="right"),
                     starts, starts + (n - 1))
    del hi
    counts -= starts
    total = int(counts.sum())
    if total > MAX_WINDOW_PAIRS:
        raise ResourceError(
            f"window enumeration would touch {total} candidate pairs "
            f"(cap {MAX_WINDOW_PAIRS}); narrow the window")
    # pair k of run i sits at starts[i] + (k - run_starts[i]).  The pair
    # arrays reach ~10^7 entries at N = 10^6, so each is built in place,
    # n-sized temporaries are dropped first, and pair_i comes last, once
    # the gaps no longer need a gathered copy of ys beside it
    pair_j = np.arange(total)
    if total:
        run_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pair_j += np.repeat(starts - run_starts, counts)
        del run_starts
    gaps = doubled[pair_j]
    gaps -= np.repeat(ys, counts)
    np.remainder(pair_j, n, out=pair_j)
    pair_i = np.repeat(np.arange(n), counts)
    return PairWindows(order=order, pos_i=pair_i, pos_j=pair_j, gaps=gaps)


def _window(sample: UnitSample, s: float) -> float:
    if not s > 0:
        raise DomainError(f"s must be positive, got {s}")
    w = s / sample.n_max
    if w >= 0.5:
        raise DomainError(
            f"window s/N = {w} reaches the wrap-around scale 1/2")
    ensure_window_resolution(sample, s)
    return w


def pair_corr(sample: UnitSample, s: float) -> float:
    """Ordered pairs at circular distance <= s/N, divided by N.

    Sorted windowed enumeration; ties at exactly s/N count as inside.
    """
    w = _window(sample, s)
    pw = forward_window_pairs(sample.points, w)
    inside = int(np.count_nonzero(pw.gaps <= w))
    return 2.0 * inside / sample.n_max


def pair_corr_bruteforce(sample: UnitSample, s: float,
                         cap: int = DEFAULT_ORACLE_CAP) -> float:
    """Quadratic reference counter with identical tie semantics."""
    n = sample.n_max
    if n > cap:
        raise ResourceError(f"oracle cap is N <= {cap}, got {n}")
    w = _window(sample, s)
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


def pair_corr_smoothed(sample: UnitSample, F: Mollifier) -> float:
    """(1/N) * sum over ordered pairs of F(y_n - y_m)."""
    if F.N != sample.n_max:
        raise DomainError(
            f"window built for N = {F.N} but sample has N = {sample.n_max}")
    pw = forward_window_pairs(sample.points, F.edge_f)
    return 2.0 * float(F.eval_array(pw.gaps).sum()) / sample.n_max


def triple_corr(sample: UnitSample, s1: float, s2: float) -> float:
    """Pairwise-distinct (l, m, n) with l, n inside m's two windows, over N."""
    w1 = _window(sample, s1)
    w2 = _window(sample, s2)
    n = sample.n_max
    pw = forward_window_pairs(sample.points, max(w1, w2))
    deg1 = np.zeros(n)
    deg2 = np.zeros(n)
    degmin = np.zeros(n)
    for w, deg in ((w1, deg1), (w2, deg2), (min(w1, w2), degmin)):
        inside = pw.gaps <= w
        np.add.at(deg, pw.pos_i[inside], 1.0)
        np.add.at(deg, pw.pos_j[inside], 1.0)
    return float(np.sum(deg1 * deg2 - degmin)) / n


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
    if isinstance(alpha, DyadicRational):
        a = alpha.as_fraction()
    else:
        a = Fraction(alpha)
    acc = Fraction(0)
    pts = np.empty(N, dtype=np.float64)
    for i in range(N):
        acc = (acc + a) % 1
        pts[i] = float(acc)
    pts[pts >= 1.0] = math.nextafter(1.0, 0.0)
    return UnitSample(n_max=N, points=pts, err_bound=2.0 ** -53,
                      base=DyadicRational.from_float(float(a)),
                      xi=DyadicRational.from_int(1))


def golden_ratio_dyadic(bits: int = 64) -> DyadicRational:
    """(sqrt(5) - 1) / 2 truncated to a bits-deep dyadic."""
    num = math.isqrt(5 << (2 * (bits - 1))) - (1 << (bits - 1))
    return DyadicRational(num, bits)


def uniform_control(N: int, seed: int) -> UnitSample:
    """Seeded i.i.d. uniform points; the baseline every statistic targets."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    rng = random.Random(seed)
    pts = np.array([rng.random() for _ in range(N)], dtype=np.float64)
    return UnitSample(n_max=N, points=pts, err_bound=0.0,
                      base=DyadicRational.from_int(2),
                      xi=DyadicRational.from_int(1))
