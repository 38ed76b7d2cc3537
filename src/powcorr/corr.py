"""Correlation statistics on unit-interval samples.

The pair counter decides membership through the float subtractions of
the quadratic oracle the tests keep (forward gap y_j - y_i, wrapped gap
(y_j + 1.0) - y_i) compared against the same window w = s/N, so their
counts agree exactly, ties included.

Close pairs come from one offset pass over the sorted points
(`_offset_pass`): step k tests whether the point k places ahead of each
point is within its reach, over a contiguous slice while at least a
quarter of the runs are open, then over the open runs only.  Each run is
a prefix, and a window test on the gaps selects a prefix of it at any
narrower width.  So `count_pairs` turns one pass into the pair counts of
`pair_corr`, the degrees of `triple_corr` (run lengths plus what each
step's runs reach) and the smoothed sums of `pair_corr_smoothed` at every
width of an s grid: a window F is exactly 1.0 on its plateau, so its sum
is the pair count at F.p_f plus the values of the few pairs on its ramp
(F's band, the gaps in (F.p_f, F.edge_f]), added with one rounding by
math.fsum.  Only the block sums of `probe` need the pairs themselves
(`forward_window_pairs`).  Called without a pass's counts, a statistic
makes its own at its own width.

A run reads only its own start, reach and the points ahead of it, so
`count_pairs` walks contiguous chunks of sorted positions, one thread
each (`threads`; numpy releases the GIL in the pass's ufuncs).
The chunks step in lockstep and every test of a step is made in one
place (`_chunk_steps`), so counts, bands and degrees, the refusal at the
cap included, are those of one chunk, whatever the threads.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from concurrent import futures
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicRational, as_dyadic
from .errors import DomainError, ResourceError
from .hpgen import UnitSample, ensure_window_resolution
from .mollify import Mollifier

__all__ = [
    "PairWindows", "forward_window_pairs", "PairCounts", "count_pairs",
    "window_width", "pair_corr", "pair_corr_smoothed", "triple_corr",
    "level_spacings", "spacings_sup_exponential", "star_discrepancy",
    "control_nalpha", "uniform_control",
]

#: cap on enumerated candidate pairs in the windowed counter
MAX_WINDOW_PAIRS = 80_000_000


def _reach(ys: np.ndarray, width: float, out=None) -> np.ndarray:
    """Upper endpoint of each sorted point's run at `width`, into `out`
    if given.

    Inflated, so that the runs hold a strict superset of the pairs with
    doubled[j] - ys[i] <= width.  With ys >= 0 and width > 0 the sum is
    positive and finite, so its next float up is the next int64 bit
    pattern, as np.nextafter(a, np.inf) gives at a tenth of the cost."""
    a = np.add(ys, width * (1.0 + 2.0 ** -40), out=out)
    bits = a.view(np.int64)
    bits += 1
    return a


def _sorted_doubled(points: np.ndarray) -> tuple:
    """(ys, doubled): doubled is one buffer of n + min(n, MAX_OFFSET)
    floats, the sorted points followed by the first min(n, MAX_OFFSET) of
    them plus 1.0, and ys is a view of its first n.  No pass reads past
    that tail (`_charge`).  The points are copied into it and sorted in
    place, so the caller's array is left as it was and no other n-sized
    array is made."""
    n = len(points)
    tail = min(n, MAX_OFFSET)
    doubled = np.empty(n + tail)
    ys = doubled[:n]
    ys[:] = points
    ys.sort()
    np.add(ys[:tail], 1.0, out=doubled[n:])
    return ys, doubled


@dataclass(frozen=True)
class PairWindows:
    """Candidate close pairs of a sample in sorted order, at one width.

    ys are the sorted points and doubled is ys followed by ys + 1.0, as
    far as a run can reach (`_sorted_doubled`).  Run i holds the pairs
    (i, j) for j = i+1, i+2, ... with doubled[j] <= reach_i (`_reach`), at
    most n - 1 of them; counts[i] is its length.
    ends[k] is doubled[j] and gaps[k] the forward float gap
    doubled[j] - ys[i] of pair k.  The pairs are a superset of those at
    circular distance <= width; callers re-test the exact predicate on
    gaps.  pos_i, pos_j and order (sorted position -> original 0-based
    index) are derived on demand.  Only `probe`'s block sums read them.
    """

    points: np.ndarray
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


def _offset_pass(ys: np.ndarray, doubled: np.ndarray, width: float,
                 lo: int = 0, hi: int | None = None, out=None):
    """Walk the runs lo .. hi-1 (all by default) of the sorted points ys at
    `width`, offset by offset.

    doubled is ys followed by ys + 1.0 (`_sorted_doubled`), and run i
    holds the offsets k = 1 .. n-1 with doubled[i + k] <= reach_i
    (`_reach`).  doubled is sorted, so a run holds k only if it holds
    every offset before it: each run is a prefix, and a run that fails one
    step is closed for good.  Run i reads only ys[i], reach_i and
    doubled[i + k], so the runs split into chunks that walk apart.
    out = (buf, inside) are arrays of n floats and n booleans of which the
    chunk writes its slice lo:hi; without them the pass makes its own.
    Step k yields (at, ends, starts, m) for the m runs of the chunk still
    open, with positions counted from lo:

    - while at least a quarter of the chunk's runs are open, a step
      writes the reach into buf, compares the contiguous slice
      ends = doubled[lo+k:hi+k] with it and yields at, the mask of the
      open runs (a view of inside), with ends and starts = ys[lo:hi] over
      all the chunk's positions.  The caller may overwrite buf (with the
      step's gaps) before the next step, which writes the reach again;
    - after that it works on the open runs' indices only: at holds them,
      and ends, starts and the reach are gathered at them.

    A float gap ends - starts grows along a run, and at any w <= width it
    is <= w only inside the run (the reach is a superset).  So a test
    gaps <= w selects a prefix of each run and is false at the positions
    a mask leaves out; callers need not mask it.

    The longest run bounds the number of steps, and the caller charges
    each step's m against the cap (`_charge`).  Time is O(chunk +
    candidate pairs); after the mask steps memory is that of the open
    runs.
    """
    n = len(ys)
    hi = n if hi is None else hi
    buf, inside = out if out is not None else (np.empty(n),
                                               np.empty(n, dtype=bool))
    buf, inside, starts = buf[lo:hi], inside[lo:hi], ys[lo:hi]
    at = None
    for k in range(1, n):
        if at is None:
            ends = doubled[lo + k:hi + k]
            reach = _reach(starts, width, out=buf)
            m = int(np.count_nonzero(np.less_equal(ends, reach, out=inside)))
            if 4 * m < hi - lo:
                at = np.flatnonzero(inside)
                reach, starts, ends = reach[at], starts[at], ends[at]
        else:
            ends = doubled[at + (lo + k)]
            keep = ends <= reach
            m = int(np.count_nonzero(keep))
            if m < len(at):
                at, reach, starts, ends = (at[keep], reach[keep],
                                           starts[keep], ends[keep])
        if m == 0:
            return
        yield (inside if at is None else at), ends, starts, m


def _charge(touched: int, m: int, k: int) -> int:
    """touched + m, the candidate pairs of a pass through its step k;
    ResourceError once that passes MAX_WINDOW_PAIRS, or once a run is
    MAX_OFFSET long, so that no step reads past the doubled tail.

    A refused pass so stops within one step of the cap, and refuses
    exactly when its runs hold more than the cap.  The cap also bounds
    every run, and the run bound refuses only a pass that rounding at the
    wrap let past it (`_longest_offset`)."""
    touched += m
    if touched > MAX_WINDOW_PAIRS:
        raise ResourceError(
            f"window enumeration passed {MAX_WINDOW_PAIRS} candidate "
            f"pairs at offset {k} ({touched} touched); narrow the window")
    if k >= MAX_OFFSET:
        raise ResourceError(
            f"window enumeration reached offset {k}, the longest a pass "
            f"reads ({touched} candidate pairs touched); narrow the window")
    return touched


def _longest_offset(cap: int) -> int:
    """K, the longest offset that a pass under `cap` candidate pairs reads.

    A pass reads offset k only after step k - 1 passed the cap with a run
    of k - 1 offsets still open.  That run spans k points, and the runs of
    its later points hold the rest of their pairs, since reaches grow with
    ys: C(k, 2) candidate pairs, all charged by step k - 1.  So
    k(k - 1) <= 2 cap, and k <= isqrt(2 cap) + 1.  Across the wrap a run
    compares ys + 1.0, rounded, where the runs of the wrapped points
    compare ys, so a cluster straddling 0 can hold fewer pairs than its
    span; K adds 15 offsets of slack for that, and `_charge` refuses a
    pass whose runs would pass K."""
    return math.isqrt(2 * cap) + 16


def _tally_dtype(longest: int) -> type:
    """The smallest signed integer type that holds 2 * longest: a run
    length is at most the longest offset, and so is the in-degree of a
    point, at most one from each of the runs that start that many
    positions or fewer before it."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= 2 * longest)


#: the longest offset of a pass under the cap, and the tail of the
#: doubled buffer (`_sorted_doubled`)
MAX_OFFSET = _longest_offset(MAX_WINDOW_PAIRS)
#: dtype of run lengths and degrees (`PairCounts`); it widens with the cap
TALLY = _tally_dtype(MAX_OFFSET)


def _tally(acc: np.ndarray, shift: int, at: np.ndarray, inside=None) -> None:
    """acc[(shift + i) mod n] += 1 at the open runs i of one chunk's
    `_offset_pass` step, or with `inside`, a test on its gaps, += inside[i]
    (positions i counted from the chunk's first run)."""
    n = len(acc)
    shift %= n
    if at.dtype == bool:
        add = at if inside is None else inside
        head = add[:n - shift]
        acc[shift:shift + len(head)] += head
        acc[:len(add) - len(head)] += add[len(head):]
    else:
        pos = at + shift
        pos[pos >= n] -= n
        acc[pos] += 1 if inside is None else inside


def forward_window_pairs(points: np.ndarray, width: float) -> PairWindows:
    """Enumerate a guaranteed superset of pairs within circular width."""
    n = len(points)
    # the values of points[argsort(points, kind="stable")], without the
    # permutation, which only `order` needs
    ys, doubled = _sorted_doubled(points)
    counts = np.zeros(n, dtype=np.int64)
    touched = 0
    for k, (at, _, _, m) in enumerate(_offset_pass(ys, doubled, width), 1):
        touched = _charge(touched, m, k)
        _tally(counts, 0, at)
    total = int(counts.sum())
    # pair k of run i sits at doubled[i + 1 + (k - run_starts[i])].
    # The pair arrays reach ~10^7 entries at N = 10^6, so each is built in
    # place and n-sized temporaries are dropped first
    pair_j = np.arange(total)
    if total:
        starts = np.arange(1, n + 1)
        starts -= np.cumsum(counts) - counts
        pair_j += np.repeat(starts, counts)
        del starts
    ends = doubled[pair_j]
    del pair_j
    gaps = np.repeat(ys, counts)
    del ys, doubled
    np.subtract(ends, gaps, out=gaps)
    return PairWindows(points=points, counts=counts, ends=ends, gaps=gaps)


@dataclass(frozen=True)
class PairCounts:
    """Close pairs of one point set at each width of a grid.

    pairs[w] is the number of pairs (i, j) of the runs (`_offset_pass`)
    whose float gap doubled[j] - ys[i] is <= w: every pair of points at
    circular distance <= w, once.  With `runs`, runs[w][i] is how many of
    them start at sorted position i, a prefix of run i, and degrees[w][i]
    how many hold position i as either point.  bands[F] holds the gaps g
    of the runs with F.p_f < g <= F.edge_f for each window F counted, its
    band; pairs[F.p_f] counts the gaps below it.
    """

    n: int
    pairs: dict
    bands: dict
    runs: dict | None = None
    degrees: dict | None = None


def _spans(n: int, threads: int) -> list:
    """(lo, hi) of each chunk of sorted positions: min(threads, n)
    contiguous chunks of near-equal length, and one for no points."""
    parts = max(1, min(threads, n))
    return [(n * p // parts, n * (p + 1) // parts) for p in range(parts)]


def _chunk_steps(ys, doubled, width, lo, hi, out, tests, windows, lengths,
                 degrees):
    """The steps of `_offset_pass` over the runs lo .. hi-1, one per next():
    (m, {w: pairs with gap <= w, for w in tests}, {F: F's band part}).

    Run lengths go to lengths[w][lo:hi] and, at step k, what a run
    reaches to degrees[w] at position (i + k) mod n: in-degrees, to which
    the caller adds the run lengths.  The O(n) buffers of the mask steps
    are the caller's (out); only the index steps, which shrink with the
    open runs, allocate here."""
    gap_buf, inside, test_buf, band_buf = out
    for k, (at, ends, starts, m) in enumerate(_offset_pass(
            ys, doubled, width, lo, hi, (gap_buf, inside)), 1):
        flat = at.dtype == bool
        gaps = np.subtract(ends, starts, out=gap_buf[lo:hi] if flat else None)
        test = test_buf[lo:hi] if flat else None
        step = {}
        for w in tests:
            hit = np.less_equal(gaps, w, out=test)
            step[w] = int(np.count_nonzero(hit))
            if w in lengths:
                _tally(lengths[w], lo, at, hit)
                _tally(degrees[w], lo + k, at, hit)
        bands = {}
        for F in windows:
            if step[F.edge_f] > step[F.p_f]:
                band = np.less_equal(gaps, F.edge_f, out=test)
                band &= np.greater(gaps, F.p_f,
                                   out=band_buf[lo:hi] if flat else None)
                bands[F] = gaps[np.flatnonzero(band)]
        yield m, step, bands


def _advance(walks: list, pool) -> list:
    """next(walk, None) of every walk: the first in this thread and the
    others on the pool, all of them done before it returns."""
    rest = [pool.submit(next, walk, None) for walk in walks[1:]]
    try:
        first = next(walks[0], None)
    finally:
        futures.wait(rest)
    return [first] + [f.result() for f in rest]


def count_pairs(points: np.ndarray, widths, runs: bool = False,
                windows=(), threads: int = 1) -> PairCounts:
    """Pair counts at every width and the band of every window
    (`PairCounts`), from one `_offset_pass` at the widest width or edge,
    walked in min(threads, n) chunks of sorted positions.

    The chunks step in lockstep, one thread each: step k of every chunk
    ends before any chunk starts step k + 1, so the in-degree tallies of
    a step, which shift each chunk by k, never meet.  A step's counts are
    summed and its band parts joined in chunk order, which is position
    order, and the cap is charged with the step's total, so counts,
    bands, run lengths and a refusal are those of one chunk, whatever the
    threads.  With one chunk the pass runs in this thread alone.

    A window F is exactly 1.0 at gaps <= F.p_f and 0.0 at gaps in
    [F.edge_f, 1 - F.edge_f], so both are test widths, and a step takes
    F's band where a gap passes the one and not the other.  A test at a
    width up to the pass's holds only inside the runs (`_offset_pass`), so
    the band holds every pair whose value F does not fix.

    Counts are Python ints.  The pass holds these O(n) buffers, in bytes
    per point:

    - 8, the sorted points, and a tail of MAX_OFFSET of them plus 1.0
      (`_sorted_doubled`; about 100 kB);
    - 8, the gaps of a mask step, which hold its reach until the gaps
      overwrite it (`_offset_pass`);
    - 1 each, the open-run mask and the test mask;
    - 1, the band mask, only with windows;
    - with `runs`, 2 per width for run lengths and 2 for degrees: they are
      TALLY, int16 under today's cap, which holds twice MAX_OFFSET
      (`_tally_dtype`).

    The index steps gather at most a quarter of a chunk's runs, about
    10 bytes per point more while they start.  At n = 2 * 10^5 with three
    widths a pass peaks near 27 bytes per point (tracemalloc), 39 with
    `runs`."""
    near = {F: [] for F in windows}
    widths = sorted(set(widths).union(F.p_f for F in near))
    tests = sorted(set(widths).union(F.edge_f for F in near))
    n = len(points)
    ys, doubled = _sorted_doubled(points)
    totals = dict.fromkeys(widths, 0)
    lengths = {w: np.zeros(n, dtype=TALLY) for w in widths} if runs else {}
    degrees = {w: np.zeros(n, dtype=TALLY) for w in lengths}
    # every O(n) buffer is made here: a thread's allocations stay in its
    # own malloc arena, and would raise the peak resident memory
    out = (np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=bool),
           np.empty(n, dtype=bool) if near else None)
    spans = _spans(n, threads)
    walks = [_chunk_steps(ys, doubled, max(tests), lo, hi, out, tests,
                          near, lengths, degrees) for lo, hi in spans]
    touched = 0
    with (futures.ThreadPoolExecutor(len(spans) - 1) if len(spans) > 1
          else contextlib.nullcontext()) as pool:
        for k in itertools.count(1):
            steps = _advance(walks, pool)
            walks = [walk for walk, step in zip(walks, steps) if step]
            steps = [step for step in steps if step]
            if not steps:
                break
            touched = _charge(touched, sum(m for m, _, _ in steps), k)
            for _, step, bands in steps:
                for w in widths:
                    totals[w] += step[w]
                for F, band in bands.items():
                    near[F].append(band)
    for w in degrees:
        degrees[w] += lengths[w]
    return PairCounts(n=n, pairs=totals, runs=lengths if runs else None,
                      degrees=degrees if runs else None,
                      bands={F: np.concatenate(parts + [[]])
                             for F, parts in near.items()})


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


def _counted(sample: UnitSample, widths, counts: PairCounts | None,
             runs: bool = False, windows=()) -> PairCounts:
    """`counts`, refused unless they are of the sample's N and hold these
    widths (with their run lengths if `runs`) and the bands of these
    windows, or with None one pass over the sample's points for them."""
    if counts is None:
        return count_pairs(sample.points, widths, runs, windows)
    if counts.n != sample.n_max:
        raise DomainError(
            f"pairs counted over {counts.n} points but sample has "
            f"N = {sample.n_max}")
    held = counts.runs if runs else counts.pairs
    missing = sorted(set(widths) - set(held or ()))
    if missing:
        what = "run lengths" if runs else "pair count"
        raise DomainError(f"no {what} at widths {missing}")
    lost = [F for F in windows if F not in counts.bands]
    if lost:
        raise DomainError(f"no band of windows {lost}")
    return counts


def pair_corr(sample: UnitSample, s: float,
              counts: PairCounts | None = None) -> float:
    """Ordered pairs at circular distance <= s/N, divided by N.

    Sorted windowed count; ties at exactly s/N count as inside.
    """
    w = window_width(sample, s)
    return 2.0 * _counted(sample, [w], counts).pairs[w] / sample.n_max


def pair_corr_smoothed(sample: UnitSample, F: Mollifier,
                       counts: PairCounts | None = None) -> float:
    """(1/N) * sum over ordered pairs of F(y_n - y_m).

    F is exactly 1.0 at the pairs with gap <= F.p_f, which are counted,
    and F.eval_array gives the value of each pair of its band, the gaps in
    (F.p_f, F.edge_f] (`PairCounts`); every other pair adds 0.0.  The
    value is 2/N times the correctly rounded sum (math.fsum) of the count
    and these per-pair values, K terms in all, so it is independent of
    their order and differs from any other summation order by at most
    gamma_K * sum|v|.  `counts` must be of the sample's N and hold F's
    band (count_pairs(..., windows=[F])); with None one pass at F's edge
    counts them."""
    if F.N != sample.n_max:
        raise DomainError(
            f"window built for N = {F.N} but sample has N = {sample.n_max}")
    counts = _counted(sample, [], counts, windows=[F])
    values = F.eval_array(counts.bands[F]).tolist()
    return 2.0 * math.fsum([counts.pairs[F.p_f], *values]) / sample.n_max


def triple_corr(sample: UnitSample, s1: float, s2: float,
                counts: PairCounts | None = None) -> float:
    """Pairwise-distinct (l, m, n) with l, n inside m's two windows, over N.

    Position i counts the pairs that hold it as either point
    (`PairCounts.degrees`).  `counts` must hold the run lengths
    (count_pairs(..., runs=True))."""
    w1 = window_width(sample, s1)
    w2 = window_width(sample, s2)
    deg = _counted(sample, [w1, w2], counts, runs=True).degrees
    # exact int64 sums, cast in einsum's buffers and not as n-sized copies
    total = (np.einsum("i,i->", deg[w1], deg[w2], dtype=np.int64)
             - np.sum(deg[min(w1, w2)], dtype=np.int64))
    return float(total) / sample.n_max


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
    in bulk: a numpy MT19937 takes over that generator's state, and its
    doubles are CPython's ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of two
    consecutive 32-bit outputs a, b, exact in binary64."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    key = random.Random(seed).getstate()[1]
    mt = np.random.MT19937()
    mt.state = {"bit_generator": "MT19937",
                "state": {"key": np.array(key[:-1], dtype=np.uint32),
                          "pos": key[-1]}}
    pts = np.random.Generator(mt).random(N)
    return UnitSample(n_max=N, points=pts, err_bound=0.0,
                      base=DyadicRational.from_int(2),
                      xi=DyadicRational.from_int(1))
