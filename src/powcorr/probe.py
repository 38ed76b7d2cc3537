"""Constructive objects behind the martingale argument.

The pieces implemented here are the index blocks of length N^(1/10), the
centered block sums Y over pairs whose larger exponent falls in one
block, the dyadic interval filtration whose atom widths track the local
oscillation scale, conditional expectations of Y over filtration atoms,
and the oscillatory/level-set integral bounds the argument rests on.
Everything that can be exact is exact: partition points are dyadic
rationals, level-set endpoint signs are proven by a binary64 filter or,
where it cannot decide, by integer checks, and phases of high-frequency
integrals reduce modulo one in integer arithmetic, once per panel edge;
the integer work rests on one primitive, `quad.scaled_g`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicRational, as_dyadic
from .errors import DomainError, ResourceError, require
from .hpgen import (UnitSample, ensure_window_resolution, ladder_frac_powers,
                    run_jobs, sample_x)
from .corr import forward_window_pairs
from .mollify import (EVAL_BLOCK, CenteredMollifier, Mollifier, centered,
                      make_outer, window_fraction)
from .quad import (DEFAULT_QUAD, QuadConfig, certify, gauss_panels,
                   monotone_root, oscillatory_power_integral, scaled_g)

__all__ = [
    "BlockScheme", "FiltrationRun", "FiltrationPartition", "ProbeReport",
    "LevelInterval", "blocks", "mu", "filtration", "filtration_runs",
    "refinement_holds", "block_sum_Y", "parity_block_sums",
    "parity_identity_check", "cond_exp_Z", "tower_check",
    "cond_exp_cross", "parity_moment", "parity_moment_both",
    "second_moment_slope", "vdc_bound_check", "level_intervals",
    "convexity_measure", "pair_overlap_integral",
]

#: refuse to materialize partitions with more atoms than this
DEFAULT_ATOM_CAP = 1_000_000
#: refuse level sets over more integer windows M than this
WINDOW_CAP = 1 << 20
#: `tower_check` refuses, before any quadrature, a level-k partition of
#: more atoms than this // the (n, m) terms of block k
TOWER_WORK_CAP = 1_000_000
#: largest N for the direct double-sum side of the parity identity
IDENTITY_N_CAP = 4096
#: fitted envelope constants for the overlap integral bounds, frozen after
#: a calibration sweep over feasible (n, m1, m2, A, N) tuples; measured
#: worst ratios were 0.96 (cross) and 2.27 (equal)
C_OVERLAP_CROSS = 3.0
C_OVERLAP_EQUAL = 4.0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    """One measured quantity next to the bound it is probed against."""

    quantity: str
    params: dict
    measured: tuple
    bound: float | None
    exponent: float | None
    # "reported": no probe tracks its envelope constant, so none asserts
    verdict: str
    detail: str = ""


# ---------------------------------------------------------------------------
# blocks and the dyadic filtration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockScheme:
    """Partition of {1,...,N} into K^9 consecutive blocks of length K."""

    N: int
    K: int

    def __post_init__(self) -> None:
        if self.K < 2 or self.K ** 10 != self.N:
            raise DomainError(f"N = {self.N} is not K^10 for integer K >= 2")

    @property
    def n_blocks(self) -> int:
        return self.K ** 9

    def block(self, k: int) -> range:
        """1-based index range of block k (inclusive start, exclusive end)."""
        if not 1 <= k <= self.n_blocks:
            raise DomainError(f"block index {k} outside 1..{self.n_blocks}")
        return range((k - 1) * self.K + 1, k * self.K + 1)


def blocks(N: int) -> BlockScheme:
    """BlockScheme for N = K^10; names the nearest valid N otherwise."""
    if N < 2 ** 10:
        raise DomainError(f"N = {N} is not a 10th power; nearest valid is 1024")
    K = round(N ** 0.1)
    for cand in (K, K - 1, K + 1):
        if cand >= 2 and cand ** 10 == N:
            return BlockScheme(N=N, K=cand)
    best = min((max(K - 1, 2), K, K + 1), key=lambda c: abs(c ** 10 - N))
    raise DomainError(
        f"N = {N} is not a 10th power; nearest valid is {best ** 10}")


def mu(x, k: int, K: int) -> int:
    """The integer with 2^mu <= x^((k+1/2)K) < 2^(mu+1).

    Computed through the squared relation 2^(2mu) <= x^((2k+1)K) <
    2^(2mu+2) so only integer powers of x appear.
    """
    x = as_dyadic(x)
    if not x > DyadicRational.from_int(1):
        raise DomainError(f"x must exceed 1, got {x}")
    if k < 1 or K < 1:
        raise DomainError(f"need k >= 1 and K >= 1, got k={k}, K={K}")
    M = (2 * k + 1) * K
    t = (x.numerator ** M).bit_length() - 1 - x.exponent * M
    return t >> 1


@dataclass(frozen=True)
class FiltrationRun:
    """Maximal stretch of consecutive atoms sharing one width 2^-mu."""

    start: DyadicRational
    mu: int
    count: int

    @property
    def end(self) -> DyadicRational:
        return self.start + DyadicRational(self.count, self.mu)


@dataclass(frozen=True)
class FiltrationPartition:
    """Dyadic partition of [A, A+1] driven by the recurrence
    z_{i+1} = z_i + 2^(-mu_k(z_i)); terminates at A+1 exactly."""

    z: tuple
    mus: tuple
    N_k: int
    runs: tuple

    def atom(self, i: int) -> tuple:
        if not 0 <= i < self.N_k:
            raise DomainError(f"atom index {i} outside 0..{self.N_k - 1}")
        return self.z[i], self.z[i + 1]


def _scale_floor(d: DyadicRational, m: int) -> int:
    """floor(d * 2^m) for d >= 0."""
    if m >= d.exponent:
        return d.numerator << (m - d.exponent)
    return d.numerator >> (d.exponent - m)


def filtration_runs(A, k: int, K: int) -> tuple:
    """Run-length form of the partition; cost scales with the number of
    distinct widths, not the atom count, so arbitrarily fine partitions
    can be checked exactly.  The first step's `mu(A, k, K)` refuses A <= 1
    and k or K below 1."""
    A = as_dyadic(A)
    end = A + DyadicRational.from_int(1)
    runs = []
    z = A
    total = 0
    while z < end:
        m = mu(z, k, K)
        remaining = end - z
        require("dyadic exponent of the length left, against the step 2^-m",
                remaining.exponent, m)
        navail = _scale_floor(remaining, m)
        # first interior index where the width changes, else navail
        lo_i, hi_i = 1, navail
        while lo_i < hi_i:
            mid = (lo_i + hi_i) // 2
            if mu(z + DyadicRational(mid, m), k, K) != m:
                hi_i = mid
            else:
                lo_i = mid + 1
        count = lo_i
        runs.append(FiltrationRun(start=z, mu=m, count=count))
        total += count
        z = z + DyadicRational(count, m)
    return tuple(runs), total


def _capped_runs(A: DyadicRational, k: int, K: int, atom_cap: int) -> tuple:
    """`filtration_runs`, refused when the atom count exceeds the cap, and
    checked to narrow from run to run."""
    least = mu(A, k, K)               # every atom is at most 2^-mu(A) wide
    if 1 << least > atom_cap:
        raise ResourceError(
            f"partition has at least 2^{least} atoms, above the cap {atom_cap}")
    runs, total = filtration_runs(A, k, K)
    if total > atom_cap:
        raise ResourceError(
            f"partition has {total} atoms, above the cap {atom_cap}")
    for prev, run in zip(runs, runs[1:]):      # a run has one width
        require("atom width exponent mu, run to next run", prev.mu, run.mu)
    return runs, total


def filtration(A, k: int, K: int,
               atom_cap: int = DEFAULT_ATOM_CAP) -> FiltrationPartition:
    """Materialized partition; refuses when the atom count exceeds the cap."""
    A = as_dyadic(A)
    runs, total = _capped_runs(A, k, K, atom_cap)
    z = [run.start + DyadicRational(i, run.mu)
         for run in runs for i in range(run.count)]
    z.append(A + DyadicRational.from_int(1))
    mus = [run.mu for run in runs for _ in range(run.count)]
    return FiltrationPartition(z=tuple(z), mus=tuple(mus), N_k=total,
                               runs=runs)


def _filtration_atom(A, k: int, K: int, i: int) -> tuple:
    """filtration(A, k, K).atom(i), read off the runs without
    materializing the partition."""
    runs, total = _capped_runs(as_dyadic(A), k, K, DEFAULT_ATOM_CAP)
    if not 0 <= i < total:
        raise DomainError(f"atom index {i} outside 0..{total - 1}")
    for run in runs:
        if i < run.count:
            return (run.start + DyadicRational(i, run.mu),
                    run.start + DyadicRational(i + 1, run.mu))
        i -= run.count


def refinement_holds(A, j: int, k: int, K: int) -> bool:
    """Exact check that every partition point for index j reappears for
    index k > j, using run-length walks so giant partitions stay cheap."""
    if not 1 <= j < k:
        raise DomainError(f"need 1 <= j < k, got j={j}, k={k}")
    coarse, _ = filtration_runs(A, j, K)
    fine, _ = filtration_runs(A, k, K)
    ends = [run.end for run in fine]
    fi = 0
    for run in coarse:
        i = 0
        while i < run.count:
            point = run.start + DyadicRational(i, run.mu)
            while ends[fi] <= point:
                fi += 1
            f = fine[fi]              # point sits in this fine run
            d = point - f.start
            if d.exponent > f.mu:
                return False          # point off the fine lattice
            # batch every coarse point that also lands in this fine run
            span = ends[fi] - point
            n_batch = _scale_floor(span, run.mu)
            if DyadicRational(n_batch, run.mu) != span:
                n_batch += 1
            n_batch = min(n_batch, run.count - i)
            if n_batch > 1 and f.mu < run.mu:
                return False          # fine lattice coarser than the points
            i += max(n_batch, 1)
    return True


# ---------------------------------------------------------------------------
# block sums Y
# ---------------------------------------------------------------------------

def _term_count(k: int, K: int) -> int:
    """Number of (n, m) pairs with n in block k and 1 <= m < n."""
    lo = (k - 1) * K
    hi = k * K
    return (hi * (hi - 1) - lo * (lo - 1)) // 2


def _window_F_sums_by_block(points: np.ndarray, scheme: BlockScheme,
                            F: Mollifier):
    """Sorted window enumeration; returns (per-pair F values, block index
    of each pair's larger exponent)."""
    pw = forward_window_pairs(points, F.edge_f)
    order = pw.order                             # an argsort per access
    orig_i = order[pw.pos_i]
    orig_j = order[pw.pos_j]
    larger = np.maximum(orig_i, orig_j)          # 0-based; power = larger + 1
    vals = F.eval_array(pw.gaps)
    return vals, larger // scheme.K + 1


def block_sum_Y(sample: UnitSample, k: int, scheme: BlockScheme,
                G: CenteredMollifier) -> float:
    """Y_k = sum over n in block k, m < n of G(points[n] - points[m]), of a
    sample whose err_bound passes the (s/N)/100 gate at G's s."""
    top = scheme.block(k).stop - 1
    if sample.n_max < top:
        raise DomainError(
            f"sample holds {sample.n_max} points but block {k} reaches "
            f"index {top}")
    ensure_window_resolution(sample, float(G.base.s))
    pts = sample.points[:top]
    vals, pair_block = _window_F_sums_by_block(pts, scheme, G.base)
    f_sum = float(vals[pair_block == k].sum())
    return f_sum - _term_count(k, scheme.K) * G.mean_f


def _parity_term_counts(scheme: BlockScheme) -> tuple:
    """(sum of _term_count(k, K) over odd k, over even k), exactly: block k
    holds K^2 k - K(K+1)/2 terms, and the odd k up to 2o - 1 sum to o^2,
    the even k up to 2e to e(e+1)."""
    K, B = scheme.K, scheme.n_blocks
    odd, even, h = (B + 1) // 2, B // 2, K * (K + 1) // 2
    return K * K * odd * odd - odd * h, K * K * even * (even + 1) - even * h


def parity_block_sums(sample: UnitSample, scheme: BlockScheme,
                      G: CenteredMollifier) -> tuple:
    """(sum of Y_k over odd k, over even k) in one window enumeration, of a
    sample whose err_bound passes the (s/N)/100 gate at G's s."""
    if sample.n_max != scheme.N:
        raise DomainError(
            f"sample has N = {sample.n_max}, scheme expects {scheme.N}")
    ensure_window_resolution(sample, float(G.base.s))
    vals, pair_block = _window_F_sums_by_block(sample.points, scheme, G.base)
    odd_mask = (pair_block % 2).astype(bool)
    f_odd = float(vals[odd_mask].sum())
    f_even = float(vals.sum()) - f_odd
    t_odd, t_even = _parity_term_counts(scheme)
    return f_odd - t_odd * G.mean_f, f_even - t_even * G.mean_f


def parity_identity_check(sample: UnitSample, scheme: BlockScheme,
                          G: CenteredMollifier) -> tuple:
    """(lhs, rhs, relative gap) for
    sum_{m != n} G(y_n - y_m) == 2 (sum_odd Y_k + sum_even Y_k)."""
    n = sample.n_max
    if n > IDENTITY_N_CAP:
        raise ResourceError(
            f"direct double sum needs N <= {IDENTITY_N_CAP}, got {n}")
    pts = sample.points
    diffs = pts[:, None] - pts[None, :]
    lhs = float(G.eval_array(diffs).sum()) - n * float(G.eval_array(
        np.zeros(1))[0])
    y_odd, y_even = parity_block_sums(sample, scheme, G)
    rhs = 2.0 * (y_odd + y_even)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
    return lhs, rhs, rel


# ---------------------------------------------------------------------------
# piecewise integration of products of F(x^n - x^m) over intervals
# ---------------------------------------------------------------------------

def _term_cuts(n: int, m: int, a: DyadicRational, b: DyadicRational,
               F: Mollifier) -> np.ndarray:
    """The x in [a, b] where F(x^n - x^m) may change analytic piece, as
    found: the certified level-set ends for the offsets -+ the support and
    plateau half-widths, a or b where an end clips there."""
    return _window_ends(n, m, a, b, (-F.edge, -F.p, F.p, F.edge))[1]


def _window_integral(products: list, cuts: dict, intervals, F: Mollifier):
    """run(nodes) -> array: for each of the sorted, disjoint `intervals`,
    the sum over `products` (tuples of (n, m) terms) of the integral over
    it of the product of F(x^n - x^m) over the product's terms.

    `cuts` maps each term to its `_term_cuts` over dyadic spans that hold
    the intervals.  A product's pieces run between an interval's ends and
    its terms' cuts strictly inside it, found by one lexsort per product;
    zero-length pieces drop out.  The phases at a piece's midpoint sort it
    once: off a factor's support it drops out, on every factor's plateau it
    adds its length exactly, else it is a ramp, analytic, where a small
    Gauss rule is already spectral.  Each run integrates the same ramps at
    its node count, one window call per factor on each block of
    EVAL_BLOCK // nodes ramps (a row's Gauss sum does not depend on its
    block, and the blocks bound the memory), and adds each product's
    pieces over each interval in order (`np.bincount` adds its weights in
    input order), then the products in order.  (A zero plateau, which no
    factory makes, leaves its kink at the integers uncut.)
    """
    los, his = np.array(intervals, dtype=float).reshape(-1, 2).T
    ids = np.arange(len(los))
    pieces = []                     # per product: piece ends, intervals, kinds
    for product in products:
        c = np.concatenate([cuts[t] for t in set(product)], axis=None)
        i = np.searchsorted(los, c) - 1          # the last interval with lo < c
        inside = (i >= 0) & (c < his[i])
        x = np.concatenate([los, his, c[inside]])
        iv = np.concatenate([ids, ids, i[inside]])
        order = np.lexsort((x, iv))
        x, iv = x[order], iv[order]
        xm = 0.5 * (x[:-1] + x[1:])
        # largest distance of a phase at the midpoint to an integer
        u = np.max([np.abs(v - np.rint(v))
                    for v in [xm ** n - xm ** m for n, m in product]], axis=0)
        piece = (iv[1:] == iv[:-1]) & (x[1:] > x[:-1]) & (u < F.edge_f)
        pieces.append((x[:-1][piece], x[1:][piece], iv[1:][piece],
                       u[piece] > F.p_f))

    def run(nodes: int) -> np.ndarray:
        rows = max(1, EVAL_BLOCK // nodes)        # ramps per window call
        total = np.zeros(len(los))
        for product, (x0, x1, iv, ramp) in zip(products, pieces):
            vals = x1 - x0
            r0, r1, sums = x0[ramp], x1[ramp], []
            for lo in range(0, r0.size, rows):
                sums += gauss_panels(
                    list(zip(r0[lo:lo + rows].tolist(),
                             r1[lo:lo + rows].tolist())), nodes,
                    lambda x: math.prod(F.eval_array(x ** n - x ** m)
                                        for n, m in product))
            vals[ramp] = sums
            total += np.bincount(iv, weights=vals, minlength=len(los))
        return total

    return run


def _check_power_scale(top: int, hi: float) -> None:
    if top * math.log2(hi) > 45:
        raise ResourceError(
            f"x^{top} near {hi:.3g} exceeds the float window-decomposition "
            "scale (2^45); this probe caps k and A")


def _y_integrals(spans: list, interval_lists: list, k: int,
                 scheme: BlockScheme, G: CenteredMollifier,
                 cfg: QuadConfig) -> list:
    """For each list of sorted, disjoint intervals, the integral of Y_k
    over each interval: one window integral per (n, m) term of block k in
    one decomposition and one elementwise doubling check per group of
    intervals, in order, so a failed group raises before the next is cut.
    A group's intervals x terms stay within the EVAL_BLOCK // nodes ramps
    of one window call; each interval sums only its own pieces, so groups
    change no value.  Each term is cut once per call, by its `_term_cuts`
    over each dyadic span (a, b) in turn; the spans hold every interval."""
    for _, b in spans:
        _check_power_scale(k * scheme.K, float(b))
    cuts = {(n, m): np.concatenate([_term_cuts(n, m, a, b, G.base)
                                    for a, b in spans], axis=None)
            for n in scheme.block(k) for m in range(1, n)}
    size = max(1, EVAL_BLOCK // cfg.nodes_per_piece // len(cuts))
    values = []
    for intervals in interval_lists:
        groups = []
        for first in range(0, len(intervals), size):
            group = intervals[first:first + size]
            run = _window_integral([(t,) for t in cuts], cuts, group, G.base)
            los, his = np.array(group, dtype=float).T
            centering = G.mean_f * (his - los) * len(cuts)
            groups.append(certify(lambda nodes: run(nodes) - centering,
                                  cfg.nodes_per_piece, cfg.rel_tol, 1e-15,
                                  "window-piece quadrature", first))
        values.append(np.concatenate(groups))
    return values


def cond_exp_Z(A, k: int, scheme: BlockScheme, G: CenteredMollifier,
               atom_index: int, quad_cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Average of Y_k over one atom of the level-k partition.

    Each (n, m) term is integrated piecewise between the preimages of its
    window boundaries, on binary64 phases x^n - x^m: the doubling check
    certifies truncation only (see quad.certify).
    """
    z0, z1 = _filtration_atom(A, k, scheme.K, atom_index)
    return float(_y_integrals([(z0, z1)], [[(z0, z1)]], k, scheme, G,
                              quad_cfg)[0][0]) / (float(z1) - float(z0))


def tower_check(A, k: int, scheme: BlockScheme, G: CenteredMollifier,
                quad_cfg: QuadConfig = DEFAULT_QUAD) -> tuple:
    """(length-weighted atom average of Z, direct integral of Y, rel gap);
    the atoms and the direct integral share one set of cuts per term.

    Refused with ResourceError, before any quadrature, when the level-k
    partition has more than TOWER_WORK_CAP // terms atoms, terms being
    the (n, m) pairs of block k."""
    part = filtration(as_dyadic(A), k, scheme.K,
                      TOWER_WORK_CAP // _term_count(k, scheme.K))
    whole = [(part.z[0], part.z[-1])]           # [A, A + 1]
    atoms, direct = _y_integrals(whole, [list(zip(part.z, part.z[1:])), whole],
                                 k, scheme, G, quad_cfg)
    weighted = float(np.cumsum(atoms)[-1])      # a running sum, atom by atom
    direct = float(direct[0])
    rel = abs(weighted - direct) / max(abs(direct), 1e-12)
    return weighted, direct, rel


def cond_exp_cross(A, j: int, k: int, scheme: BlockScheme,
                   G: CenteredMollifier, atom_sample: int = 4,
                   quad_cfg: QuadConfig = DEFAULT_QUAD) -> ProbeReport:
    """Averages of Y_k over atoms of the coarser level-j partition; the
    argument needs these to vanish at scale log N / N^(29/10)."""
    if k - j < 2:
        raise DomainError(f"need k - j >= 2, got j={j}, k={k}")
    if atom_sample < 1:
        raise DomainError(f"need at least one sampled atom, got {atom_sample}")
    A = as_dyadic(A)
    part = filtration(A, j, scheme.K)
    count = min(atom_sample, part.N_k)
    atom_ids = sorted({i * (part.N_k - 1) // max(count - 1, 1)
                       for i in range(count)})
    atoms = [part.atom(i) for i in atom_ids]
    los, his = np.array(atoms, dtype=float).T
    values = (_y_integrals(atoms, [atoms], k, scheme, G, quad_cfg)[0]
              / (his - los)).tolist()
    worst = max(abs(v) for v in values)
    envelope = math.log(scheme.N) / float(scheme.N) ** 2.9
    return ProbeReport(
        quantity="cond_exp_cross",
        params={"A": A, "N": scheme.N, "K": scheme.K, "j": j, "k": k,
                "atoms": list(atom_ids)},
        measured=tuple(values),
        bound=envelope,
        exponent=-2.9,
        verdict="reported",
        detail=f"max |E[Y_k | atom of F_j]| = {worst:.6g}; envelope "
               f"constant untracked",
    )


# ---------------------------------------------------------------------------
# parity second moments
# ---------------------------------------------------------------------------

def _parity_draw(job: tuple) -> tuple:
    """(sum of Y_k over odd k, over even k) at the draw x of one seed."""
    A, scheme, G, mantissa_bits, seed = job
    x = sample_x(A, mantissa_bits, seed)
    return parity_block_sums(ladder_frac_powers(x, 1, scheme.N), scheme, G)


def parity_moment_both(A, scheme: BlockScheme, G: CenteredMollifier,
                       mc_samples: int, seed: int, mantissa_bits: int = 32,
                       workers: int | None = None) -> dict:
    """Monte Carlo second moments of the odd and even parity sums, sharing
    one set of draws and one window enumeration per draw.

    Draw i uses the seed seed + i.  The draws run as `hpgen.run_jobs`
    runs them on `workers`; the squares are summed in draw order, so the
    moments do not depend on the worker count."""
    if mc_samples < 100:
        raise DomainError(f"mc_samples must be >= 100, got {mc_samples}")
    sums = run_jobs(_parity_draw, [(A, scheme, G, mantissa_bits, seed + i)
                                   for i in range(mc_samples)], workers)
    sq_odd = 0.0
    sq_even = 0.0
    for y_odd, y_even in sums:
        sq_odd += y_odd * y_odd
        sq_even += y_even * y_even
    return {"odd": sq_odd / mc_samples, "even": sq_even / mc_samples}


def parity_moment(A, scheme: BlockScheme, G: CenteredMollifier,
                  parity: str, mc_samples: int, seed: int,
                  mantissa_bits: int = 32,
                  workers: int | None = None) -> ProbeReport:
    if parity not in ("odd", "even"):
        raise DomainError(f"parity must be 'odd' or 'even', got {parity!r}")
    both = parity_moment_both(A, scheme, G, mc_samples, seed, mantissa_bits,
                              workers)
    measured = both[parity]
    envelope = float(scheme.N) ** 1.1
    return ProbeReport(
        quantity="parity_moment",
        params={"A": as_dyadic(A), "N": scheme.N, "parity": parity,
                "mc_samples": mc_samples, "seed": seed,
                "mantissa_bits": mantissa_bits},
        measured=(measured,),
        bound=envelope,
        exponent=1.1,
        verdict="reported",
        detail=f"other parity: {both['odd' if parity == 'even' else 'even']:.6g}",
    )


def second_moment_slope(A, s: float, mc_samples: int, seed: int,
                        Ns: tuple = (2 ** 10, 3 ** 10),
                        parity: str = "odd",
                        mantissa_bits: int = 32,
                        workers: int | None = None) -> tuple:
    """log-log growth rate of the parity second moment along an N ladder;
    `workers` as in `parity_moment_both`."""
    if len(Ns) < 2:
        raise DomainError("need at least two N values for a slope")
    moments = []
    for N in sorted(Ns):
        scheme = blocks(N)
        G = centered(make_outer(s, N))
        both = parity_moment_both(A, scheme, G, mc_samples, seed,
                                  mantissa_bits, workers)
        moments.append(both[parity])
    xs = np.log([float(N) for N in sorted(Ns)])
    ys = np.log(np.maximum(moments, 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, moments


# ---------------------------------------------------------------------------
# van der Corput
# ---------------------------------------------------------------------------

def vdc_bound_check(a, b, l: int, n: int, m: int,
                    quad_cfg: QuadConfig = DEFAULT_QUAD) -> tuple:
    """(|integral of exp(2 pi i l (x^n - x^m))|, 1/gamma) with the bound
    gamma = l n a^(n-1) (1 - 1/a); the inequality is asserted.  The
    integral refuses the inputs it cannot take; those it takes, n > m >= 1
    and 1 < a < b, make the phase strictly convex on [a, b]."""
    value = abs(oscillatory_power_integral(l, n, m, a, b, quad_cfg))
    af = as_dyadic(a).as_fraction()
    gamma = float(l * n * af ** (n - 1) * (1 - 1 / af))
    bound = 1.0 / gamma
    require("oscillatory integral against its van der Corput bound",
            value, bound)
    return value, bound


# ---------------------------------------------------------------------------
# level sets of x^n - x^m near integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelInterval:
    """Preimage interval {x: x^n - x^m in [M - w, M + w]}."""

    M: int
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _sign_at(c: int, e: int, n: int, m: int, t: int, d: int) -> int:
    """Exact sign of g(c / 2^e) - t/d, integers only."""
    val = d * scaled_g(c, e, n, m) - (t << (e * n))
    return (val > 0) - (val < 0)


def _certified_root(n: int, m: int, t: int, d: int, seed: float,
                    a_c: int, b_c: int, e: int) -> float:
    """Root of x^n - x^m = t/d on [a_c, b_c] / 2^e, whose ends the caller
    has found below and above t/d: the 2^-48 grid bracket around the seed
    whose ends have exact signs <= 0 and >= 0, else exact bisection."""
    center = int(round(seed * (1 << 48)))
    lo_grid = -((-a_c << 48) >> e)              # ceil(a * 2^48)
    hi_grid = (b_c << 48) >> e                  # floor(b * 2^48)
    for spread in (4, 64, 4096, 1 << 20):
        blo = max(center - spread, lo_grid)
        bhi = min(center + spread, hi_grid)
        if blo <= bhi and _sign_at(blo, 48, n, m, t, d) <= 0 \
                and _sign_at(bhi, 48, n, m, t, d) >= 0:
            return (blo + bhi) / 2 / float(1 << 48)
    for _ in range(80):
        a_c <<= 1
        b_c <<= 1
        e += 1
        mid = (a_c + b_c) >> 1
        if _sign_at(mid, e, n, m, t, d) <= 0:
            a_c = mid
        else:
            b_c = mid
    return (a_c + b_c) / 2 / float(1 << e)


def _sign_filter(n: int, m: int, c: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """sign(g(c / 2^48) - t/d) where binary64 proves it, else 0, at grid
    points 0 < c < 2^53, for the float targets fl(fl(M) + fl(o)) of
    t/d = M + o, M >= 0, |o| <= 1/2.

    x = c / 2^48 is exact.  With u = 2^-53, gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.4) and
    m' = max(m, 1): repeated multiplication gives p_k = x^k (1 + theta),
    |theta| <= gamma_(k-1), p_0 = 1; the target is within u(1 + u)(M + |o|)
    + u|t/d| <= 4u(1 + u)|t/d| of t/d, as M + |o| <= 3|t/d| once |o| <= |t/d|,
    true for every integer M >= 0 and sign of o exactly when |o| <= 1/2 (at
    |o| = 1/2 neighbouring windows touch); v = fl(fl(p_n - p_m) - target)
    adds two roundings, so
    |v - (g(x) - t/d)| <= gamma_(n+1) x^n + gamma_(m'+1) x^m + gamma_5 |t/d|.
    As (n + 5) u <= 1/10, gamma_k <= (10/9) k u, x^k <= (9/8) p_k and
    |t/d| <= (9/8)|target|: the bound is below 1.25 u S < 2u fl(S), S =
    (n + 1) p_n + (m' + 1) p_m + 5 |target| (three roundings).  Where |v|
    > 2u fl(S), v has the exact sign; overflow leaves it undecided."""
    x = c * 2.0 ** -48
    p, p_m = x, (x if m == 1 else np.ones_like(x))
    for k in range(2, n + 1):
        p = p * x
        if k == m:
            p_m = p
    v = (p - p_m) - targets
    bound = 2.0 ** -52 * ((n + 1) * p + (max(m, 1) + 1) * p_m
                          + 5 * np.abs(targets))
    return np.where(np.abs(v) > bound, np.sign(v), 0.0)


def _window_ends(n: int, m: int, a: DyadicRational, b: DyadicRational,
                 offsets: tuple) -> tuple:
    """(ms, ends): ends[r, j] is the certified x in [a, b] where x^n - x^m
    meets ms[j] + offsets[r], for ms = floor g(a) .. ceil g(b) and rational
    |offsets| <= 1/2; refuses more than WINDOW_CAP windows M before
    allocating.  Targets are integers t over the offsets' common
    denominator d.  An end is the middle of _certified_root's first grid
    bracket where _sign_filter proves its end signs (never if it clips: g
    increases); else it is a if t/d <= g(a), b if t/d >= g(b) (integer
    tests), or _certified_root's.  Each end is found alone, whatever offsets
    share the call; at |o| = 1/2, M + o and M + 1 - o are one target."""
    e = max(a.exponent, b.exponent)
    a_c, b_c = (x.numerator << (e - x.exponent) for x in (a, b))
    d = math.lcm(*(o.denominator for o in offsets))
    scale, od = e * n, [int(o * d) for o in offsets]
    ga, gb = scaled_g(a_c, e, n, m), scaled_g(b_c, e, n, m)
    da, db = d * ga, d * gb                  # d * 2^scale * g(a), g(b)
    a_f, b_f = float(a), float(b)
    ms = range(ga >> scale, -(-gb >> scale) + 1)   # floor g(a) .. ceil g(b)
    count = ms.stop - ms.start               # len(ms) overflows past 2^63
    if count > WINDOW_CAP:
        raise ResourceError(f"{count} integer windows of x^{n} - x^{m} on "
                            f"[{a}, {b}] exceed the cap {WINDOW_CAP}")
    targets = np.array(ms, dtype=float) + [[float(o)] for o in offsets]
    seeds = monotone_root(n, m, a_f, b_f, targets)
    ends = np.full(targets.shape, np.nan)    # nan: not decided yet
    hi_grid = (b_c << 48) >> e               # floor(b * 2^48)
    if hi_grid < 1 << 53:                    # grid points exact in binary64
        center = np.rint(seeds * 2.0 ** 48).astype(np.int64)
        blo = np.maximum(center - 4, -((-a_c << 48) >> e))
        bhi = np.minimum(center + 4, hi_grid)
        ok = (_sign_filter(n, m, blo, targets) < 0) \
            & (_sign_filter(n, m, bhi, targets) > 0)
        ends[ok] = ((blo + bhi) / 2 / 2.0 ** 48)[ok]
    for r, j in zip(*np.nonzero(np.isnan(ends))):
        t = ms[j] * d + od[r]
        ends[r, j] = a_f if t << scale <= da else b_f if t << scale >= db \
            else _certified_root(n, m, t, d, float(seeds[r, j]), a_c, b_c, e)
    return ms, ends


def level_intervals(m1: int, m2: int, A, s: float, N: int) -> list:
    """Preimages of the windows [M - 4s/N, M + 4s/N] under x^m1 - x^m2
    on [A, A+1]; the map is strictly increasing there."""
    if not m1 > m2 >= 1:
        raise DomainError(f"need m1 > m2 >= 1, got m1={m1}, m2={m2}")
    A = as_dyadic(A)
    if not A > DyadicRational.from_int(1):
        raise DomainError(f"A must exceed 1, got {A}")
    w = 4 * window_fraction(s) / N
    if not w < Fraction(1, 2):
        raise DomainError(f"window 4s/N = {float(w)} reaches 1/2")
    ms, (los, his) = _window_ends(m1, m2, A, A + DyadicRational.from_int(1),
                                  (-w, w))
    return [LevelInterval(M=M, lo=lo, hi=hi)  # lo = hi: window outside
            for M, lo, hi in zip(ms, los.tolist(), his.tolist()) if hi > lo]


def convexity_measure(f_spec, interval, s: float, N: int) -> tuple:
    """(exact preimage measure, bound) for {x in [a,b]:
    dist(f(x), Z) <= s/N}, f(x) = x^n - x^m, which n > m >= 0 and a > 1
    make increasing and convex on [a, b].

    The bound is 4s(b-a)/N + 4s/(N f'(a)); the measure must stay below
    1.25 times the bound or the run is declared numerically broken.
    """
    if isinstance(f_spec, int):
        n, m = f_spec, 0
    else:
        n, m = f_spec
    if not n > m >= 0:
        raise DomainError(f"need exponents n > m >= 0, got ({n}, {m})")
    a, b = (as_dyadic(interval[0]), as_dyadic(interval[1]))
    if not (DyadicRational.from_int(1) < a < b):
        raise DomainError(f"need 1 < a < b, got a={a}, b={b}")
    af, bf = a.as_fraction(), b.as_fraction()
    deriv_a = n * af ** (n - 1) - m * af ** (m - 1)
    w = window_fraction(s) / N
    if not w < Fraction(1, 2):
        raise DomainError(f"window s/N = {float(w)} reaches 1/2")
    _, (los, his) = _window_ends(n, m, a, b, (-w, w))
    measure = float(sum(hi - lo for lo, hi in zip(los.tolist(), his.tolist())
                        if hi > lo))
    bound = float(4 * window_fraction(s) * (bf - af) / N
                  + 4 * window_fraction(s) / (N * deriv_a))
    require("preimage measure against 1.25 times its convexity bound",
            measure, bound * 1.25)
    return measure, bound


# ---------------------------------------------------------------------------
# overlap integral of two window factors
# ---------------------------------------------------------------------------

def _overlap_threshold(m2: int, A: DyadicRational) -> int:
    """Least exponent m making (floor(A^m - A^m2) - 2)^2 >= A^m.

    Feasibility of the sparse-overlap bound only needs the gap between
    consecutive level values of x^n - x^m to dominate sqrt(A^m); raising
    both sides of that inequality to the power 2m/(n - m) removes n from
    the test, so the threshold depends on (m2, A) alone.  With
    A = c / 2^e both sides are compared in integers."""
    c, e = A.numerator, A.exponent
    for m in range(m2 + 1, 501):
        L = scaled_g(c, e, m, m2) >> (e * m)
        if L >= 3 and ((L - 2) ** 2 << (e * m)) >= c ** m:
            return m
    raise DomainError("no feasible overlap threshold below 500")


def pair_overlap_integral(n: int, m1: int, m2: int, A, F: Mollifier,
                          quad_cfg: QuadConfig = DEFAULT_QUAD) -> tuple:
    """(value, bound) for integral over [A, A+1] of
    F(x^n - x^m1) F(x^n - x^m2) dx.

    Both factors' window boundaries cut [A, A+1] into analytic pieces; the
    pieces off the level intervals of the sparser first factor, where it
    vanishes, drop out by their midpoint phase.
    """
    if not (n > m1 >= m2 >= 1):
        raise DomainError(f"need n > m1 >= m2 >= 1, got ({n}, {m1}, {m2})")
    A = as_dyadic(A)
    if not A > DyadicRational.from_int(1):
        raise DomainError(f"A must exceed 1, got {A}")
    if m1 > m2:
        n0 = _overlap_threshold(m2, A)
        if m1 < n0:
            raise DomainError(
                f"m1 = {m1} is below the computed feasibility threshold "
                f"N0 = {n0} for (n={n}, m2={m2}, A={A})")
    _check_power_scale(n, float(A) + 1.0)
    end = A + DyadicRational.from_int(1)
    cuts = {(n, m): _term_cuts(n, m, A, end, F) for m in {m1, m2}}
    fine = float(certify(
        _window_integral([((n, m1), (n, m2))], cuts, [(A, end)], F),
        quad_cfg.nodes_per_piece, quad_cfg.rel_tol, 1e-15,
        "overlap quadrature")[0])

    N = F.N
    if m1 == m2:
        bound = C_OVERLAP_EQUAL / N
    else:
        bound = C_OVERLAP_CROSS * (
            1.0 / N ** 2
            + m1 * float(A) ** ((m1 - n) / 2.0) / (N * n * (n - m1)))
    require("overlap integral against its fitted envelope", fine, bound)
    return fine, bound
