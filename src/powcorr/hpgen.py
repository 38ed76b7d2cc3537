"""Certified generation of the fractional parts {xi * x^n}, n = 1..N.

Two routes produce a UnitSample:

* exact_frac_powers: exact big-integer arithmetic, intended for moderate N;
  the only error in the stored points is binary64 output rounding.
* ladder_frac_powers: a blocked fixed-point ladder.  It keeps the full
  value xi * x^n, integer part included, with F_n fractional bits, where
  the schedule F_n = ceil((N - n) * log2 x) + g sheds precision exactly as
  fast as the remaining amplification x^(N-n) decays.  The full-width value
  advances once per block of J ~ sqrt(width / e) steps, by one product with
  p^J (x = p / 2^e, rounded once); the J points of a block come from a
  window of t + e*J bits of it (t = g + J * ceil(log2 x) + 2), multiplied
  by p step by step.  The windows of all blocks sit side by side in one
  packed integer, so each step is one big-integer product for the whole
  ladder, and each step's points leave it as floats through one numpy
  conversion.  The certified error bound is 2^(-g) * N * x / (x - 1)
  plus one binary64 quantum for output rounding.

Both bases x and seeds xi are dyadic rationals, so every intermediate
quantity is an integer and the oracle route has no rounding at all before
the final float conversion.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicRational, as_dyadic
from .errors import Check, DomainError, PrecisionError, ResourceError

#: float64 output quantization: points are correctly rounded to binary64,
#: which perturbs a value in [0, 1) by at most 2^-53.
FLOAT64_QUANTUM = Fraction(1, 2 ** 53)

#: work cap for the exact oracle, in units of (steps x operand bits);
#: N ~ 2000 with 64-bit bases sits two orders of magnitude below it.
ORACLE_WORK_CAP = 2 ** 31

_ONE_MINUS = math.nextafter(1.0, 0.0)


def _log2_int(p: int) -> float:
    """log2 of a positive integer, safe for arbitrary size."""
    bl = p.bit_length()
    if bl <= 900:
        return math.log2(p)
    shift = bl - 60
    return math.log2(p >> shift) + shift


def ceil_mul_log2(p: int, mult: int) -> int:
    """ceil(mult * log2(p)) computed exactly (p >= 1, mult >= 0)."""
    if mult == 0 or p == 1:
        return 0
    if p & (p - 1) == 0:
        return mult * (p.bit_length() - 1)
    t = mult * _log2_int(p)
    frac = t - math.floor(t)
    if 1e-7 < frac < 1.0 - 1e-7:
        return math.floor(t) + 1
    # near-tie: settle by one exact big power
    b = p ** mult
    floor_exact = b.bit_length() - 1
    return floor_exact if b & (b - 1) == 0 else floor_exact + 1


def ceil_log2_ratio(x: DyadicRational, mult: int) -> int:
    """ceil(mult * log2(x)) for dyadic x > 1, exact."""
    return ceil_mul_log2(x.numerator, mult) - mult * x.exponent


def _ceil_log2_ratios(x: DyadicRational, mults: np.ndarray) -> np.ndarray:
    """ceil_log2_ratio(x, m) for every m of an int64 array, in one pass.

    The float product m * log2(p) is the one `ceil_mul_log2` forms; only
    entries within 1e-7 of an integer take its exact scalar path.
    """
    p, e = x.numerator, x.exponent
    if p & (p - 1) == 0:
        return mults * (p.bit_length() - 1 - e)
    t = mults * _log2_int(p)
    floor = np.floor(t)
    out = floor.astype(np.int64) + 1 - mults * e
    frac = t - floor
    for i in np.flatnonzero((frac <= 1e-7) | (frac >= 1.0 - 1e-7)):
        out[i] = ceil_log2_ratio(x, int(mults[i]))
    return out


@dataclass(frozen=True)
class PrecisionBudget:
    """Per-step fractional-bit schedule for the ladder.

    frac_bits[n-1] is F_n = ceil((N - n) * log2 x) + g; the total operand
    width stays near ceil(N * log2 x) + g throughout the run.
    """

    total_bits: int
    guard_bits: int
    frac_bits: tuple

    def __post_init__(self) -> None:
        fb = self.frac_bits
        if fb != tuple(sorted(fb, reverse=True)):
            raise DomainError("precision schedule must be non-increasing")
        if fb and fb[-1] != self.guard_bits:
            raise DomainError("schedule must end at the guard-bit count")


def precision_budget(x: DyadicRational, N: int, g: int) -> PrecisionBudget:
    x = as_dyadic(x)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    remaining = np.arange(N - 1, -1, -1, dtype=np.int64)  # N - n, n = 1..N
    frac_bits = tuple((_ceil_log2_ratios(x, remaining) + g).tolist())
    return PrecisionBudget(total_bits=_total_bits(x, N, g), guard_bits=g,
                           frac_bits=frac_bits)


def _total_bits(x: DyadicRational, N: int, g: int) -> int:
    """Operand width of the ladder: ceil(N log2 x) + g + 1."""
    return ceil_log2_ratio(x, N) + g + 1


@dataclass(frozen=True, eq=False)
class UnitSample:
    """Fractional parts of xi * x^n for n = 1..n_max, stored as binary64.

    err_bound is a certified sup over n of |points[n-1] - {xi * x^n}|,
    measured in circular (mod 1) distance; it includes the binary64 output
    quantization.
    """

    n_max: int
    points: np.ndarray
    err_bound: float
    base: DyadicRational
    xi: DyadicRational
    guard_bits: int = 0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or len(pts) != self.n_max:
            raise DomainError(
                f"expected {self.n_max} points, got shape {pts.shape}")
        # a NaN fails both comparisons, so it is refused with the rest
        if not np.all((pts >= 0.0) & (pts < 1.0)):
            raise DomainError("all points must lie in [0, 1)")
        if not (math.isfinite(self.err_bound) and self.err_bound >= 0.0):
            raise DomainError(f"bad err_bound {self.err_bound}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


def sample_x(A, mantissa_bits: int, seed: int) -> DyadicRational:
    """Draw x = A + u with u uniform on the mantissa_bits-deep dyadic grid.

    Deterministic for a fixed seed; the draw lands in [A, A+1).
    """
    A = as_dyadic(A)
    if not A > DyadicRational(1, 0):
        raise DomainError(f"A must exceed 1, got {A}")
    if mantissa_bits < 1:
        raise DomainError(f"mantissa_bits must be >= 1, got {mantissa_bits}")
    u = random.Random(seed).getrandbits(mantissa_bits)
    return A + DyadicRational(u, mantissa_bits)


def run_jobs(fn, jobs: list, workers: int | None) -> list:
    """[fn(job) for job in jobs]: in this process for workers = 1 or one
    job, else on a pool of min(workers or the CPU count, jobs) processes
    started the platform's default way; fn goes to them by name."""
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(min(workers or os.cpu_count() or 1,
                                 len(jobs))) as pool:
        return list(pool.map(fn, jobs))


def _check_gen_args(x: DyadicRational, xi: DyadicRational, N: int) -> None:
    if not x > DyadicRational(1, 0):
        raise DomainError(f"base must exceed 1, got {x}")
    if xi.numerator == 0:
        raise DomainError("xi must be nonzero")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")


def _big_ratio_to_unit_float(num: int, den: int) -> float:
    """Correctly rounded num / den for 0 <= num < den, clamped into [0, 1)."""
    v = num / den
    return v if v < 1.0 else _ONE_MINUS


def _unit_floats(words: np.ndarray, L: int) -> np.ndarray:
    """Correctly rounded (field mod 2^L) / 2^L for each row of `words`,
    clamped into [0, 1); L >= 1.

    Row k is one little-endian integer in uint64 words, of at least L bits.
    The 64 bits of the field just below bit L, with the OR of the bits
    below them (the sticky bit) ORed into their bit 0, round to binary64
    exactly as the whole field does whenever they are at least 2^55 (the
    rounding position then lies above bit 1) or the sticky bit is 0 (they
    are then the whole field).  The rare other rows, fractions below 2^-9
    with nonzero low bits, take the exact int / int path.
    """
    lo = L - 64
    if lo <= 0:
        # the shift drops the bits at and above L
        top = words[:, 0] << (-lo)
        sticky = np.zeros(len(words), dtype=bool)
    else:
        q, r = divmod(lo, 64)
        top = words[:, q] >> r
        sticky = words[:, :q].any(axis=1)
        if r:
            top |= words[:, q + 1] << (64 - r)
            sticky |= (words[:, q] & ((1 << r) - 1)) != 0
    top |= sticky
    v = top.astype(np.float64) * 2.0 ** -64
    for k in np.flatnonzero(sticky & (top < 2 ** 55)):
        field = int.from_bytes(words[k].tobytes(), "little") & ((1 << L) - 1)
        v[k] = field / (1 << L)
    return np.minimum(v, _ONE_MINUS, out=v)


def exact_frac_powers(x, xi, N: int) -> UnitSample:
    """Exact oracle: {xi * x^n} as (xi_num * x_num^n mod 2^E) / 2^E.

    Runs a single running product modulo 2^(f + N*e), from which every
    prefix fractional part is recovered by masking low bits; err_bound is
    one binary64 quantum.
    """
    x = as_dyadic(x)
    xi = as_dyadic(xi)
    _check_gen_args(x, xi, N)
    p, e = x.numerator, x.exponent
    q, f = xi.numerator, xi.exponent
    work = N * (f + N * max(e, 1))
    if work > ORACLE_WORK_CAP:
        raise ResourceError(
            f"exact oracle work estimate {work} exceeds cap "
            f"{ORACLE_WORK_CAP} (N={N}, base exponent {e})")
    full_shift = f + N * e
    full_mod = 1 << full_shift
    pts = np.empty(N, dtype=np.float64)
    r = q % full_mod
    for n in range(1, N + 1):
        r = (r * p) % full_mod
        den = 1 << (f + n * e)
        pts[n - 1] = _big_ratio_to_unit_float(r & (den - 1), den)
    return UnitSample(n_max=N, points=pts, err_bound=float(FLOAT64_QUANTUM),
                      base=x, xi=xi, guard_bits=0)


def default_guard_bits(N: int) -> int:
    return 64 + max(0, (max(N, 1) - 1).bit_length())


def _round_shift(a: int, k: int) -> int:
    """round(a / 2^k) half-up for a >= 0; exact left shift for k <= 0."""
    if k <= 0:
        return a << (-k)
    return ((a >> (k - 1)) + 1) >> 1


def ladder_err_bound(x: DyadicRational, N: int, g: int) -> Fraction:
    """Certified sup error of the ladder points, before float rounding."""
    p, e = x.numerator, x.exponent
    return Fraction(N * p, (p - (1 << e))) / (1 << g)


def _round_float_up(value: Fraction) -> float:
    f = float(value)
    if Fraction(f) < value:
        f = math.nextafter(f, math.inf)
    return f


def _block_length(total_bits: int, e: int, N: int) -> int:
    """Steps per block, J ~ sqrt(total_bits / e), at most N.

    A block costs one full-width product (about total_bits of work besides
    the multiply) and J window steps of about e * J bits each, so J near
    sqrt(total_bits / e) balances the two.  An integer base (e = 0) has
    no window cost to balance and takes J = 1.
    """
    if e == 0:
        return 1
    return max(1, min(N, math.isqrt(total_bits // e)))


def _block_shape(x: DyadicRational, N: int, g: int,
                 total_bits: int) -> tuple:
    """(J, t): the ladder's steps per block, and the fraction bits
    t = g + J * ceil(log2 x) + 2 of a block's window."""
    J = _block_length(total_bits, x.exponent, N)
    return J, g + J * ceil_log2_ratio(x, 1) + 2


def ladder_work(x, N: int, g: int | None = None) -> int:
    """Modelled cost of `ladder_frac_powers(x, xi, N, g)` in bit operations:
    ceil(N / J) full-width products of total_bits each, plus N window
    steps of t + e*J bits each, with the ladder's own J and t."""
    x = as_dyadic(x)
    if g is None:
        g = default_guard_bits(N)
    total = _total_bits(x, N, g)
    J, t = _block_shape(x, N, g, total)
    return -(-N // J) * total + N * (t + x.exponent * J)


def ladder_frac_powers(x, xi, N: int, g: int | None = None) -> UnitSample:
    """Blocked fixed-point evaluation of {xi * x^n}, n = 1..N.

    With x = p / 2^e and xi = q / 2^f, the state V_b, xi * x^b * 2^F_b
    rounded to an integer (integer part included), is kept only at the
    block starts b = 1, 1 + J, 1 + 2J, ...; F_b = ceil((N - b) log2 x) + g
    is the precision schedule and J = `_block_length`.  One full-width
    product per block advances it:

        V_(b+J) = round(V_b * p^J / 2^(F_b + e*J - F_(b+J))).

    The J outputs n = b + i (0 <= i < J) of a block come from a window
    of V_b.  Let t = g + J * ceil(log2 x) + 2 and
    A = floor(V_b * 2^(t - F_b)), exact when F_b <= t, so that
    V_b = A * 2^(F_b - t) + B with 0 <= B < 2^(F_b - t).  Then

        V_b * p^i / 2^(F_b + e*i)
            = A * p^i / 2^(t + e*i) + B * p^i / 2^(F_b + e*i),

    and the fractional part of the first term depends only on
    W = A mod 2^(t + e*J): the rest of A is a multiple of 2^(t + e*J),
    which contributes the integer p^i * 2^(e*(J - i)) times a whole number.
    So W is cut out by one shift and one mask, multiplied by p step by
    step and masked to t + e*J bits, and output n is
    (W * p^i mod 2^(t + e*i)) / 2^(t + e*i), correctly rounded to binary64.

    Packing: the windows of all ceil(N / J) blocks advance together.  Block
    k's W sits in bits [k*S, (k+1)*S) of one integer Z, with the slot width
    S a multiple of 64 and at least t + e*J + bitlen(p), so W * p fits its
    slot and no carry crosses into the next.  One step for every block is
    then Z = (Z * p) & KEEP, KEEP holding 2^(t + e*J) - 1 in every slot,
    and the points of step i are read off the uint64 words of Z's bytes by
    `_unit_floats`, which rounds each field as num / den does.  The points
    past N of the last block are computed and dropped.

    Error, in circular distance from {xi * x^n}:

    * rounding: each block start c rounds once, by at most 2^(-F_c - 1)
      in value; every later product is exact, so at output n >= c that
      error is amplified to 2^(-F_c - 1) * x^(n - c)
      <= 2^(-F_c - 1) * x^(N - c) <= 2^(-g - 1), since
      x^(N - c) <= 2^(F_c - g).  There are ceil(N / J) <= N block starts.
    * window: dropping B costs less than 2^-t * x^i <= 2^-t * x^J
      <= 2^(-t + J * ceil(log2 x)) = 2^(-g - 2), and nothing when F_b <= t.

    The total, 2^(-g) * (N/2 + 1/4), is below `ladder_err_bound`,
    2^(-g) * N * x / (x - 1); the stored bound adds 2^-53 for the
    binary64 output rounding.
    """
    x = as_dyadic(x)
    xi = as_dyadic(xi)
    _check_gen_args(x, xi, N)
    if g is None:
        g = default_guard_bits(N)
    if g < 32:
        raise DomainError(f"guard bits must be >= 32, got {g}")
    p, e = x.numerator, x.exponent
    q, f = xi.numerator, xi.exponent
    budget = precision_budget(x, N, g)
    F = budget.frac_bits
    J, t = _block_shape(x, N, g, budget.total_bits)
    pJ = p ** J
    keep = (1 << (t + e * J)) - 1
    slot = -(-(t + e * J + p.bit_length()) // 64) * 8       # S / 8 bytes
    windows = []
    V = _round_shift(q * p, (f + e) - F[0])
    for b in range(0, N, J):
        if b:
            V = _round_shift(V * pJ, F[b - J] + e * J - F[b])
        s = F[b] - t
        W = (V >> s if s >= 0 else V << -s) & keep
        windows.append(W.to_bytes(slot, "little"))
    blocks = len(windows)
    Z = int.from_bytes(b"".join(windows), "little")
    KEEP = int.from_bytes(keep.to_bytes(slot, "little") * blocks, "little")
    pts = np.empty((blocks, J))
    for i in range(J):
        if i:
            Z = (Z * p) & KEEP
        words = np.frombuffer(Z.to_bytes(slot * blocks, "little"),
                              dtype="<u8").reshape(blocks, slot // 8)
        pts[:, i] = _unit_floats(words, t + e * i)
    bound = ladder_err_bound(x, N, g) + FLOAT64_QUANTUM
    return UnitSample(n_max=N, points=pts.ravel()[:N],
                      err_bound=_round_float_up(bound), base=x, xi=xi,
                      guard_bits=g)


def required_guard_bits(sample: UnitSample, s: float) -> int:
    """Least guard-bit count whose ladder bound meets the s/N/100 gate."""
    N = sample.n_max
    target = Fraction(s) / N / 100 - FLOAT64_QUANTUM
    if target <= 0:
        raise DomainError(
            f"window s/N = {s}/{N} is below binary64 resolution; "
            "no guard-bit count can certify it")
    x = sample.base
    g = max(32, int(math.ceil(math.log2(
        N * float(x) / (float(x) - 1.0) / float(target)))))
    while ladder_err_bound(x, N, g) >= target:
        g += 1
    return g


def ensure_window_resolution(sample: UnitSample, s: float) -> None:
    """Gate: certified error must be far below the statistic window s/N,
    err_bound < (s/N)/100; a failure carries its record and, for a ladder
    sample, the guard bits that would pass."""
    gate = (s / sample.n_max) / 100.0
    if sample.err_bound < gate:
        return
    g = (required_guard_bits(sample, s)
         if sample.base > DyadicRational(1, 0) else None)
    raise PrecisionError(Check("err_bound against the (s/N)/100 gate",
                               sample.err_bound, gate), g)


# ---- serialization ------------------------------------------------------

def save_sample(sample: UnitSample, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"x={sample.base} xi={sample.xi} N={sample.n_max} "
            f"g={sample.guard_bits} err_bound={sample.err_bound:.17g}\n")
        for v in sample.points:
            fh.write(f"{v:.17g}\n")
