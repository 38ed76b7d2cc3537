"""The benchmark workloads: seeded inputs, ops, canonical outputs, checks.

Each workload is a list of ops run one after another; one pass runs every op
once.  Ops come in four groups (sweep, control, levelset, quadrature) and
each workload runs two of them (WORKLOADS).  An op returns the program's raw output.  After the pass, outside the
timed region, ``canon`` reduces that output to canonical numbers and
``check`` compares them with a reference computed once per run by code in
this file: exact integer arithmetic, the package's exact oracle, or an
independent float computation.  Counts must match exactly; floats must agree
within the error the program itself certifies.  A check reports the problems
it found and whether every compared float was bit-identical to its
reference.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from powcorr import cli, hpgen, mollify, probe, quad
from powcorr.dyadic import DyadicRational

U53 = 2.0 ** -53


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    canon: Callable[[object], dict]
    check: Callable[[dict], tuple]          # canon -> (problems, bit_identical)
    roots: int = 0      # certified-root calls, known from the inputs


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], None]
    pool_op: int | None = None      # index of the op that runs a pool
    description: dict = field(default_factory=dict)


class Checker:
    """Mismatches between an op's canonical output and its reference."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.exact = True

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.exact = False
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got: float, want: float, tol: float) -> None:
        if got != want:
            self.exact = False
            if not abs(got - want) <= tol:
                self.problems.append(
                    f"{what}: got {got!r}, want {want!r} (tol {tol:.3g})")

    def result(self) -> tuple:
        return self.problems[:5], self.exact


def cached(fn):
    """Zero-argument memo: references are computed once, on first check."""
    return functools.lru_cache(maxsize=None)(fn)


def run_cli(argv: list) -> tuple:
    """powcorr's command line in-process; stdout is captured as the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_canon(raw) -> dict:
    code, text = raw
    return {"code": code, "bytes": len(text.encode()),
            "results": json.loads(text)["results"] if text else None}


def _cli_prelude(c: Checker, canon: dict) -> dict | None:
    c.equal("exit code", canon["code"], 0)
    if canon["results"] is None:
        c.problems.append("no JSON report on stdout")
    return canon["results"]


def _dyadic_text(text: str) -> Fraction:
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


# ---------------------------------------------------------------------------
# independent pair statistics: enumerate by offset in sorted order
# ---------------------------------------------------------------------------
# The package enumerates candidate pairs row by row with searchsorted; the
# references below walk offsets k = 1, 2, ... over the sorted points instead,
# deciding membership with the same float predicate (forward gap
# doubled[i + k] - ys[i] compared with the window), so counts must agree.

def _offset_gaps(points: np.ndarray, width: float):
    ys = np.sort(points)
    n = len(ys)
    doubled = np.concatenate([ys, ys + 1.0])
    for k in range(1, n):
        gaps = doubled[k:k + n] - ys
        if gaps.min() > width:
            return
        yield k, gaps


def pair_count(points: np.ndarray, w: float) -> int:
    return sum(int(np.count_nonzero(g <= w))
               for _, g in _offset_gaps(points, w))


def pair_degrees(points: np.ndarray, w: float) -> np.ndarray:
    n = len(points)
    deg = np.zeros(n)
    for k, gaps in _offset_gaps(points, w):
        idx = np.nonzero(gaps <= w)[0]
        deg += np.bincount(idx, minlength=n)
        deg += np.bincount((idx + k) % n, minlength=n)
    return deg


def window_sum(points: np.ndarray, p: Fraction, delta: Fraction) -> tuple:
    """(sum over ordered-forward pairs of the ramp window, terms summed):
    the same cubic smoothstep formula on the same float gaps."""
    p_f, d_f, e_f = float(p), float(delta), float(p + delta)
    parts = []
    for _, gaps in _offset_gaps(points, e_f):
        g = gaps[gaps < e_f]
        u = np.abs(g - np.round(g))
        v = np.clip((u - p_f) / d_f, 0.0, 1.0)
        vals = 1.0 - v * v * (3.0 - 2.0 * v)
        vals = np.where(u <= p_f, 1.0, vals)
        parts.append(np.where(u >= e_f, 0.0, vals))
    vals = np.concatenate(parts) if parts else np.zeros(0)
    return float(vals.sum()), len(vals)


def summation_tol(total: float, terms: int, scale: float) -> float:
    """Bound on the difference of two float sums of the same terms in
    different orders: 2 * gamma_terms * sum|v|, times the output scale."""
    k = max(terms, 1) + 1
    return scale * 2.0 * (k * U53 / (1.0 - k * U53)) * abs(total)


# ---------------------------------------------------------------------------
# sweep: the command users run for a Poissonian verdict
# ---------------------------------------------------------------------------

SWEEP_N = (5000, 20000)
SWEEP_S = (0.5, 1.0, 2.0)
SWEEP_SAMPLES = 20
SWEEP_TOL = 0.15          # the CLI defaults for --tol and --q
SWEEP_Q = 0.9
#: each sweep ladder is checked against the exact oracle on its first
#: ORACLE_PREFIX points and on its last ORACLE_SUFFIX points, where the
#: working precision is least and rounding has built up over N steps; the
#: ladder is a recurrence, so an error made at any step carries into the
#: suffix.  The suffix oracle's cost grows with N * ORACLE_SUFFIX: 512 keeps
#: it near 0.6 s per x at N = 20000, outside the timed passes.
ORACLE_PREFIX = 1024
ORACLE_SUFFIX = 512


def _oracle_misses(smp, xd, N: int, head) -> list:
    """Largest circular distance from the exact oracle (head: its first
    ORACLE_PREFIX points), per window, where it exceeds the err_bounds."""
    tail = hpgen.exact_frac_powers(xd, xd ** (N - ORACLE_SUFFIX), ORACLE_SUFFIX)
    misses = []
    for where, got, exact in (("first", smp.points[:ORACLE_PREFIX], head),
                              ("last", smp.points[N - ORACLE_SUFFIX:], tail)):
        d = np.abs(got - exact.points)
        d = float(np.minimum(d, 1.0 - d).max())
        if not d <= smp.err_bound + exact.err_bound:
            misses.append(f"{where} {len(exact.points)} points by {d:.3g}")
    return misses


def _sweep_reference(cli_seed: int) -> dict:
    A = Fraction(float("1.02"))
    xs, counts, problems = [], {}, []
    for idx in range(SWEEP_SAMPLES):
        u = random.Random(cli_seed + idx).getrandbits(64)
        x = A + Fraction(u, 1 << 64)
        xs.append(x)
        xd = DyadicRational.from_fraction(x)
        head = hpgen.exact_frac_powers(xd, 1, ORACLE_PREFIX)
        for N in SWEEP_N:
            smp = hpgen.ladder_frac_powers(xd, 1, N)
            for miss in _oracle_misses(smp, xd, N, head):
                problems.append(f"ladder x#{idx} N={N} misses the exact oracle "
                                f"on its {miss} > err_bound")
            for s in SWEEP_S:
                counts[(idx, N, s)] = pair_count(smp.points, s / N)
    return {"x": xs, "counts": counts, "problems": problems}


def build_sweep(seed: int, workers: int) -> Workload:
    cli_seed = random.Random(seed).randrange(1 << 30)
    argv = ["sweep", "--A", "1.02", "--N", ",".join(map(str, SWEEP_N)),
            "--s", "0.5,1,2", "--samples", str(SWEEP_SAMPLES),
            "--seed", str(cli_seed), "--workers", str(workers)]
    reference = cached(lambda: _sweep_reference(cli_seed))

    def check(canon: dict) -> tuple:
        c = Checker()
        res = _cli_prelude(c, canon)
        if res is None:
            return c.result()
        ref = reference()
        c.problems.extend(ref["problems"])
        rows = res["rows"]
        c.equal("row count", len(rows),
                SWEEP_SAMPLES * len(SWEEP_N) * len(SWEEP_S))
        within = {}
        for r in rows:
            key = (r["sample"], r["N"], r["s"])
            c.equal(f"x of sample {r['sample']}", _dyadic_text(r["x"]),
                    ref["x"][r["sample"]])
            count = ref["counts"][key]
            c.equal(f"pair count {key}", round(r["r2"] * r["N"] / 2.0), count)
            want = 2.0 * count / r["N"]
            c.equal(f"r2 {key}", r["r2"], want)
            ratio = want / (2.0 * r["s"])
            c.equal(f"ratio {key}", r["ratio"], ratio)
            ok = abs(ratio - 1.0) <= SWEEP_TOL
            c.equal(f"within_tol {key}", r["within_tol"], ok)
            within.setdefault((r["N"], r["s"]), []).append(ok)
        for item in res["summary"]:
            sel = within.get((item["N"], item["s"]), [])
            c.equal(f"summary {item['N']},{item['s']}", item["fraction_within"],
                    sum(sel) / max(len(sel), 1))
        gate = all(sum(v) / len(v) >= SWEEP_Q
                   for (N, _), v in within.items() if N == max(SWEEP_N))
        c.equal("poissonian verdict", res["poissonian"], gate)
        return c.result()

    ops = [Op("sweep", lambda: run_cli(argv), _cli_canon, check)]

    def warmup():
        run_cli(["sweep", "--A", "1.02", "--N", "200", "--s", "1",
                 "--samples", "10", "--workers", "1"])

    return Workload("sweep", ops, warmup,
                    description={"argv": argv, "cli_seed": cli_seed})


# ---------------------------------------------------------------------------
# control: uniform-control statistics through the CLI
# ---------------------------------------------------------------------------

CONTROL_N = 1_000_000
CONTROL_SPACINGS_N = 50_000


@functools.lru_cache(maxsize=4)
def _uniform(n: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    return np.array([rng.random() for _ in range(n)], dtype=np.float64)


def _windows(s: float, N: int) -> dict:
    sf, d = Fraction(s), Fraction(1, N * N)
    return {"inner": (sf / N - d, d), "outer": (sf / N, d)}


def build_control(seed: int, workers: int) -> Workload:
    cli_seed = random.Random(seed).randrange(1 << 30)
    grid = ["--N", str(CONTROL_N), "--s", "0.5,1,2", "--samples", "1",
            "--seed", str(cli_seed), "--control", "uniform"]
    pair_argv = ["paircorr", "--smoothed"] + grid
    triple_argv = ["triple"] + grid
    spacing_argv = ["spacings", "--N", str(CONTROL_SPACINGS_N),
                    "--samples", "1", "--seed", str(cli_seed),
                    "--control", "uniform"]

    @cached
    def pair_ref():
        pts = _uniform(CONTROL_N, cli_seed)
        out = {}
        for s in SWEEP_S:
            w = s / CONTROL_N
            out[("count", s)] = pair_count(pts, w)
            for flavor, (p, d) in _windows(s, CONTROL_N).items():
                out[(flavor, s)] = window_sum(pts, p, d)
        return out

    @cached
    def triple_ref():
        pts = _uniform(CONTROL_N, cli_seed)
        return {s: pair_degrees(pts, s / CONTROL_N) for s in SWEEP_S}

    def check_pair(canon):
        c = Checker()
        res = _cli_prelude(c, canon)
        if res is None:
            return c.result()
        ref = pair_ref()
        c.equal("row count", len(res["rows"]), len(SWEEP_S))
        for r in res["rows"]:
            s, N = r["s"], r["N"]
            c.equal(f"r2 s={s}", r["r2"], 2.0 * ref[("count", s)] / N)
            for flavor in ("inner", "outer"):
                total, terms = ref[(flavor, s)]
                c.close(f"r2_{flavor} s={s}", r[f"r2_{flavor}"],
                        2.0 * total / N, summation_tol(total, terms, 2.0 / N))
        return c.result()

    def check_triple(canon):
        c = Checker()
        res = _cli_prelude(c, canon)
        if res is None:
            return c.result()
        ref = triple_ref()
        c.equal("row count", len(res["rows"]), len(SWEEP_S))
        for r in res["rows"]:
            deg = ref[r["s1"]]
            c.equal(f"r3 s={r['s1']}", r["r3"],
                    float(np.sum(deg * deg - deg)) / CONTROL_N)
        return c.result()

    def check_spacings(canon):
        c = Checker()
        res = _cli_prelude(c, canon)
        if res is None:
            return c.result()
        n = CONTROL_SPACINGS_N
        ys = np.sort(_uniform(n, cli_seed))
        gaps = np.empty(n)
        gaps[:-1] = np.diff(ys)
        gaps[-1] = (ys[0] + 1.0) - ys[-1]
        t = np.sort(gaps * n)
        f = np.arange(1, n + 1, dtype=np.float64) / n
        model = 1.0 - np.exp(-t)
        sup = float(np.maximum(np.abs(f - model), np.abs(
            np.concatenate([[0.0], f[:-1]]) - model)).max())
        i = np.arange(1, n + 1, dtype=np.float64)
        star = float(max((i / n - ys).max(), (ys - (i - 1.0) / n).max()))
        row = res["rows"][0]
        c.close("sup_exponential", row["sup_exponential"], sup, 4 * U53)
        c.equal("star_discrepancy", row["star_discrepancy"], star)
        ecdf = res["ecdf"]
        c.equal("ecdf rows", len(ecdf), n)
        if len(ecdf) == n:
            for key, want in (("t", t), ("ecdf", f)):
                got = [e[key] for e in ecdf]
                c.equal(f"ecdf {key}", bool(np.array_equal(got, want)), True)
            got = np.array([e["model"] for e in ecdf])
            want = np.array([1.0 - math.exp(-float(v)) for v in t])
            c.close("ecdf model", float(np.abs(got - want).max()), 0.0, 2 * U53)
        return c.result()

    ops = [Op("paircorr", lambda: run_cli(pair_argv), _cli_canon, check_pair),
           Op("triple", lambda: run_cli(triple_argv), _cli_canon, check_triple),
           Op("spacings", lambda: run_cli(spacing_argv), _cli_canon,
              check_spacings)]

    def warmup():
        small = ["--N", "2000", "--s", "1", "--samples", "1",
                 "--control", "uniform"]
        run_cli(["paircorr", "--smoothed"] + small)
        run_cli(["triple"] + small)
        run_cli(["spacings"] + small)

    return Workload("control", ops, warmup, description={
        "argv": [pair_argv, triple_argv, spacing_argv], "cli_seed": cli_seed})


# ---------------------------------------------------------------------------
# levelset: certified level-set roots of x^n - x^m
# ---------------------------------------------------------------------------

#: intervals per convexity tuple, by n: an eighth of the mean interval count
#: of the level-set gate's draw (n uniform in 2..12, m < n, [a, b] inside
#: (1, 3) on the 1/64 grid), so each pass keeps the gate's heavy tail across
#: n while its total work no longer depends on which b the seed happens to
#: draw.
LEVELSET_INTERVALS = {2: 1, 3: 3, 4: 7, 5: 18, 6: 49, 7: 137, 8: 384,
                      9: 1074, 10: 3009, 11: 8452, 12: 23791}
#: intervals per level_intervals op, by m1: the count on [3/2, 5/2] with
#: m2 = m1 - 1; A is set so each seeded m2 gives the same count
LEVEL_INTERVALS = {3: 8, 4: 21, 5: 56, 6: 142, 7: 360, 8: 906, 9: 2276}
B_GRID = 1 << 12          # b and A are multiples of 2^-12
B_MAX = Fraction(191, 64)  # the gate's largest right endpoint
ROOT_TOL = 2.0 ** -45      # per endpoint: 4 steps of the 2^-48 grid + float ref


def _g(x: Fraction, n: int, m: int) -> Fraction:
    return x ** n - (x ** m if m else 1)


def _interval_range(n, m, a: Fraction, b: Fraction, w: Fraction) -> tuple:
    """M range the package visits: M in [floor g(a), ceil g(b)] with
    [M - w, M + w] meeting [g(a), g(b)]; each visit certifies two roots."""
    ga, gb = _g(a, n, m), _g(b, n, m)
    lo = max(math.floor(ga), math.ceil(ga - w))
    hi = min(math.ceil(gb), math.floor(gb + w))
    return ga, gb, lo, hi


def certified_roots(n, m, a, b, w) -> int:
    _, _, lo, hi = _interval_range(n, m, a, b, w)
    return 2 * max(0, hi - lo + 1)


def _least_on_grid(lo: Fraction, hi: Fraction, ok) -> Fraction:
    """Least multiple of 2^-12 in (lo, hi] where the monotone ok() holds,
    else hi."""
    j_lo, j_hi = math.floor(lo * B_GRID) + 1, math.floor(hi * B_GRID)
    while j_lo < j_hi:
        mid = (j_lo + j_hi) // 2
        if ok(Fraction(mid, B_GRID)):
            j_hi = mid
        else:
            j_lo = mid + 1
    return Fraction(j_lo, B_GRID)


def _float_roots(n, m, targets: np.ndarray, a: float, b: float) -> np.ndarray:
    """Bisection in binary64 on x^n - x^m = target over [a, b]."""
    lo = np.full(len(targets), a)
    hi = np.full(len(targets), b)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        gm = mid ** n - (mid ** m if m else 1.0)
        below = gm <= targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def reference_intervals(n, m, a: Fraction, b: Fraction, w: Fraction) -> tuple:
    """(M values, lo, hi) of the non-degenerate preimage intervals.

    Which M give an interval, and which endpoints clip to a or b, is decided
    exactly; interior endpoints come from float bisection."""
    ga, gb, lo_m, hi_m = _interval_range(n, m, a, b, w)
    # non-degenerate: M + w > g(a) and M - w < g(b)
    first = max(lo_m, math.floor(ga - w) + 1)
    last = min(hi_m, math.ceil(gb + w) - 1)
    M = np.arange(first, last + 1, dtype=np.int64)
    af, bf = float(a), float(b)

    def endpoints(sign: int) -> np.ndarray:
        x = _float_roots(n, m, M.astype(np.float64) + sign * float(w), af, bf)
        # target M + sign*w <= g(a) clips to a, >= g(b) clips to b
        x = np.where(M <= math.floor(ga - sign * w), af, x)
        return np.where(M >= math.ceil(gb - sign * w), bf, x)

    return M, endpoints(-1), endpoints(+1)


def build_levelset(seed: int, workers: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    roots_total = 0
    for n in range(2, 13):
        m = rng.randint(0, n - 1)
        s = rng.choice((0.5, 1.0, 2.0, 3.0))
        N = rng.choice((50, 100, 500, 1000))
        a = Fraction(64 + rng.randint(1, 96), 64)
        w = Fraction(s) / N
        target = 2 * LEVELSET_INTERVALS[n]
        b = _least_on_grid(a, B_MAX, lambda x: certified_roots(n, m, a, x, w)
                           >= target)
        roots = certified_roots(n, m, a, b, w)
        roots_total += roots
        ops.append(_convexity_op(n, m, a, b, s, N, w, roots))
    for m1 in range(3, 10):
        m2 = rng.randint(1, m1 - 1)
        s = rng.choice((0.5, 1.0, 2.0, 3.0))
        N = rng.choice((50, 100, 500, 1000))
        w = 4 * Fraction(s) / N
        target = 2 * LEVEL_INTERVALS[m1]
        A = _least_on_grid(Fraction(1), Fraction(2), lambda x: certified_roots(
            m1, m2, x, x + 1, w) >= target)
        roots = certified_roots(m1, m2, A, A + 1, w)
        roots_total += roots
        ops.append(_intervals_op(m1, m2, A, s, N, w, roots))

    def warmup():
        probe.convexity_measure((3, 1), (DyadicRational(65, 6),
                                         DyadicRational(80, 6)), 1.0, 100)
        probe.level_intervals(3, 1, DyadicRational(3, 1), 1.0, 100)

    return Workload("levelset", ops, warmup,
                    description={"certified_roots_per_pass": roots_total})


def _convexity_op(n, m, a, b, s, N, w, roots) -> Op:
    ad, bd = DyadicRational.from_fraction(a), DyadicRational.from_fraction(b)

    @cached
    def reference():
        _, lo, hi = reference_intervals(n, m, a, b, w)
        lengths = (hi - lo)[hi > lo]
        deriv = n * a ** (n - 1) - (m * a ** (m - 1) if m else 0)
        sf = Fraction(s)
        bound = float(4 * sf * (b - a) / N + 4 * sf / (N * deriv))
        return float(lengths.sum()), len(lengths), bound

    def check(canon):
        c = Checker()
        measure, count, bound = reference()
        c.equal("bound", canon["bound"], bound)
        c.close("measure", canon["measure"], measure,
                count * 2 * ROOT_TOL + 4 * count * U53 * measure)
        return c.result()

    return Op(f"convexity n={n} m={m} a={a} b={b} s={s} N={N}",
              lambda: probe.convexity_measure((n, m), (ad, bd), s, N),
              lambda raw: {"measure": raw[0], "bound": raw[1]},
              check, roots)


def _intervals_op(m1, m2, A: Fraction, s, N, w, roots) -> Op:
    Ad = DyadicRational.from_fraction(A)

    @cached
    def reference():
        return reference_intervals(m1, m2, A, A + 1, w)

    def check(canon):
        c = Checker()
        M, lo, hi = reference()
        c.equal("interval count", len(canon["M"]), len(M))
        if len(canon["M"]) == len(M):
            c.equal("interval M values", canon["M"], M.tolist())
            for key, want in (("lo", lo), ("hi", hi)):
                err = np.abs(canon[key] - want).max(initial=0.0)
                c.close(f"{key} endpoints", float(err), 0.0, ROOT_TOL)
        return c.result()

    def canon(raw):
        return {"M": [iv.M for iv in raw],
                "lo": np.array([iv.lo for iv in raw]),
                "hi": np.array([iv.hi for iv in raw])}

    return Op(f"intervals m1={m1} m2={m2} s={s} N={N}",
              lambda: probe.level_intervals(m1, m2, Ad, s, N),
              canon, check, roots)


# ---------------------------------------------------------------------------
# quadrature: oscillatory, window-piece and overlap integrals
# ---------------------------------------------------------------------------

#: vdc tuples per pass, by the number of integrator panels they need (cost
#: is about linear in panels).  Each slot takes the next tuple drawn the way
#: the oscillatory gate draws them that has that many panels, so every seed
#: gives the same cost profile; half the gate's tuples need one panel.
VDC_SLOTS = {1: 26, 2: 8, 3: 6, 4: 4, 5: 3, 6: 3, 8: 3, 10: 3, 12: 2, 16: 2}
#: finer settings for the references; each certified value must agree with
#: its refined recomputation within twice the certified rel_tol.  Window
#: pieces double their Gauss nodes; oscillatory integrals get more Levin
#: nodes (their direct panels already resolve every cycle with 8 nodes, and
#: larger Gauss rules would cost seconds to build).
REFINED = quad.QuadConfig(nodes_per_piece=24)
REFINED_OSC = quad.QuadConfig(levin_nodes=36)
#: vdc tuples whose phase turns at most this often are checked against an
#: independent oracle (about a third of them); the rest against REFINED_OSC
OSC_ORACLE_CYCLES = 4096
REL_TOL = quad.DEFAULT_QUAD.rel_tol


def _panel_count(n: int, a: float, b: float) -> int:
    """Panels of quad._power_panels: the phase speed at most doubles."""
    ratio = 2.0 ** (1.0 / max(n - 1, 1))
    panels, x = 1, a * ratio
    while x * ratio < b:
        panels += 1
        x *= ratio
    return panels


def _rel_close(c: Checker, what, got, want, floor=0.0) -> None:
    c.close(what, got, want, 2.0 * REL_TOL * (max(abs(got), abs(want)) + floor))


def _filtration_reference(A: Fraction, k: int, K: int) -> list:
    """Atoms by the defining walk z -> z + 2^-mu(z), with
    2^(2 mu) <= z^((2k+1)K) < 2^(2 mu + 2) decided on exact fractions."""
    M = (2 * k + 1) * K
    z, end, zs = A, A + 1, [A]
    while z < end:
        p = z ** M
        t = p.numerator.bit_length() - p.denominator.bit_length()
        if Fraction(2) ** t > p:
            t -= 1
        mu = t // 2
        z += Fraction(1, 1 << mu)
        zs.append(z)
    return zs


def build_quadrature(seed: int, workers: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    open_slots = dict(VDC_SLOTS)
    while open_slots:
        l = rng.randint(1, 8)
        n = rng.randint(2, 20)
        m = rng.randint(1, n - 1)
        ai = rng.randint(1, 120)
        gap = rng.randint(1, 127 - ai)
        panels = _panel_count(n, (64 + ai) / 64, (64 + ai + gap) / 64)
        if open_slots.get(panels):
            open_slots[panels] -= 1
            if not open_slots[panels]:
                del open_slots[panels]
            ops.append(_vdc_op(l, n, m, ai, gap))

    A32 = DyadicRational(3, 1)
    scheme = probe.blocks(1024)
    G = mollify.centered(mollify.make_outer(1.0, 1024))
    for k in (1, 2, 3):
        ops.append(_tower_op(A32, k, scheme, G))
    ops.append(_condexp_op(A32, scheme, G))
    F = mollify.make_outer(1.0, 100)
    for tup in ((8, 6, 2), (6, 3, 3)):
        ops.append(_overlap_op(tup, A32, F))
    for k in (1, 2, 3):
        A = Fraction(1024 + rng.randint(1, 1023), 1024)
        ops.append(_filtration_op(A, k))

    def warmup():
        probe.vdc_bound_check(DyadicRational(3, 1), DyadicRational(5, 1),
                              1, 2, 1)
        probe.tower_check(A32, 1, scheme, G)

    return Workload("quadrature", ops, warmup, description={
        "vdc_panels_per_pass": sum(k * v for k, v in VDC_SLOTS.items())})


def _oscillatory_oracle(l, n, m, a: Fraction, b: Fraction) -> float | None:
    """|integral of exp(2 pi i l (x^n - x^m))| over [a, b], independent of
    the package, when the phase turns at most OSC_ORACLE_CYCLES times.

    Equal panels of at most about four cycles each at the phase's fastest
    rate, l g'(b) (g' grows on [a, b]); the phase is reduced mod 1 exactly
    at every panel's left end p, and its increment over the panel is the
    binomial expansion of (p + t)^k - p^k in t, so no large power is ever
    rounded.  48 Gauss nodes per panel resolve it to ~1e-13.  (Sizing the
    panels by the mean rate left the fast end under-resolved: for l=2,
    n=16, m=15 on [17/16, 51/32] it missed by 2.8e-8 relative.)"""
    g = lambda x: x ** n - x ** m                     # noqa: E731
    cycles = l * (g(b) - g(a))
    if cycles > OSC_ORACLE_CYCLES:
        return None
    fastest = l * (n * b ** (n - 1) - m * b ** (m - 1)) * (b - a)
    panels = max(1, math.ceil(fastest / 4))
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total = 0.0 + 0.0j
    for j in range(panels):
        p = a + (b - a) * Fraction(j, panels)
        h = float((b - a) / panels)
        t = 0.5 * h * (nodes + 1.0)
        pf = float(p)
        inc = np.zeros_like(t)
        for k, sign in ((n, 1.0), (m, -1.0)):
            coef = [math.comb(k, i) * pf ** (k - i) for i in range(1, k + 1)]
            poly = np.zeros_like(t)
            for c in reversed(coef):          # Horner in t, then one more t
                poly = poly * t + c
            inc += sign * poly * t
        phase = float((l * g(p)) % 1) + l * inc
        total += 0.5 * h * complex(np.dot(weights, np.exp(2j * np.pi * phase)))
    return abs(total)


def _vdc_op(l, n, m, ai, gap) -> Op:
    a, b = DyadicRational(64 + ai, 6), DyadicRational(64 + ai + gap, 6)

    @cached
    def reference():
        af, bf = a.as_fraction(), b.as_fraction()
        bound = 1.0 / float(l * n * af ** (n - 1) * (1 - 1 / af))
        value = _oscillatory_oracle(l, n, m, af, bf)
        if value is None:
            value = probe.vdc_bound_check(a, b, l, n, m, REFINED_OSC)[0]
        return value, bound

    def check(canon):
        c = Checker()
        value, bound = reference()
        c.equal("bound", canon["bound"], bound)
        _rel_close(c, "value", canon["value"], value, 1e-13)
        if not canon["value"] <= canon["bound"]:
            c.problems.append("value exceeds its van der Corput bound")
        return c.result()

    return Op(f"vdc l={l} n={n} m={m} a={a} b={b}",
              lambda: probe.vdc_bound_check(a, b, l, n, m),
              lambda raw: {"value": raw[0], "bound": raw[1]}, check)


def _tower_op(A, k, scheme, G) -> Op:
    reference = cached(lambda: probe.tower_check(A, k, scheme, G, REFINED))

    def check(canon):
        c = Checker()
        weighted, direct, _ = reference()
        _rel_close(c, "weighted", canon["weighted"], weighted, 1e-15)
        _rel_close(c, "direct", canon["direct"], direct, 1e-15)
        # the tower identity itself, as `powcorr probe z` asserts it
        gap = abs(canon["weighted"] - canon["direct"]) / max(
            abs(canon["direct"]), 1e-12)
        c.equal("tower gap", canon["rel"], gap)
        if not gap <= 1e-6:
            c.problems.append(f"tower gap {gap:.3g} > 1e-6")
        return c.result()

    return Op(f"tower k={k}", lambda: probe.tower_check(A, k, scheme, G),
              lambda raw: dict(zip(("weighted", "direct", "rel"), raw)), check)


def _condexp_op(A, scheme, G) -> Op:
    reference = cached(lambda: probe.cond_exp_cross(A, 1, 3, scheme, G,
                                                    quad_cfg=REFINED))

    def check(canon):
        c = Checker()
        ref = reference()
        c.equal("atoms sampled", canon["atoms"], ref.params["atoms"])
        for i, (got, want) in enumerate(zip(canon["measured"], ref.measured)):
            _rel_close(c, f"E[Y_3 | atom {i}]", got, want, 1e-15)
        return c.result()

    return Op("condexp j=1 k=3",
              lambda: probe.cond_exp_cross(A, 1, 3, scheme, G),
              lambda raw: {"measured": list(raw.measured),
                           "atoms": list(raw.params["atoms"])}, check)


def _overlap_op(tup, A, F) -> Op:
    n, m1, m2 = tup

    @cached
    def reference():
        value = probe.pair_overlap_integral(n, m1, m2, A, F, REFINED)[0]
        N = F.N
        if m1 == m2:
            return value, probe.C_OVERLAP_EQUAL / N
        return value, probe.C_OVERLAP_CROSS * (
            1.0 / N ** 2
            + m1 * float(A) ** ((m1 - n) / 2.0) / (N * n * (n - m1)))

    def check(canon):
        c = Checker()
        value, bound = reference()
        c.equal("bound", canon["bound"], bound)
        _rel_close(c, "value", canon["value"], value, 1e-15)
        return c.result()

    return Op(f"overlap {tup}",
              lambda: probe.pair_overlap_integral(n, m1, m2, A, F),
              lambda raw: {"value": raw[0], "bound": raw[1]}, check)


def _filtration_op(A: Fraction, k: int) -> Op:
    Ad = DyadicRational.from_fraction(A)
    reference = cached(lambda: _filtration_reference(A, k, 2))

    def check(canon):
        c = Checker()
        zs = reference()
        c.equal("atoms", canon["atoms"], len(zs) - 1)
        c.equal("partition points", canon["z"], zs)
        return c.result()

    return Op(f"filtration A={A} k={k}",
              lambda: probe.filtration(Ad, k, 2),
              lambda raw: {"atoms": raw.N_k,
                           "z": [z.as_fraction() for z in raw.z]}, check)


#: each workload runs two op groups in one pass: the statistics users get
#: from the command line, and the proof probes called through the library
WORKLOADS = {"statistics": (build_sweep, build_control),
             "probes": (build_levelset, build_quadrature)}


def build(name: str, seed: int, workers: int) -> Workload:
    """The workload's ops; the sweep in it uses a pool of `workers`."""
    groups = [make(seed, workers) for make in WORKLOADS[name]]

    def warmup():
        for group in groups:
            group.warmup()

    ops = [op for group in groups for op in group.ops]
    pool_op = next((i for i, op in enumerate(ops) if op.label == "sweep"),
                   None)
    return Workload(name, ops, warmup, pool_op,
                    {group.name: group.description for group in groups})
