"""Quadrature engines for the proof probes.

Three tools live here: cached Gauss-Legendre rules, one compound Gauss
evaluator (`gauss_panels`) and the doubling certification every
quadrature-backed probe uses; the one float root finder of x^n - x^m,
whose estimates the level-set probes certify; and a Levin collocation
integrator for exp(2*pi*i*l*(x^n - x^m)) whose cycle count makes
node-per-oscillation quadrature impossible.  Phases are only ever reduced modulo one at dyadic
panel endpoints, in integer arithmetic and once per endpoint per
certificate (`scaled_g`), so no precision is lost to the size of x^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import DyadicRational, as_dyadic
from .errors import DomainError, ResourceError, require

__all__ = [
    "QuadConfig", "gauss_rule", "gauss_panels", "certify", "monotone_root",
    "oscillatory_power_integral", "power_diff", "scaled_g",
]


#: Gauss nodes per phase cycle on a direct oscillatory panel
NODES_PER_OSC = 8.0
#: most phase cycles on a direct panel; busier panels take Levin collocation
DIRECT_OSC_LIMIT = 64.0


@dataclass(frozen=True)
class QuadConfig:
    """Tuning knobs shared by every quadrature-backed probe."""

    rel_tol: float = 1e-8
    nodes_per_piece: int = 12
    levin_nodes: int = 24

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise DomainError("the tolerance must be positive")
        if self.levin_nodes < 8:
            raise DomainError("node counts too small to integrate anything")


DEFAULT_QUAD = QuadConfig()


@lru_cache(maxsize=256)
def gauss_rule(nodes: int):
    """Cached Gauss-Legendre rule on [-1, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def gauss_panels(panels, nodes: int, f) -> list:
    """Gauss-Legendre integral of f over each (lo, hi) of `panels`: one
    call of f on the (panels x nodes) array of nodes, then one dot product
    of each panel's row with the weights."""
    if not panels:
        return []
    xs, ws = gauss_rule(nodes)
    half = [0.5 * (hi - lo) for lo, hi in panels]
    mid = np.array([[0.5 * (hi + lo)] for lo, hi in panels])
    vals = f(mid + np.multiply.outer(half, xs))
    return [h * np.dot(ws, row).item() for h, row in zip(half, vals)]


def certify(run, setting: int, rel_tol: float, floor: float, what: str,
            first: int = 0):
    """run(2 * setting), certified by its agreement with run(setting),
    element by element where the runs return arrays.

    Each element's gap |fine - coarse| must be at most rel_tol * (|fine| +
    floor), or NumericalError names the first that is not ("<what>,
    element <first + i>", or <what> for a scalar run), its gap and its
    tolerance.  The check detects truncation error only: both runs share
    their binary64 phases, so a rounding error in them cannot show in the
    gap.  On the last atom at A = 3/2, N = 1024, k = 8, binary64 and
    long-double phases move the window-piece term sum by 1.3e-8 relative,
    while its 12-, 24- and 48-node runs differ by only 1e-9 to 3e-9.
    """
    coarse = run(setting)
    fine = run(2 * setting)
    gap = abs(fine - coarse)
    tol = rel_tol * (abs(fine) + floor)
    bad = np.flatnonzero(np.logical_not(gap <= tol))      # NaN fails too
    if bad.size:
        i = bad[0]
        require(f"{what}, element {first + i}" if np.ndim(fine) else what,
                np.ravel(gap)[i].item(), np.ravel(tol)[i].item())
    return fine


def monotone_root(n: int, m: int, lo: float, hi: float,
                  targets: np.ndarray) -> np.ndarray:
    """Vectorized Newton estimates for x^n - x^m = target on [lo, hi], one
    per target, clipped to [lo, hi]: a target outside [g(lo), g(hi)] gives
    the nearer end.

    Seeds only; the level-set probes re-certify every value they keep.
    """
    grid = np.linspace(lo, hi, 4097)
    xs = np.interp(targets, grid ** n - grid ** m, grid)
    for _ in range(8):
        gx = xs ** n - xs ** m
        dgx = n * xs ** (n - 1) - m * xs ** (m - 1)
        xs = np.clip(xs - (gx - targets) / dgx, lo, hi)
    return xs


# ---------------------------------------------------------------------------
# Levin collocation for exp(2 pi i l (x^n - x^m))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cheb(n: int):
    """Chebyshev-Lobatto points (descending) and differentiation matrix."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    x.setflags(write=False)
    return D, x


def power_diff(x, p: float, n: int):
    """x^n - p^n evaluated without cancellation for x near p (x, p > 0)."""
    return p ** n * np.expm1(n * np.log1p((np.asarray(x, dtype=float) - p) / p))


def scaled_g(c: int, e: int, n: int, m: int) -> int:
    """2^(e n) * g(c / 2^e) for g(x) = x^n - x^m, exactly: the one exact
    phase primitive of the oscillatory integrals and the level-set probes."""
    return c ** n - (c ** m << (e * (n - m)))


def _panel_direct(l, n, m, p: float, q: float, anchor: float,
                  osc: float, refine: int) -> complex:
    nodes = int(math.ceil(NODES_PER_OSC * max(osc, 1.0))) + 16
    return gauss_panels(
        [(p, q)], min(nodes * refine, 8000),
        lambda pts: np.exp(2j * np.pi * (anchor + l * (
            power_diff(pts, p, n) - power_diff(pts, p, m)))))[0]


def _panel_levin(l, n, m, p: float, q: float, anchor_p: float,
                 anchor_q: float, nodes: int) -> complex:
    D, t = _cheb(nodes - 1)
    half = 0.5 * (q - p)
    mid = 0.5 * (q + p)
    xs = mid + half * t          # xs[0] = q, xs[-1] = p
    dphi = l * (n * xs ** (n - 1) - m * xs ** (m - 1))
    M = D / half + 2j * np.pi * np.diag(dphi)
    try:
        u = np.linalg.solve(M, np.ones(nodes, dtype=complex))
    except np.linalg.LinAlgError:
        u, *_ = np.linalg.lstsq(M, np.ones(nodes, dtype=complex), rcond=None)
    return (u[0] * np.exp(2j * np.pi * anchor_q)
            - u[-1] * np.exp(2j * np.pi * anchor_p))


def _snap_between(x: float, lo: DyadicRational,
                  hi: DyadicRational) -> DyadicRational:
    cand = DyadicRational(int(round(x * (1 << 40))), 40)
    if not lo < cand < hi:
        cand = lo + DyadicRational(1, 1) * (hi - lo)  # midpoint fallback
    return cand


def _power_panels(n: int, a: DyadicRational, b: DyadicRational) -> list:
    """Panel edges with at most a doubling of the phase speed per panel."""
    ratio = 2.0 ** (1.0 / max(n - 1, 1))
    edges = [a]
    x = float(a) * ratio
    while x * ratio < float(b):
        edges.append(_snap_between(x, edges[-1], b))
        x *= ratio
    edges.append(b)
    return edges


def oscillatory_power_integral(l: int, n: int, m: int, a, b,
                               cfg: QuadConfig = DEFAULT_QUAD) -> complex:
    """integral over [a, b] of exp(2*pi*i*l*(x^n - x^m)) dx.

    The panel edges, each panel's cycle count and its phase anchors are
    found once and shared by both runs of the doubling check: l*g is
    evaluated exactly at every edge (`scaled_g`, at the edges' common
    exponent), and the cycle count and the fractional parts of l*g at the
    panel's ends are correctly rounded quotients of those integers, equal
    to the exact rationals' binary64 roundings.  Low-cycle panels use
    direct Gauss-Legendre with the phase anchored at the panel's left edge;
    high-cycle panels use Levin collocation, whose cost is independent of
    the cycle count.  The whole integral is recomputed at a finer setting
    and must agree to rel_tol.
    """
    a, b = as_dyadic(a), as_dyadic(b)
    if not (DyadicRational(1, 0) < a < b):
        raise DomainError(f"need 1 < a < b, got a={a}, b={b}")
    if not (isinstance(l, int) and isinstance(n, int) and isinstance(m, int)):
        raise DomainError("l, n, m must be integers")
    if not (n > m >= 1 and l >= 1):
        raise DomainError(f"need n > m >= 1 and l >= 1, got l={l}, n={n}, m={m}")
    # cycle counts, powers p^n and phase speeds 2 pi l g' stay below 2^1023
    if math.log2(l * n) + n * (math.log2(b.numerator) - b.exponent) >= 1020:
        raise ResourceError(f"l n b^n at l={l}, n={n}, b={b} reaches 2^1020,"
                            " beyond binary64 oscillatory quadrature")
    edges = _power_panels(n, a, b)
    e = max(x.exponent for x in edges)
    one = 1 << (e * n)                  # l * g(edge) = its integer / one
    ends = [(float(x), l * scaled_g(x.numerator << (e - x.exponent), e, n, m))
            for x in edges]
    panels = [(p, q, (gp % one) / one, (gq % one) / one, (gq - gp) / one)
              for (p, gp), (q, gq) in zip(ends, ends[1:])]

    def run(refine: int) -> complex:
        total = 0.0 + 0.0j
        for p, q, anchor_p, anchor_q, osc in panels:
            if osc <= DIRECT_OSC_LIMIT:
                total += _panel_direct(l, n, m, p, q, anchor_p, osc, refine)
            else:
                total += _panel_levin(l, n, m, p, q, anchor_p, anchor_q,
                                      cfg.levin_nodes + 12 * (refine - 1))
        return total

    return certify(run, 1, cfg.rel_tol, 1e-13, "oscillatory quadrature")
