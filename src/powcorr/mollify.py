"""Plateau-and-ramp window functions sandwiching the indicator of [-s/N, s/N].

Two flavors share one shape: value 1 on a plateau [-p, p], a cubic
smoothstep ramp of width delta down to 0, zero elsewhere, evenly reflected
and 1-periodic.  The outer flavor puts the plateau edge at s/N (so it
dominates the indicator), the inner one ends its ramp at s/N (so the
indicator dominates it).  All widths are kept as exact fractions, which
makes integrals closed-form identities rather than quadrature results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "Mollifier", "CenteredMollifier", "HypothesisCheck", "HypothesisReport",
    "make_outer", "make_inner", "centered", "verify_hypotheses",
    "window_fraction",
]

#: points per block of `Mollifier.eval_array`
EVAL_BLOCK = 1 << 16


def window_fraction(s) -> Fraction:
    """Exact window parameter; floats convert by their exact binary value."""
    v = Fraction(s)
    if v <= 0:
        raise DomainError(f"window parameter s must be positive, got {s}")
    return v


@dataclass(frozen=True)
class Mollifier:
    """Even, 1-periodic plateau/ramp window.

    p is the plateau half-width, delta the ramp width; the support is
    contained in the integers plus [-(p + delta), p + delta].  The plateau
    value is 1.
    """

    s: Fraction
    N: int
    delta: Fraction
    flavor: str
    p: Fraction

    def __post_init__(self) -> None:
        if self.flavor not in ("inner", "outer"):
            raise DomainError(f"unknown flavor {self.flavor!r}")
        if self.delta <= 0:
            raise DomainError("ramp width must be positive")
        if self.p < 0:
            raise DomainError("plateau half-width must be non-negative")
        if self.p + self.delta > Fraction(1, 2):
            # beyond 1/2 the periodized ramps fold onto each other and the
            # closed-form moments stop being the true period integrals
            raise DomainError(
                f"support edge p + delta = {self.p + self.delta} exceeds 1/2")

    # exact quantities ---------------------------------------------------

    @property
    def edge(self) -> Fraction:
        """Half-width of the support around each integer."""
        return self.p + self.delta

    @property
    def integral(self) -> Fraction:
        """Exact integral over one period: 2p + delta."""
        return 2 * self.p + self.delta

    @property
    def deriv_sup(self) -> Fraction:
        """Exact sup of |derivative|: (3/2) / delta at ramp midpoints."""
        return Fraction(3, 2) / self.delta

    # float mirrors used by the evaluators -------------------------------

    @cached_property
    def p_f(self) -> float:
        return float(self.p)

    @cached_property
    def edge_f(self) -> float:
        return float(self.edge)

    @cached_property
    def delta_f(self) -> float:
        return float(self.delta)

    # evaluation ----------------------------------------------------------

    def eval(self, t: float) -> float:
        """Value at t; reduction uses IEEE remainder, which is exact.

        A scalar reference for `eval_array`, which every statistic and the
        hypothesis verifier use; kept as an independent oracle for tests."""
        u = abs(math.remainder(t, 1.0))
        if u <= self.p_f:
            return 1.0
        if u >= self.edge_f:
            return 0.0
        v = (u - self.p_f) / self.delta_f
        v = 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)
        return 1.0 - v * v * (3.0 - 2.0 * v)

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        """Values at every t of an array (a 0-d array for a scalar t).

        Written block by block into one output array, so the temporaries
        stay EVAL_BLOCK long whatever the input size."""
        ts = np.asarray(ts, dtype=np.float64)
        out = np.empty(ts.shape)
        flat, flat_out = ts.reshape(-1), out.reshape(-1)
        for lo in range(0, flat.size, EVAL_BLOCK):
            self._eval_block(flat[lo:lo + EVAL_BLOCK],
                             flat_out[lo:lo + EVAL_BLOCK])
        return out

    def _eval_block(self, t: np.ndarray, out: np.ndarray) -> None:
        # in-place ufuncs in the order of the scalar formula:
        # u = |t - round(t)|, v = clip((u - p) / delta, 0, 1),
        # 1 - v^2 (3 - 2 v), then the plateau and the zero tail
        u = np.round(t)
        np.subtract(t, u, out=u)
        np.abs(u, out=u)
        v = u - self.p_f
        v /= self.delta_f
        np.maximum(v, 0.0, out=v)
        np.minimum(v, 1.0, out=v)
        np.multiply(v, v, out=out)
        v *= 2.0
        np.subtract(3.0, v, out=v)
        out *= v
        np.subtract(1.0, out, out=out)
        out[u <= self.p_f] = 1.0
        out[u >= self.edge_f] = 0.0


@dataclass(frozen=True)
class CenteredMollifier:
    """base minus its exact mean; integrates to zero by construction."""

    base: Mollifier
    mean: Fraction

    @cached_property
    def mean_f(self) -> float:
        return float(self.mean)

    def eval(self, t: float) -> float:
        """Scalar reference for `eval_array`, kept as a test oracle."""
        return self.base.eval(t) - self.mean_f

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        return self.base.eval_array(ts) - self.mean_f


def centered(F: Mollifier) -> CenteredMollifier:
    return CenteredMollifier(base=F, mean=F.integral)


def _resolve_delta(N: int, delta) -> Fraction:
    """The ramp width: delta, or 1/N^2 when it is None."""
    if N < 1:
        raise DomainError(f"N must be positive, got {N}")
    return Fraction(1, N * N) if delta is None else Fraction(delta)


def make_outer(s, N: int, delta=None) -> Mollifier:
    """Window dominating the indicator: plateau out to s/N, ramp beyond."""
    s, d = window_fraction(s), _resolve_delta(N, delta)
    if d > s / N:
        raise DomainError(f"ramp width {d} exceeds the plateau half-width "
                          f"s/N = {float(s / N)}")
    return Mollifier(s=s, N=N, delta=d, flavor="outer", p=s / N)


def make_inner(s, N: int, delta=None) -> Mollifier:
    """Window dominated by the indicator: ramp ends exactly at s/N."""
    s, d = window_fraction(s), _resolve_delta(N, delta)
    if d >= s / N:
        raise DomainError(f"ramp width {d} leaves no inner plateau for "
                          f"s/N = {float(s / N)}")
    return Mollifier(s=s, N=N, delta=d, flavor="inner", p=s / N - d)


# ---- hypothesis verifier -------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    index: int
    name: str
    passed: bool
    witness: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _probe_points(F: Mollifier, seed: int) -> np.ndarray:
    """4096 random grid points plus ramp-focused points, all on a coarse
    dyadic lattice.

    The lattice (multiples of 2^-45) keeps t+1 and -t exact in binary64, so
    the periodicity and evenness checks can demand bit equality.
    """
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 1 << 45, size=4096).astype(np.float64) / (1 << 45)
    ramp = np.linspace(float(F.p), float(F.edge), 257)
    near = np.concatenate([ramp, -ramp, 1.0 + ramp])
    snapped = np.round(near * (1 << 45)) / (1 << 45)
    return np.concatenate([grid, snapped])


def _deriv_abs(F: Mollifier, ts: np.ndarray) -> np.ndarray:
    """|F'| at every t: 6 v (1 - v) / delta on the ramps, 0 elsewhere.

    The operations and their order are those of the scalar slope
    -6 v (1 - v) / delta, so every value is that double's magnitude."""
    u = np.abs(ts - np.round(ts))
    v = np.clip((u - F.p_f) / F.delta_f, 0.0, 1.0)
    slope = 6.0 * v * (1.0 - v) / F.delta_f
    return np.where((u <= F.p_f) | (u >= F.edge_f), 0.0, slope)


def _first(ts: np.ndarray, bad: np.ndarray) -> float | None:
    """The first t flagged in `bad`, or None."""
    idx = np.flatnonzero(bad)
    return float(ts[idx[0]]) if len(idx) else None


def verify_hypotheses(F: Mollifier, seed: int = 2026) -> HypothesisReport:
    """Check the six window hypotheses on `eval_array`, the evaluator every
    statistic uses; failures carry a witness point."""
    s, N = F.s, F.N
    ts = _probe_points(F, seed)
    vals = F.eval_array(ts)
    checks = []

    bad = _first(ts, (vals != F.eval_array(ts + 1.0))
                 | (vals != F.eval_array(ts - 1.0)))
    checks.append(HypothesisCheck(
        1, "periodicity F(t+1) = F(t)", bad is None, bad,
        "bit-exact on a dyadic lattice"))

    bad = _first(ts, vals != F.eval_array(-ts))
    checks.append(HypothesisCheck(
        2, "evenness F(-t) = F(t)", bad is None, bad,
        "bit-exact on a dyadic lattice"))

    target = 2 * s / N
    ok3 = abs(F.integral - target) <= Fraction(1, N * N)
    checks.append(HypothesisCheck(
        3, "integral = 2s/N + O(1/N^2)", ok3, None,
        f"exact integral {F.integral}, target 2s/N = {target}"))

    witness = _first(ts, (vals < 0.0) | (vals > 1.0))
    checks.append(HypothesisCheck(
        4, "0 <= F <= 1", witness is None, witness,
        f"max value {vals.max()}, min value {vals.min()}"))

    bound = 1.5 / float(F.delta)
    mid = float(F.p) + 0.5 * float(F.delta)
    sup = float(_deriv_abs(F, np.append(ts, mid)).max())
    ok5 = sup <= bound * (1.0 + 1e-12)
    checks.append(HypothesisCheck(
        5, "sup |F'| <= (3/2)/delta", ok5, None if ok5 else mid,
        f"measured sup {sup}, bound {bound}"))

    support_cap = F.edge <= 2 * s / N
    u = np.abs(ts - np.round(ts))
    outside = ts[u > F.edge_f]
    nonzero = outside[F.eval_array(outside) != 0.0]
    ok6 = support_cap and len(nonzero) == 0
    checks.append(HypothesisCheck(
        6, "support within [-2s/N, 2s/N] + Z", ok6,
        float(nonzero[0]) if len(nonzero) else None,
        f"support half-width {F.edge}, cap {2 * s / N}"))

    return HypothesisReport(checks=tuple(checks))
