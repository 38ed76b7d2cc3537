"""Fourier analysis of the centered window: coefficients, truncation error.

The window is piecewise cubic, so its Fourier coefficients have a closed
form.  Writing phi = 2*pi*l*p and omega = 2*pi*l*delta,

    c_l = (2 * sin(phi + omega/2) / (pi * l)) * h(omega),
    h(omega) = (6 / omega^3) * (2*sin(omega/2) - omega*cos(omega/2)),

which is evaluated through a power series for small omega (the direct form
cancels catastrophically there) and directly otherwise.  All trigonometric
arguments are reduced exactly in rational arithmetic before any float trig
runs, so large l costs no accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .mollify import CenteredMollifier, centered, make_outer

__all__ = ["JacksonReport", "coefficients", "truncation_sup", "jackson_trend"]

_TWO_PI = 2.0 * math.pi

# h(omega) = 1/2 - w^2/80 + w^4/8960 - w^6/1935360 + w^8/681246720 - ...
_H_SERIES = (
    (0, Fraction(1, 2)),
    (2, Fraction(-1, 80)),
    (4, Fraction(1, 8960)),
    (6, Fraction(-1, 1935360)),
    (8, Fraction(1, 681246720)),
    (10, Fraction(-1, 354248294400)),
)
_H_SERIES_CUT = 0.8


def _h_factor(omega: float, sin_half: float, cos_half: float) -> float:
    if abs(omega) <= _H_SERIES_CUT:
        w2 = omega * omega
        acc = 0.0
        for power, coeff in reversed(_H_SERIES):
            acc = acc * w2 + float(coeff)
        return acc
    return 6.0 * (2.0 * sin_half - omega * cos_half) / omega ** 3


def coefficients(G: CenteredMollifier, L: int) -> np.ndarray:
    """Exact-phase closed-form c_0..c_L of the centered window.

    The window is even, so c_{-l} = c_l and every coefficient is real;
    c_0 is zero because the window is centered."""
    if L < 1:
        raise DomainError(f"cutoff must be >= 1, got {L}")
    F = G.base
    center = F.p + F.delta / 2          # phase center p + delta/2
    a, b = center.numerator, center.denominator
    c, d = F.delta.numerator, F.delta.denominator
    delta_f = float(F.delta)
    cs = np.zeros(L + 1)
    for l in range(1, L + 1):
        theta = _TWO_PI * ((l * a) % b) / b
        half_red = math.pi * ((l * c) % (2 * d)) / d
        omega = _TWO_PI * l * delta_f
        h = _h_factor(omega, math.sin(half_red), math.cos(half_red))
        cs[l] = 2.0 * math.sin(theta) / (math.pi * l) * h
    return cs


def truncation_sup(G: CenteredMollifier, L: int) -> float:
    """Sup of |G - partial Fourier sum up to L| over the uniform grid of
    max(8L, 4096) points; the partial sum is one inverse real FFT."""
    if L < 0:
        raise DomainError(f"cutoff must be >= 0, got {L}")
    grid_size = max(8 * L, 4096)
    ts = np.arange(grid_size, dtype=np.float64) / grid_size
    gv = G.eval_array(ts)
    spec = np.zeros(grid_size // 2 + 1, dtype=np.complex128)
    if L:
        spec[:L + 1] = coefficients(G, L) * grid_size
    pv = np.fft.irfft(spec, grid_size)
    return float(np.abs(gv - pv).max())


@dataclass(frozen=True)
class JacksonReport:
    n_list: tuple
    cutoffs: tuple
    sups: tuple
    envelopes: tuple
    slope: float
    passed: bool
    sups_non_decreasing: bool


def jackson_trend(s, n_list) -> JacksonReport:
    """Fit log(truncation sup) against log(N^2 log L / L) at the cutoffs
    L = N^3.

    The envelope is the derivative-bound-times-log(L)/L shape; the check
    passes when the fitted slope is at most 1.15: a cap on how fast the
    error falls against the envelope, not a test that it falls as fast.
    """
    ns = tuple(int(n) for n in n_list)
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError(
            f"need at least 3 strictly increasing N values, got {list(ns)}")
    sups, cutoffs, envelopes = [], [], []
    for n in ns:
        L = n ** 3
        G = centered(make_outer(s, n))
        sups.append(truncation_sup(G, L))
        cutoffs.append(L)
        envelopes.append(n * n * math.log(L) / L)
    usable = [(math.log(e), math.log(v))
              for e, v in zip(envelopes, sups) if v > 0.0]
    if len(usable) < 3:
        raise DomainError(
            f"only {len(usable)} usable points for the fit; need 3")
    xs = np.array([u[0] for u in usable])
    ys = np.array([u[1] for u in usable])
    xc = xs - xs.mean()
    slope = float(np.dot(xc, ys - ys.mean()) / np.dot(xc, xc))
    non_decreasing = all(b >= a for a, b in zip(sups, sups[1:]))
    return JacksonReport(
        n_list=ns, cutoffs=tuple(cutoffs), sups=tuple(sups),
        envelopes=tuple(envelopes), slope=slope, passed=slope <= 1.15,
        sups_non_decreasing=non_decreasing)
