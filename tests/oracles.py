"""The quadratic reference pair counter of the tests and release gates.

The pair counter of `powcorr.corr` and this oracle are kept
predicate-identical: both decide membership through the same float
subtractions (forward gap y_j - y_i, wrapped gap (y_j + 1.0) - y_i)
compared against the same window w = s/N, so their counts agree exactly,
ties included.
"""

import numpy as np

from powcorr import ResourceError
from powcorr.corr import window_width
from powcorr.hpgen import UnitSample

#: largest N the quadratic oracle will accept
ORACLE_CAP = 4000


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
