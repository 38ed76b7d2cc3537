"""Spans around calls into powcorr's layers, recorded from outside the package.

For each traced pass, the traced run replaces public functions of each
layer module with thin wrappers that record one span per call: name, start,
end and the index of the enclosing span; after the pass it puts the
originals back.  Names that an importer module rebinds at import time
(``probe`` imports ``ladder_frac_powers``, ``forward_window_pairs``,
``monotone_root`` and ``oscillatory_power_integral`` by name) are patched in
the importer too, with the same wrapper, so every call path is seen.  Spans
are kept in flat arrays in memory and written out once, at the end.

Work counts that the layers do not report themselves are taken at the same
boundaries, after the span has ended, from the call's arguments and result.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from powcorr import cli, corr, hpgen, mollify, probe, quad

#: (module, attribute, span name); a later entry whose original function is
#: already wrapped reuses that wrapper, which covers importer rebinds
PATCHES = (
    (hpgen, "ladder_frac_powers", "hpgen.ladder_frac_powers"),
    (probe, "ladder_frac_powers", "hpgen.ladder_frac_powers"),
    (corr, "forward_window_pairs", "corr.forward_window_pairs"),
    (probe, "forward_window_pairs", "corr.forward_window_pairs"),
    (corr, "pair_corr", "corr.pair_corr"),
    (corr, "pair_corr_smoothed", "corr.pair_corr_smoothed"),
    (corr, "triple_corr", "corr.triple_corr"),
    (corr, "level_spacings", "corr.level_spacings"),
    (corr, "spacings_sup_exponential", "corr.spacings_sup_exponential"),
    (corr, "star_discrepancy", "corr.star_discrepancy"),
    (corr, "uniform_control", "corr.uniform_control"),
    (mollify.Mollifier, "eval_array", "mollify.eval_array"),
    (quad, "monotone_root", "quad.monotone_root"),
    (probe, "monotone_root", "quad.monotone_root"),
    (quad, "oscillatory_power_integral", "quad.oscillatory_power_integral"),
    (probe, "oscillatory_power_integral", "quad.oscillatory_power_integral"),
    (probe, "filtration", "probe.filtration"),
    (probe, "tower_check", "probe.tower_check"),
    (probe, "cond_exp_cross", "probe.cond_exp_cross"),
    (probe, "vdc_bound_check", "probe.vdc_bound_check"),
    (probe, "pair_overlap_integral", "probe.pair_overlap_integral"),
    (probe, "convexity_measure", "probe.convexity_measure"),
    (probe, "level_intervals", "probe.level_intervals"),
    (cli, "main", "cli.main"),
    (cli, "_sweep_sample", "cli._sweep_sample"),
)


class Tracer:
    """In-memory span store plus the per-pass work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper
        self._saved: list[tuple] = []            # (owner, attr, original)
        self.reset_counts()

    def reset_counts(self) -> None:
        self.candidate_pairs = 0
        self.eval_points = 0
        self.atoms = 0
        self.ladders: list[tuple] = []      # (x, N, g) per ladder call
        self.point_sets: dict[int, object] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._intern(name)
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # work counters, taken after the span has ended ------------------------

    def _after_window(self, args, kwargs, result) -> None:
        self.candidate_pairs += len(result.gaps)
        points = args[0] if args else kwargs["points"]
        self.point_sets[id(points)] = points   # strong ref: ids stay unique

    def _after_eval(self, args, kwargs, result) -> None:
        self.eval_points += int(np.size(result))

    def _after_filtration(self, args, kwargs, result) -> None:
        self.atoms += result.N_k

    def _after_ladder(self, args, kwargs, result) -> None:
        self.ladders.append((result.base, result.n_max, result.guard_bits))

    def install(self) -> None:
        """Patch every entry of PATCHES; uninstall() puts the originals
        back.  Wrappers are made once, so repeated installs share them."""
        hooks = {
            "corr.forward_window_pairs": self._after_window,
            "mollify.eval_array": self._after_eval,
            "probe.filtration": self._after_filtration,
            "hpgen.ladder_frac_powers": self._after_ladder,
        }
        self._saved = [(owner, attr, getattr(owner, attr))
                       for owner, attr, _ in PATCHES]
        for (owner, attr, name), (_, _, original) in zip(PATCHES, self._saved):
            base = getattr(original, "__wrapped__", original)
            if id(base) not in self._wrappers:
                self._wrappers[id(base)] = self.wrap(name, base,
                                                     hooks.get(name))
            setattr(owner, attr, self._wrappers[id(base)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # derived quantities -----------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def totals(self, first: int, last: int) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, calls) per span name over the
        spans with index in [first, last)."""
        names = np.array(self.name_id[first:last], dtype=np.int64)
        parents = np.array(self.parent[first:last], dtype=np.int64)
        dur = (np.array(self.end[first:last], dtype=np.float64)
               - np.array(self.start[first:last], dtype=np.float64))
        has_parent = parents >= first
        child_time = np.bincount(parents[has_parent] - first,
                                 weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        calls = np.bincount(names, minlength=k)
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(excl[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))
