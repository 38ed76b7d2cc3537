"""Command-line front end.

Every subcommand resolves one flat ExperimentConfig (defaults, then an
optional key=value config file, then flags), runs, and emits a JSON
report with the resolved configuration embedded, so a report is always
reproducible from its own header.  Plot-oriented tables are mirrored as
CSV next to the JSON when --out is given.  Human-readable PASS/FAIL
lines go to stderr; stdout stays machine-readable.

Exit codes: 0 all asserted checks passed, 1 a check failed, 2 usage,
3 domain error, 4 failed numerical certification, 5 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from .config import (ExperimentConfig, UsageError, parse_rational,
                     parse_config_file, resolve_config)
from .dyadic import DyadicRational
from .errors import DomainError, NumericalError, ResourceError
from . import corr, fourier, hpgen, mollify, probe

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4
EXIT_RESOURCE = 5

PROBE_MODES = ("partition", "y", "z", "condexp", "moment", "vdc",
               "count", "overlap")
# probe modes that slice n = 1..N into K-sized blocks and therefore
# require N to be a 10th power
_BLOCK_MODES = ("partition", "y", "z", "condexp", "moment")


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _delta_arg(cfg: ExperimentConfig):
    return None if cfg.delta is None else parse_rational(cfg.delta).as_fraction()


def _window(cfg: ExperimentConfig, s: float, N: int) -> mollify.Mollifier:
    maker = mollify.make_inner if cfg.flavor == "inner" else mollify.make_outer
    return maker(s, N, _delta_arg(cfg))


def _plan_size(cfg: ExperimentConfig) -> int:
    """Samples the plan asks for: a pinned x and the {n alpha} control admit
    one."""
    pinned = cfg.control == "none" and cfg.x is not None
    return 1 if pinned or cfg.control == "nalpha" else cfg.samples


def _bases(cfg: ExperimentConfig):
    """The sample plan, drawn as read: each sample's ladder base, or None for
    a control sample.  It stops before the first base whose ladder would
    bring the summed `hpgen.ladder_work` at the largest N past --work-cap,
    and raises ResourceError when that base is the first."""
    if cfg.control != "none":
        yield from [None] * _plan_size(cfg)
        return
    A, top_n, spent = parse_rational(cfg.A), max(cfg.n_values), 0
    for idx in range(_plan_size(cfg)):
        x = (parse_rational(cfg.x) if cfg.x is not None
             else hpgen.sample_x(A, cfg.mantissa_bits, cfg.seed + idx))
        spent += hpgen.ladder_work(x, top_n, cfg.guard_bits)
        if spent > cfg.work_cap:
            if not idx:
                raise ResourceError(
                    f"work cap {cfg.work_cap} cannot fund even one sample "
                    f"(about {spent:.3g} units each)")
            return
        yield x


def _resolved(cfg: ExperimentConfig, bases) -> list:
    """bases, once their ladders pass the (s/N)/100 gate at the largest N
    and the smallest s, the tightest of the grid, before any of them runs."""
    bases = list(bases)
    if bases[0] is not None:
        hpgen.ensure_ladders_resolve(bases, max(cfg.n_values),
                                     cfg.guard_bits, cfg.s_grid[0])
    return bases


def _sample_for(cfg, idx: int, x, N: int) -> hpgen.UnitSample:
    """Sample idx of the plan, of base x, at N points."""
    if cfg.control == "uniform":
        return corr.uniform_control(N, cfg.seed + idx)
    if cfg.control == "nalpha":
        return corr.control_nalpha(corr.golden_ratio_dyadic(), N)
    return hpgen.ladder_frac_powers(x, parse_rational(cfg.xi), N,
                                    cfg.guard_bits)


def _pair_ratio(sample: hpgen.UnitSample, s: float, tol: float,
                counts: corr.PairCounts) -> dict:
    r2 = corr.pair_corr(sample, s, counts)
    ratio = r2 / (2.0 * s)
    return {"r2": r2, "ratio": ratio, "within_tol": abs(ratio - 1.0) <= tol}


def _grid_counts(cfg, sample, threads: int, runs: bool = False,
                 windows=()) -> corr.PairCounts:
    """One counting pass over the sample at every s/N of the grid, which
    also collects the band of each window; every s is checked before the
    windows are read."""
    return corr.count_pairs(
        sample.points, [corr.window_width(sample, s) for s in cfg.s_grid],
        runs, windows, threads)


def _paircorr_rows(cfg, idx, N, sample, threads) -> list:
    delta = _delta_arg(cfg)
    makers = {"r2_inner": mollify.make_inner, "r2_outer": mollify.make_outer}
    smoothed = {s: {} for s in cfg.s_grid if cfg.smoothed}
    # a generator: the pass builds the windows once every s is checked
    counts = _grid_counts(cfg, sample, threads, windows=(
        smoothed[s].setdefault(key, make(s, N, delta))
        for s in smoothed for key, make in makers.items()))
    return [{"sample": idx, "control": cfg.control, "N": N, "s": s,
             **_pair_ratio(sample, s, cfg.tol, counts),
             **{key: corr.pair_corr_smoothed(sample, F, counts)
                for key, F in smoothed.get(s, {}).items()}}
            for s in cfg.s_grid]


def _sweep_rows(cfg, idx, N, sample, threads) -> list:
    counts = _grid_counts(cfg, sample, threads)
    return [{"sample": idx, "x": str(sample.base), "N": N, "s": s,
             **_pair_ratio(sample, s, cfg.tol, counts)}
            for s in cfg.s_grid]


def _spacings_rows(cfg, idx, N, sample, threads) -> list:
    ecdf = corr.level_spacings(sample)
    row = {"sample": idx, "N": N,
           "sup_exponential": corr.spacings_sup_exponential(ecdf),
           "star_discrepancy": corr.star_discrepancy(sample)}
    if idx == 0 and N == max(cfg.n_values):
        # the ECDF table rides along on its row; cmd_spacings detaches it
        t = ecdf[:, 0]
        row["ecdf"] = _Columns(("t", "ecdf", "model"), (
            t, ecdf[:, 1], [1.0 - math.exp(-v) for v in t.tolist()]))
    return [row]


def _triple_rows(cfg, idx, N, sample, threads) -> list:
    counts = _grid_counts(cfg, sample, threads, runs=True)
    return [{"sample": idx, "N": N, "s1": s, "s2": s,
             "r3": corr.triple_corr(sample, s, s, counts),
             "poisson_value": 4.0 * s * s} for s in cfg.s_grid]


def _y_rows(cfg, idx, N, sample, threads) -> list:
    G = mollify.centered(_window(cfg, cfg.s_grid[0], N))
    return [{"sample": idx, "x": str(sample.base), "k": cfg.k,
             "y": probe.block_sum_Y(sample, cfg.k, probe.blocks(N), G)}]


def _sweep_sample(job: tuple) -> list:
    """Worker: one sample's rows over every N, each distinct N evaluated
    once, in n_values order, on the prefix (`UnitSample.prefix`) of one
    point set built at the largest N, whose err_bound holds for every
    prefix.  Named for its first user, sweep; tools that time jobs wrap
    this name."""
    rows_at, cfg, idx, x, threads = job
    full = _sample_for(cfg, idx, x, max(cfg.n_values))
    rows = {N: rows_at(cfg, idx, N, full.prefix(N), threads)
            for N in dict.fromkeys(cfg.n_values)}
    return [row for N in cfg.n_values for row in rows[N]]


def _run_samples(cfg: ExperimentConfig, rows_at, bases) -> tuple:
    """rows_at(cfg, idx, N, sample, threads) over the samples of the plan
    `bases` (`_bases`) and every N, in that order: one `hpgen.run_jobs` job
    per sample, which builds one point set, at the largest N, on --workers.
    A job counts pairs on `threads` threads (`hpgen.job_threads`): all the
    allowed CPUs for one job in this process, one for pooled jobs.
    Returns the rows and EXIT_RESOURCE, after one FAIL line, when the work
    cap cut the plan short, else EXIT_OK."""
    bases = list(bases)
    threads = hpgen.job_threads(cfg.workers, len(bases))
    # looked up by name at each call, so a wrapper set on the module
    # attribute sees every in-process job
    jobs = [(rows_at, cfg, idx, x, threads) for idx, x in enumerate(bases)]
    outcomes = hpgen.run_jobs(_sweep_sample, jobs, cfg.workers)
    rows = [row for rows in outcomes for row in rows]
    if len(bases) < _plan_size(cfg):
        _say(f"FAIL plan stopped at the work cap after {len(bases)} of "
             f"{_plan_size(cfg)} samples; report is partial")
        return rows, EXIT_RESOURCE
    return rows, EXIT_OK


def _fractions_within(cfg: ExperimentConfig, rows: list):
    """(N, s, share of rows within tolerance, row count) per grid point."""
    for N in cfg.n_values:
        for s in cfg.s_grid:
            sel = [r["within_tol"] for r in rows
                   if r["N"] == N and r["s"] == s]
            yield N, s, sum(sel) / len(sel), len(sel)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg: ExperimentConfig):
    if cfg.out is None:
        raise UsageError("gen requires --out (path for the sample file)")
    N = cfg.n_values[0]
    x = next(_bases(dataclasses.replace(cfg, n_values=(N,))))
    sample = _sample_for(cfg, 0, x, N)
    try:
        hpgen.save_sample(sample, cfg.out)
    except OSError as exc:
        raise UsageError(f"cannot write the sample file: {exc}") from None
    results = {"path": cfg.out, "x": str(sample.base), "xi": str(sample.xi),
               "N": sample.n_max, "guard_bits": sample.guard_bits,
               "err_bound": sample.err_bound}
    _say(f"PASS gen wrote N={N} points to {cfg.out} "
         f"(err_bound={sample.err_bound:.3g})")
    return results, None, EXIT_OK


def cmd_paircorr(cfg: ExperimentConfig):
    bases = _resolved(cfg, _bases(cfg))
    rows, code = _run_samples(cfg, _paircorr_rows, bases)
    summary = [{"N": N, "s": s, "fraction_within": frac}
               for N, s, frac, _ in _fractions_within(cfg, rows)]
    results = {"rows": rows, "summary": summary}
    if cfg.control == "nalpha":
        # the asserted check: this control must NOT look Poissonian; its
        # plan is one sample, so the cap refuses it or runs it whole
        flagged = all(not r["within_tol"] for r in rows)
        results["non_poissonian"] = flagged
        _say(("PASS" if flagged else "FAIL")
             + " nalpha control deviates from the Poisson value 2s")
        code = EXIT_OK if flagged else EXIT_CHECK_FAILED
    else:
        for item in summary:
            _say(f"INFO paircorr N={item['N']} s={item['s']}: "
                 f"{item['fraction_within']:.0%} of {len(bases)} samples "
                 f"within {cfg.tol:.0%} of 2s")
    return results, rows, code


def cmd_spacings(cfg: ExperimentConfig):
    rows, code = _run_samples(cfg, _spacings_rows, _bases(cfg))
    table = [r.pop("ecdf") for r in rows if "ecdf" in r][-1]
    return {"rows": rows, "ecdf": table}, table, code


def cmd_triple(cfg: ExperimentConfig):
    rows, code = _run_samples(cfg, _triple_rows, _resolved(cfg, _bases(cfg)))
    return {"rows": rows}, rows, code


def cmd_mollifier_check(cfg: ExperimentConfig):
    rows = []
    all_ok = True
    for N in cfg.n_values:
        for s in cfg.s_grid:
            for flavor, maker in (("inner", mollify.make_inner),
                                  ("outer", mollify.make_outer)):
                F = maker(s, N, _delta_arg(cfg))
                report = mollify.verify_hypotheses(F, seed=cfg.seed)
                for chk in report.checks:
                    rows.append({"N": N, "s": s, "flavor": flavor,
                                 "index": chk.index, "name": chk.name,
                                 "passed": chk.passed,
                                 "witness": chk.witness})
                ok = report.all_pass
                all_ok &= ok
                _say(f"{'PASS' if ok else 'FAIL'} window hypotheses "
                     f"flavor={flavor} s={s} N={N} "
                     f"({sum(c.passed for c in report.checks)}/"
                     f"{len(report.checks)})")
    return ({"rows": rows, "all_pass": all_ok}, rows,
            EXIT_OK if all_ok else EXIT_CHECK_FAILED)


def cmd_fourier_check(cfg: ExperimentConfig):
    s0 = cfg.s_grid[0]
    N0 = max(cfg.n_values)
    G = mollify.centered(_window(cfg, s0, N0))
    ladder = [{"L": L, "sup": fourier.truncation_sup(G, L)}
              for L in (16, 32, 64, 128, 256, 512, 1024)]
    monotone = all(b["sup"] <= a["sup"] + 1e-15
                   for a, b in zip(ladder, ladder[1:]))
    results = {"ladder": ladder, "sup_non_increasing": monotone}
    _say(f"{'PASS' if monotone else 'FAIL'} truncation sup non-increasing "
         f"over the doubling cutoff ladder at N={N0}")
    ok = monotone
    if len(cfg.n_values) >= 3:
        rep = fourier.jackson_trend(s0, cfg.n_values)
        results["jackson"] = dataclasses.asdict(rep)
        _say(f"{'PASS' if rep.passed else 'FAIL'} cutoff-trend slope "
             f"{rep.slope:.3f} (need <= 1.15)")
        ok = ok and rep.passed
    return results, ladder, (EXIT_OK if ok else EXIT_CHECK_FAILED)


def cmd_probe(cfg: ExperimentConfig, mode: str):
    A = parse_rational(cfg.A)
    s0 = cfg.s_grid[0]
    N0 = cfg.n_values[0]

    if mode in _BLOCK_MODES:
        try:
            scheme = probe.blocks(N0)
        except DomainError as err:
            raise UsageError(
                f"probe needs N = K^10 to slice blocks; {err}") from None
        G = mollify.centered(_window(cfg, s0, scheme.N))

    if mode == "partition":
        part = probe.filtration(A, cfg.k, scheme.K)
        results = {"A": str(A), "k": cfg.k, "K": scheme.K,
                   "atoms": part.N_k,
                   "mus": list(part.mus) if part.N_k <= 4096 else
                          [r.mu for r in part.runs],
                   "runs": [vars(r) for r in part.runs]}
        if part.N_k <= 4096:
            results["z"] = [str(z) for z in part.z]
        _say(f"PASS partition A={A} k={cfg.k} K={scheme.K}: "
             f"{part.N_k} atoms, {len(part.runs)} runs")
        return results, results["runs"], EXIT_OK

    if mode == "y":
        cfg = dataclasses.replace(cfg, n_values=(scheme.N,))
        rows, code = _run_samples(cfg, _y_rows, _resolved(cfg, _bases(cfg)))
        _say(f"INFO block sum Y_k at k={cfg.k}, N={scheme.N}: "
             f"max |y| = {max(abs(r['y']) for r in rows):.6g} "
             f"over {len(rows)} samples")
        return {"rows": rows}, rows, code

    if mode == "z":
        weighted, direct, rel = probe.tower_check(A, cfg.k, scheme, G)
        z_val = probe.cond_exp_Z(A, cfg.k, scheme, G, cfg.atom_index)
        ok = rel <= 1e-6
        results = {"z_atom": z_val, "atom_index": cfg.atom_index,
                   "tower_weighted": weighted, "tower_direct": direct,
                   "tower_rel_gap": rel, "tower_ok": ok}
        _say(f"{'PASS' if ok else 'FAIL'} tower property k={cfg.k}: "
             f"relative gap {rel:.3g}")
        return results, None, EXIT_OK if ok else EXIT_CHECK_FAILED

    if mode == "condexp":
        rep = probe.cond_exp_cross(A, cfg.j, cfg.k, scheme, G,
                                   atom_sample=cfg.sample_count)
        _say(f"INFO conditional expectation across levels j={cfg.j} "
             f"k={cfg.k}: max |E| = {max(abs(v) for v in rep.measured):.3g}")
        return vars(rep), None, EXIT_OK

    if mode == "moment":
        rep = probe.parity_moment(A, scheme, G, cfg.parity, cfg.mc_samples,
                                  cfg.seed, cfg.mantissa_bits, cfg.workers)
        _say(f"INFO {cfg.parity}-parity second moment at N={scheme.N}: "
             f"{rep.measured[0]:.6g}")
        return vars(rep), None, EXIT_OK

    if mode == "vdc":
        a, b = parse_rational(cfg.a), parse_rational(cfg.b)
        rows = []
        for l in cfg.l_values:
            for n in cfg.n_powers:
                for m in cfg.m_powers:
                    if not n > m >= 1:
                        continue
                    value, bound = probe.vdc_bound_check(a, b, l, n, m)
                    rows.append({"l": l, "n": n, "m": m,
                                 "abs_integral": value, "bound": bound,
                                 "within": value <= bound})
        if not rows:
            raise UsageError("no (l, n, m) tuples with n > m >= 1")
        _say(f"PASS oscillatory bound on {len(rows)}/{len(rows)} tuples")
        return {"rows": rows}, rows, EXIT_OK

    if mode == "count":
        intervals = probe.level_intervals(cfg.m1, cfg.m2, A, s0, N0)
        rows = [{**vars(iv), "length": iv.length} for iv in intervals]
        total = sum(iv.length for iv in intervals)
        measure, bound = probe.convexity_measure((cfg.m1, cfg.m2),
                                                 (A, A + DyadicRational.from_int(1)),
                                                 s0, N0)
        results = {"rows": rows, "total_level_measure": total,
                   "window_measure": measure, "window_bound": bound}
        _say(f"PASS level-set measure m1={cfg.m1} m2={cfg.m2}: "
             f"{len(rows)} intervals, measure {measure:.3g} "
             f"<= bound {bound:.3g}")
        return results, rows, EXIT_OK

    # mode == "overlap", the last of PROBE_MODES, which argparse enforces
    F = mollify.make_outer(s0, N0, _delta_arg(cfg))
    value, bound = probe.pair_overlap_integral(
        cfg.n_powers[0], cfg.m1, cfg.m2, A, F)
    results = {"n": cfg.n_powers[0], "m1": cfg.m1, "m2": cfg.m2,
               "value": value, "bound": bound}
    _say(f"PASS window-product overlap n={cfg.n_powers[0]} "
         f"m1={cfg.m1} m2={cfg.m2}: {value:.3g} <= {bound:.3g}")
    return results, None, EXIT_OK


def cmd_sweep(cfg: ExperimentConfig):
    if cfg.x is not None or cfg.control != "none":
        raise UsageError("sweep draws its own x per sample; it takes "
                         "neither --x nor a --control other than none")
    if cfg.samples < 10:
        raise UsageError(
            f"sweep needs at least 10 x-samples, got {cfg.samples}")

    bases = _resolved(cfg, _bases(cfg))
    rows, code = _run_samples(cfg, _sweep_rows, bases)
    top_n, partial = max(cfg.n_values), code == EXIT_RESOURCE
    summary = [{"N": N, "s": s, "fraction_within": frac, "samples": count}
               for N, s, frac, count in _fractions_within(cfg, rows)]
    gate = all(item["fraction_within"] >= cfg.q
               for item in summary if item["N"] == top_n)
    results = {"rows": rows, "summary": summary, "partial": partial,
               "samples_run": len(bases), "samples_requested": cfg.samples,
               "poissonian": gate}
    for item in summary:
        mark = " (asserted)" if item["N"] == top_n else ""
        _say(f"INFO sweep N={item['N']} s={item['s']}: "
             f"{item['fraction_within']:.0%} within tolerance{mark}")
    _say(f"{'PASS' if gate else 'FAIL'} sweep fraction >= {cfg.q:.0%} "
         f"at N={top_n} for every s")
    return results, rows, code if partial or gate else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser and dispatch


def _common_flags() -> argparse.ArgumentParser:
    """A parser without help of --config, then one text-valued flag per
    ExperimentConfig field, which every subcommand takes as its parent; the
    field's parser reads the text, so argparse checks no value."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("--config", default=None, help="key=value config file")
    for f in dataclasses.fields(ExperimentConfig):
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        if f.type == "bool":
            sp.add_argument(flag, dest=f.name, action="store_const",
                            const="true", help=f.metadata["help"])
        else:
            sp.add_argument(flag, dest=f.name, help=f.metadata["help"])
    return sp


class _Parser(argparse.ArgumentParser):
    def error(self, message):      # sub-parsers inherit it; --help exits 0
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powcorr",
        description="Correlation statistics of fractional parts of"
                    " xi * x^n, with exactness probes for every"
                    " constructive step of the analysis.")
    subs = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()
    for name, blurb in (
            ("gen", "generate and save one certified sample file"),
            ("paircorr", "pair correlation over a sample/N/s grid"),
            ("spacings", "nearest-neighbour spacing statistics"),
            ("triple", "third correlation over the s grid"),
            ("mollifier-check", "verify the window hypotheses"),
            ("fourier-check", "truncation ladder and cutoff trend"),
            ("probe", "exactness probes for the constructive analysis"),
            ("sweep", "multi-sample Poissonian verdict with gating")):
        sp = subs.add_parser(name, help=blurb, parents=[common])
        if name == "probe":
            sp.add_argument("mode", choices=PROBE_MODES)
    return parser


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {f.name: getattr(args, f.name)
                   for f in dataclasses.fields(ExperimentConfig)}
    return resolve_config(file_values, flag_values)


_DISPATCH = {
    "gen": cmd_gen,
    "paircorr": cmd_paircorr,
    "spacings": cmd_spacings,
    "triple": cmd_triple,
    "mollifier-check": cmd_mollifier_check,
    "fourier-check": cmd_fourier_check,
    "sweep": cmd_sweep,
}


# rows per encoder call of a column table; bounds the transient text
_CHUNK_ROWS = 1 << 14


@dataclasses.dataclass(frozen=True)
class _Columns:
    """A row table held by columns: row i is the dict of keys[j] to
    columns[j][i], in key order.  The columns, lists or numpy arrays, are
    of one length and hold values json writes on one line (numbers,
    strings, booleans, None, or objects it writes by default=str); a
    table of no columns has no rows."""

    keys: tuple
    columns: tuple

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def chunks(self):
        """The columns in runs of _CHUNK_ROWS rows, as lists of Python
        values; a numpy column gives what its tolist() gives."""
        for a in range(0, len(self), _CHUNK_ROWS):
            yield [c[a:a + _CHUNK_ROWS].tolist() if isinstance(c, np.ndarray)
                   else c[a:a + _CHUNK_ROWS] for c in self.columns]


_SCALARS = frozenset({str, int, float, bool, type(None)})
# no indent, so encode() takes the C encoder, which escapes every newline
# inside a string: encoded items never hold a raw newline, so "\n" splits
# a column's items again, and a lone scalar is one line
_ENCODER = json.JSONEncoder(separators=("\n", ": "), default=str)


def _key_text(key) -> str:
    # the key rules of json.dumps: other keys than strings take their JSON
    # text (1.5, NaN, true, null), and keys of any further type are refused
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError("keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return json.encoder.encode_basestring_ascii(key)


def _lay_out(value, indent: str, out: list) -> None:
    """Append the text of `value` as json.dumps(indent=2, default=str)
    writes it on a line indented by `indent`.

    A non-empty container of scalars takes one C encoder call; the
    pure-Python encoder that json.dumps uses once `indent` is set costs
    several times more.  A column table takes one call per column chunk,
    and any other container lays out its items in turn."""
    if isinstance(value, _Columns):
        _lay_columns(value, indent, out)
        return
    if isinstance(value, (list, tuple)):
        values, opener, closer = value, "[", "]"
    elif isinstance(value, dict):
        values, opener, closer = value.values(), "{", "}"
    else:
        out.append(_ENCODER.encode(value))
        return
    if not value:
        out.append(opener + closer)
        return
    inner = indent + "  "
    if set(map(type, values)) <= _SCALARS:
        text = json.JSONEncoder(separators=(",\n" + inner, ": "),
                                default=str).encode(value)
        out += (opener, "\n", inner, text[1:-1], "\n", indent, closer)
        return
    keys = ([_key_text(key) + ": " for key in value] if opener == "{"
            else [""] * len(value))
    out.append(opener)
    for i, (key, item) in enumerate(zip(keys, values)):
        out += (",\n" if i else "\n", inner, key)
        _lay_out(item, inner, out)
    out += ("\n", indent, closer)


def _lay_columns(table: _Columns, indent: str, out: list) -> None:
    """Append the text json.dumps writes for the table's list of row dicts:
    each column chunk is encoded in one call and split into its items,
    which are interleaved with the key prefixes and the row braces."""
    if not len(table):
        out.append("[]")
        return
    inner, row = indent + "  ", indent + "    "
    heads = [("," if j else "{") + "\n" + row + _key_text(key) + ": "
             for j, key in enumerate(table.keys)]
    closer = itertools.repeat("\n" + inner + "}")
    sep = ",\n" + inner
    out += ("[\n", inner)
    for i, chunk in enumerate(table.chunks()):
        parts = []
        for head, column in zip(heads, chunk):
            items = _ENCODER.encode(column)[1:-1].split("\n")
            parts += (itertools.repeat(head), items)
        out += (sep if i else "", sep.join(map("".join, zip(*parts, closer))))
    out += ("\n", indent, "]")


def _pieces(value) -> list:
    """The text of json.dumps(value, indent=2, default=str), byte for byte,
    as pieces to be written in order."""
    out = []
    _lay_out(value, "", out)
    return out


def _emit(command: str, cfg: ExperimentConfig, results: dict,
          csv_rows) -> None:
    payload = {"schema": 1, "command": command,
               "config": dataclasses.asdict(cfg), "results": results}
    # the report leaves as its pieces, so it is never held twice
    pieces = _pieces(payload)
    pieces.append("\n")
    if not cfg.out or command == "gen":
        if sys.stdout is None:          # fd 1 was closed before the start
            raise UsageError("cannot write the report to stdout: closed")
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit: send what is
            # left to the null device, so no second error is printed
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(
                f"cannot write the report to stdout: {exc}") from None
        return
    try:
        with open(cfg.out + ".json", "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        if csv_rows:
            with open(cfg.out + ".csv", "w", encoding="utf-8",
                      newline="") as fh:
                _write_csv(fh, csv_rows)
    except OSError as exc:
        raise UsageError(f"cannot write the --out files: {exc}") from None


def _write_csv(fh, rows) -> None:
    """A header of the first row's keys, then one line per row; a column
    table writes the same bytes from its columns."""
    if isinstance(rows, _Columns):
        writer = csv.writer(fh)
        writer.writerow(rows.keys)
        for chunk in rows.chunks():
            writer.writerows(zip(*chunk))
        return
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def _check_out_dir(out: str) -> None:
    """Refuse an --out in a missing directory before any work runs."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"--out {out}: no directory {folder}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve(args)
        if cfg.out:
            _check_out_dir(cfg.out)
        if args.command == "probe":
            results, csv_rows, code = cmd_probe(cfg, args.mode)
        else:
            results, csv_rows, code = _DISPATCH[args.command](cfg)
        _emit(args.command, cfg, results, csv_rows)
        return code
    except UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_USAGE
    except DomainError as exc:
        _say(f"domain error: {exc}")
        return EXIT_DOMAIN
    except NumericalError as exc:
        _say(f"numerical certification failed: {exc.check}")
        return EXIT_NUMERICAL
    except ResourceError as exc:
        _say(f"resource cap: {exc}")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
