"""One workload process: set up, run timed passes, check every op's output.

Started by run.py, never by hand.  Prints READY once set-up ends (the end of
setup_s) and writes its measurements as JSON to --result.  With --setup-only
it exits right after READY.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: fewest untraced/traced pass pairs of a traced run
MIN_PAIRS = 2

#: Machine-speed yardstick: a numpy gather of YARD_READS random elements of
#: a YARD_SIZE-element float64 array (4 MB: past the 2 MB L2, inside L3).
#: Other tenants slow the ops by up to ~1.7x for minutes at a time; this
#: gather slows with them (see the README), while nothing the package does
#: can change its time.  YARD_REF_S is about its median time on the
#: reference machine; timings are reported at that speed.
YARD_SIZE, YARD_READS = 500_000, 400_000
YARD_REF_S = 0.004
#: least spacing of the yardstick samples taken between ops
YARD_EVERY_S = 0.1

#: work counts that must repeat exactly between passes and runs of one seed
WORK_COUNTS = ("hpgen.ladder_bit_steps", "corr.candidate_pairs",
               "mollify.eval_points", "probe.levelset_roots", "probe.atoms",
               "quad.osc_calls", "quad.root_calls", "cli.out_bytes")


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "tobytes"):
        return f"{value.dtype}{value.shape}:" + hashlib.sha256(
            value.tobytes()).hexdigest()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(canon) -> str:
    text = json.dumps(canon, sort_keys=True, default=_encode)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(ops, between=None) -> tuple:
    """Run every op once; the pass wall covers the ops and between(),
    called before each op outside its time."""
    outputs, times = [], []
    perf = time.perf_counter
    start = perf()
    for op in ops:
        if between is not None:
            between()
        t0 = perf()
        try:
            outputs.append((op.call(), None))
        except Exception as exc:   # a raising op counts as failed; go on
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        times.append(perf() - t0)
    return perf() - start, times, outputs


class Ledger:
    """Canonical outputs of every op of every pass, checked once per
    distinct output after the timed passes."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.distinct = [dict() for _ in ops]   # per op: digest -> canon
        self.passes: list[list] = []            # per pass: (digest|None, error)
        self.bytes_per_pass: list[int] = []

    def record(self, outputs) -> None:
        row, out_bytes = [], 0
        for i, (raw, error) in enumerate(outputs):
            if error is not None:
                row.append((None, error))
                continue
            try:
                canon = self.ops[i].canon(raw)
            except Exception as exc:   # unreadable output fails the op
                row.append((None, f"output unreadable: {exc!r}"))
                continue
            out_bytes += canon.get("bytes", 0)
            key = digest(canon)
            self.distinct[i].setdefault(key, canon)
            row.append((key, None))
        self.passes.append(row)
        self.bytes_per_pass.append(out_bytes)

    def verdict(self) -> dict:
        results = []
        for op, seen in zip(self.ops, self.distinct):
            res = {}
            for key, canon in seen.items():
                try:
                    res[key] = op.check(canon)
                except Exception as exc:   # a check that cannot run fails
                    res[key] = ([f"check raised {exc!r}"], False)
            results.append(res)
        attempted = failed = exact_ops = 0
        failures = []
        for row in self.passes:
            for i, (key, error) in enumerate(row):
                attempted += 1
                problems, exact = ([error], False) if key is None \
                    else results[i][key]
                exact_ops += exact
                if problems:
                    failed += 1
                    if len(failures) < 8:
                        failures.append({"op": self.ops[i].label,
                                         "problems": problems})
        first = [key for key, _ in self.passes[0]]
        return {
            "attempted": attempted, "failed": failed, "failures": failures,
            "ops_bit_identical": exact_ops,
            "bit_identical": exact_ops == attempted,
            "outputs_digest": digest(first),
            "outputs_repeat": all([k for k, _ in row] == first
                                  for row in self.passes),
        }


class Yardstick:
    """Times of the yardstick gather, taken next to the timed passes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.data = rng.random(YARD_SIZE)
        self.index = rng.integers(0, YARD_SIZE, YARD_READS)
        self.times: list[float] = []
        self.last = 0.0

    def sample(self, repeats: int = 3) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.data[self.index].sum()
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def between_ops(self) -> None:
        """One sample, if YARD_EVERY_S has passed since the last: the
        yardstick then sees the same fast and slow stretches as the ops."""
        if time.perf_counter() - self.last >= YARD_EVERY_S:
            self.sample(1)

    def speed(self) -> float:
        """Factor that takes a time measured in this run to the
        reference machine's speed.  The median, not the fastest sample:
        over ten-seed proofs it gave the steadier scaled figures."""
        return YARD_REF_S / statistics.median(self.times)


def run_phase(ops, budget: float, min_passes: int, ledger: Ledger,
              walls: list, op_times: list, yardstick: Yardstick) -> None:
    """Passes until the next one would overrun the budget (at least
    min_passes); the yardstick is sampled before each pass and between
    its ops, outputs are reduced after it, outside the op times."""
    spent = last = 0.0
    done = 0
    while done < min_passes or spent + last <= budget:
        yardstick.sample()
        wall, times, outputs = run_pass(ops, yardstick.between_ops)
        walls.append(wall)
        op_times.append(times)
        ledger.record(outputs)
        spent, last, done = spent + wall, wall, done + 1


def tail_mean(latencies) -> float:
    """Mean of the slowest tenth of the latencies, at least one: the
    expected latency beyond p90.  With fewer than 100 ops, p90 itself
    rests on one or two ops and carries their noise; the mean spreads it
    over the whole slowest tenth."""
    ordered = sorted(latencies, reverse=True)
    return statistics.fmean(ordered[:math.ceil(len(ordered) / 10)])


def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith(field + ":"))


def memory(workers: int, fork_rss_kb: list) -> dict:
    """High-water memory of the worker and its pool, in MB.

    A forked pool process starts out sharing the worker's pages, and RSS
    counts them in both; so a pool process adds only its high-water RSS
    above the worker's RSS when the pool was forked (sampled just before
    each pooled op).  peak_rss_mb is the larger of the worker's own
    high-water mark and that fork-time RSS plus `workers` pool processes'
    extra."""
    own = _status_kb("VmHWM")
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = own
    if fork_rss_kb:
        at_fork = max(fork_rss_kb)
        peak = max(own, at_fork + workers * max(child - at_fork, 0))
    return {"peak_rss_mb": peak / 1024.0, "worker_hwm_mb": own / 1024.0,
            "pool_child_hwm_mb": child / 1024.0,
            "rss_at_fork_mb": max(fork_rss_kb, default=0) / 1024.0}


def layer_metrics(tracer, first, last, ops, ledger_bytes, budgets) -> dict:
    incl, excl, calls = tracer.totals(first, last)
    t = lambda name: incl.get(name, 0.0)          # noqa: E731
    n = lambda name: calls.get(name, 0)           # noqa: E731
    bit_steps = sum(budgets(x, N, g) for x, N, g in tracer.ladders)
    ladder_s = t("hpgen.ladder_frac_powers")
    sets = len(tracer.point_sets)
    roots = sum(op.roots for op in ops)
    levelset_s = t("probe.convexity_measure") + t("probe.level_intervals")
    return {
        "hpgen.ladder_s": ladder_s,
        "hpgen.ladder_calls": n("hpgen.ladder_frac_powers"),
        "hpgen.ladder_bit_steps": bit_steps,
        "hpgen.ladder_ns_per_bit_step":
            ladder_s * 1e9 / bit_steps if bit_steps else 0.0,
        "corr.window_pairs_s": t("corr.forward_window_pairs"),
        "corr.window_calls": n("corr.forward_window_pairs"),
        "corr.window_calls_per_sample":
            n("corr.forward_window_pairs") / sets if sets else 0.0,
        "corr.candidate_pairs": tracer.candidate_pairs,
        "corr.pair_corr_s": t("corr.pair_corr"),
        "corr.smoothed_s": t("corr.pair_corr_smoothed"),
        "corr.triple_s": t("corr.triple_corr"),
        "corr.spacings_s": t("corr.level_spacings")
        + t("corr.spacings_sup_exponential") + t("corr.star_discrepancy"),
        "mollify.eval_array_s": t("mollify.eval_array"),
        "mollify.eval_points": tracer.eval_points,
        "quad.osc_s": t("quad.oscillatory_power_integral"),
        "quad.osc_calls": n("quad.oscillatory_power_integral"),
        "quad.root_s": t("quad.monotone_root"),
        "quad.root_calls": n("quad.monotone_root"),
        "probe.levelset_s": levelset_s,
        "probe.levelset_roots": roots,
        "probe.levelset_us_per_root":
            levelset_s * 1e6 / roots if roots else 0.0,
        "probe.filtration_s": t("probe.filtration"),
        "probe.atoms": tracer.atoms,
        "probe.tower_s": t("probe.tower_check"),
        "probe.condexp_s": t("probe.cond_exp_cross"),
        "probe.vdc_s": t("probe.vdc_bound_check"),
        "probe.overlap_s": t("probe.pair_overlap_integral"),
        "cli.self_s": excl.get("cli.main", 0.0),
        "cli.out_bytes": ledger_bytes,
        "cli.sweep_compute_s": t("cli._sweep_sample"),
    }


def traced_run(wl, workers: int, seed: int, seconds: float,
               out_dir: Path, result: dict) -> tuple:
    """Untraced and traced passes, alternating, for --seconds in all."""
    import workloads
    from tracing import Tracer
    from powcorr import hpgen

    # outputs of every pass are checked against wl.ops' references, also
    # where the one-worker build of the ops made them
    untraced, traced = Ledger(wl.ops), Ledger(wl.ops)
    ops, spent, pooled = wl.ops, 0.0, None
    if wl.pool_op is not None:
        # one pooled pass times the pool for cli.pool_efficiency; spans are
        # seen only in this process, so the passes below run the sweep on
        # one worker
        spent, times, outputs = run_pass(wl.ops)
        untraced.record(outputs)
        pooled = times[wl.pool_op]
        ops = workloads.build(wl.name, seed, 1).ops

    tracer = Tracer()
    per_pass: list[dict] = []
    base_walls: list[float] = []
    traced_walls: list[float] = []
    budgets: dict = {}

    def bit_steps(x, N, g) -> int:
        # N ladder steps on operands of the budgeted width
        if (x, N, g) not in budgets:
            budgets[(x, N, g)] = N * hpgen.precision_budget(x, N, g).total_bits
        return budgets[(x, N, g)]

    # an untraced and a traced pass in turn, so that both see the same
    # stretches of machine noise; pairs until the next would overrun, but
    # at least MIN_PAIRS, so that each side is a best of two or more
    last = 0.0
    while len(per_pass) < MIN_PAIRS or spent + last <= seconds:
        wall, _, outputs = run_pass(ops)
        base_walls.append(wall)
        untraced.record(outputs)
        tracer.install()
        first = tracer.span_count()
        traced_wall, _, outputs = run_pass(ops)
        tracer.uninstall()
        traced_walls.append(traced_wall)
        traced.record(outputs)
        per_pass.append(layer_metrics(tracer, first, tracer.span_count(), ops,
                                      traced.bytes_per_pass[-1], bit_steps))
        tracer.reset_counts()
        last = wall + traced_wall
        spent += last

    # fastest traced pass, as for the end-to-end timings; counts are the
    # same in every pass (checked below)
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        metrics[name] = values[0] if isinstance(values[0], int) else min(values)
    # a noise-floor figure: below the machine's noise it can come out < 0
    metrics["trace.overhead_s"] = min(traced_walls) - min(base_walls)
    compute = metrics.pop("cli.sweep_compute_s")
    metrics["cli.pool_efficiency"] = 0.0
    if pooled is not None:
        metrics["cli.pool_efficiency"] = compute / (workers * pooled)

    counts = {k: per_pass[0][k] for k in WORK_COUNTS}
    result["work_counts"] = counts
    result["work_counts_repeat_in_run"] = all(
        {k: p[k] for k in WORK_COUNTS} == counts for p in per_pass)
    spans = out_dir / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(spans)
    result.update(spans_file=str(spans.relative_to(ROOT)),
                  pass_pairs=len(per_pass), pooled_sweep_s=pooled,
                  traced_pass_walls=traced_walls,
                  untraced_pass_walls=base_walls)
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads
    workers = len(os.sched_getaffinity(0))
    wl = workloads.build(args.workload, args.seed, workers)
    wl.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result = {"workload": wl.name, "seed": args.seed, "workers": workers,
              "ops_per_pass": len(wl.ops), "description": wl.description,
              "python": sys.version.split()[0], "numpy": np.__version__}
    if args.trace:
        metrics, ledgers = traced_run(wl, workers, args.seed, args.seconds,
                                      out_dir, result)
    else:
        fork_rss_kb: list[int] = []
        if wl.pool_op is not None:
            op = wl.ops[wl.pool_op]
            call = op.call

            def pooled_call():
                fork_rss_kb.append(_status_kb("VmRSS"))
                return call()

            op.call = pooled_call
        ledger, yardstick = Ledger(wl.ops), Yardstick()
        walls, times = [], []
        run_phase(wl.ops, args.seconds, 3, ledger, walls, times, yardstick)
        mem = memory(workers, fork_rss_kb)
        # Other tenants of the machine slow every op by up to ~1.7x, in
        # stretches of about a second to minutes, so a run reports best-of
        # figures: a pass made of each op's fastest run, and percentiles over
        # the ops of those fastest runs.  Taking the best per op rather than
        # per pass lets each op use whichever fast stretch it fell in.  A
        # stretch can outlast a run, so the times are then scaled by the
        # yardstick to the reference machine's speed.
        best = [min(col) for col in zip(*times)]
        raw = {"wall_s": math.fsum(best),
               "op_p50_s": float(np.percentile(best, 50)),
               "op_tail_s": tail_mean(best)}
        speed = yardstick.speed()
        metrics = {name: value * speed for name, value in raw.items()}
        metrics["peak_rss_mb"] = mem.pop("peak_rss_mb")
        result.update(mem, passes=len(walls), pass_walls=walls, op_best_s=best,
                      unscaled=raw, speed_factor=speed,
                      yardstick_s=yardstick.times,
                      wall_fastest_pass_s=min(walls),
                      wall_median_s=statistics.median(walls))
        ledgers = [ledger]

    verdicts = [lg.verdict() for lg in ledgers]
    result["attempted"] = sum(v["attempted"] for v in verdicts)
    result["failed"] = sum(v["failed"] for v in verdicts)
    result["failures"] = [f for v in verdicts for f in v["failures"]][:8]
    result["ops_bit_identical"] = sum(v["ops_bit_identical"] for v in verdicts)
    result["bit_identical"] = all(v["bit_identical"] for v in verdicts)
    result["outputs_digest"] = verdicts[0]["outputs_digest"]
    result["outputs_repeat"] = all(v["outputs_repeat"] for v in verdicts) \
        and len({v["outputs_digest"] for v in verdicts}) == 1
    result["metrics"] = metrics
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
