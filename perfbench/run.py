"""powcorr benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload statistics --seed 1 --seconds 50 --trace 0

Run from the root of a powcorr checkout; the package is imported from
./src, nothing is installed.  Set-up is timed several times, each in a fresh
interpreter (the worker process stops once set-up is done); then one worker
process runs timed passes of the workload, closed loop, checks every op's
output and reports the metrics.  With --trace 1 the worker instead runs
untraced and traced passes and reports the per-layer metrics.

The last line of stdout is {"correct", "attempted", "failed", "metrics"},
with the metrics and units that BENCHMARK.json declares for the mode;
the line before it, and .bench_out/<workload>-seed<seed>-trace<t>.json, hold
the provenance and the details.  Exit code 0 when a result was printed,
1 when the worker failed (provenance still printed), 2 on bad usage or when
the checkout holds no powcorr sources, 143 when stopped by SIGTERM (the
worker is stopped first; no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("statistics", "probes")
#: fresh interpreters timed for setup_s; the measuring worker adds one more
SETUP_RUNS = 4
#: seconds allowed for one set-up, and for the worker beyond --seconds
#: (its set-up and the output references)
SETUP_TIMEOUT = 30.0
WORKER_GRACE = 120.0


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "powcorr").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu() -> dict:
    info = {"model": platform.processor() or None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def provenance(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": _cpu(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _worker_cmd(args, extra: list) -> list:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra


def _start(args, extra: list) -> tuple:
    """Launch a worker; return (process, seconds until its READY line)."""
    t0 = time.perf_counter()
    # own process group, so that _stop also reaches the sweep's pool
    proc = subprocess.Popen(_worker_cmd(args, extra), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError("no READY line from the worker within "
                               f"{SETUP_TIMEOUT} s")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def _stop(proc) -> None:
    """Kill whatever is left of the worker's process group; reap the
    worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _finish(proc, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker overran its time limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def time_setup(args) -> float:
    """Seconds from launching a fresh worker to its READY line."""
    proc, elapsed = _start(args, ["--setup-only"])
    _finish(proc, SETUP_TIMEOUT)
    return elapsed


def measure(args, result_path: Path) -> float:
    """Run the measuring worker; return its set-up seconds."""
    proc, elapsed = _start(args, ["--result", str(result_path)])
    _finish(proc, args.seconds + WORKER_GRACE)
    return elapsed


def compare_work_counts(worker: dict, out_dir: Path, prov: dict) -> None:
    """Compare the traced run's work counts with the first traced run of
    the same seed and the same package source; the first one is kept."""
    counts = worker["work_counts"]
    path = out_dir / (f"workcounts-{prov['workload']}-seed{prov['seed']}-"
                      f"{prov['src_sha256'][:16]}.json")
    earlier = json.loads(path.read_text()) if path.exists() else None
    if earlier is None:
        path.write_text(json.dumps(counts))
    worker["work_counts_repeat_across_runs"] = \
        None if earlier is None else earlier == counts
    if not worker["work_counts_repeat_in_run"] or earlier not in (None, counts):
        print(f"perfbench: work counts of {prov['workload']} seed "
              f"{prov['seed']} do not repeat: {counts} vs earlier {earlier}",
              file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds like an error, so the worker is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "powcorr" / "__init__.py").is_file():
        return _fail(f"no powcorr sources under {ROOT / 'src'}; run from a "
                     "powcorr checkout", 2)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = out_dir / f"worker-{stem}.json"
    result_path.unlink(missing_ok=True)
    record = {"provenance": provenance(args)}
    try:
        setups = [] if args.trace else [time_setup(args)
                                         for _ in range(SETUP_RUNS)]
        setup = measure(args, result_path)
        worker = json.loads(result_path.read_text())
    except (RuntimeError, OSError, ValueError) as exc:
        record["error"] = str(exc)
        (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps(record))
        return _fail(str(exc), 1)

    metrics = worker.pop("metrics")
    setups.append(setup)
    if args.trace:
        compare_work_counts(worker, out_dir, record["provenance"])
    else:
        metrics["setup_s"] = statistics.median(setups)
    record["provenance"]["numpy"] = worker.pop("numpy")
    record["details"] = dict(worker, setup_runs=setups)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        return _fail(f"worker did not report {missing}", 1)
    print(json.dumps(record))
    print(json.dumps({
        "correct": worker["failed"] == 0 and worker["attempted"] > 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
