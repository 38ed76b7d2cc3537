"""Mutation check: every mutant in MUTANTS must make its selected tests fail.

    python3 tools/mutants.py

Run from anywhere; the checkout is the parent of this file's directory.
For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, replaces the mutant's
old text, which must occur exactly once in its file, with the new text,
and runs ``python -m pytest -q -x`` on the mutant's selector there, with
the copy's ``src`` first on PYTHONPATH and a timeout of TIMEOUT seconds.

It prints one JSON line per mutant, {"name", "file", "status", "seconds",
"why"} (and "occurrences" of the old text when it is missing), where
status is

* ``killed``: pytest exited 1, a test failed;
* ``survived``: every selected test passed;
* ``missing``: the old text does not occur exactly once, so the table no
  longer matches the code and the entry needs mending;
* ``timeout``: pytest ran past TIMEOUT;
* ``error``: pytest exited otherwise (bad selector, no test collected).

The exit code is 0 when every mutant was killed, 1 otherwise.  Standard
library only; it is not part of the Tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0      # seconds allowed for one mutant's tests


class Mutant(NamedTuple):
    name: str
    file: str        # relative to the checkout
    old: str         # exact text, which must occur once in the file
    new: str
    tests: tuple     # pytest selectors
    why: str


MUTANTS = (
    Mutant("paircorr-skips-the-plan-gate", "src/powcorr/cli.py",
           "    bases = _resolved(cfg, _bases(cfg))\n"
           "    rows, code = _run_samples(cfg, _paircorr_rows, bases)",
           "    bases = list(_bases(cfg))\n"
           "    rows, code = _run_samples(cfg, _paircorr_rows, bases)",
           ("tests/test_cli.py::"
            "test_a_sweep_passes_its_gates_at_the_hinted_guard_bits",),
           "without the check of every drawn x before any job, paircorr "
           "hints the first failing sample's guard bits, not those that "
           "pass every sample"),
    Mutant("hint-from-the-first-sample", "src/powcorr/hpgen.py",
           "    x = max(xs, key=lambda x: ladder_err_bound(x, N, g))",
           "    x = xs[0]",
           ("tests/test_hpgen.py", "tests/test_cli.py::"
            "test_a_sweep_passes_its_gates_at_the_hinted_guard_bits"),
           "the gate of a plan is that of its largest bound; sample 0's "
           "bound and hint can pass where another sample fails"),
    Mutant("guard-bits-below-32-accepted", "src/powcorr/hpgen.py",
           "    if g < 32:\n        raise DomainError(f\"guard bits must",
           "    if g < 0:\n        raise DomainError(f\"guard bits must",
           ("tests/test_cli.py::test_guard_bits_below_32_are_one_refusal",),
           "every ladder command refuses fewer than 32 guard bits with one "
           "message, before any gate"),
    Mutant("x-drawn-one-seed-later", "src/powcorr/cli.py",
           "else hpgen.sample_x(A, cfg.mantissa_bits, cfg.seed + idx))",
           "else hpgen.sample_x(A, cfg.mantissa_bits, cfg.seed + idx + 1))",
           ("tests/test_cli.py::test_sweep_gates_on_the_fraction",),
           "sample idx draws its x at --seed + idx; the benchmark's sweep "
           "reference repeats that draw"),
    Mutant("drawn-plan-runs-past-the-cap", "src/powcorr/cli.py",
           "            return\n        yield x\n",
           "        yield x\n",
           ("tests/test_cli.py::"
            "test_a_capped_drawn_plan_emits_the_funded_prefix",),
           "every ladder command funds the prefix of its plan that fits "
           "--work-cap; a plan that runs on past the cap is unbounded"),
    Mutant("tally-without-its-mod-n-wrap", "src/powcorr/corr.py",
           "        acc[:len(add) - len(head)] += add[len(head):]\n",
           "",
           ("tests/test_corr.py",),
           "a run that crosses the last sorted position adds its tail "
           "at the first positions (run lengths and degrees)"),
    Mutant("in-tally-without-its-shift-by-k", "src/powcorr/corr.py",
           "                _tally(degrees[w], lo + k, at, hit)",
           "                _tally(degrees[w], lo, at, hit)",
           ("tests/test_corr.py",),
           "step k's in-degrees fall k positions after the run's start"),
    Mutant("bands-joined-in-reverse", "src/powcorr/corr.py",
           "            for _, step, bands in steps:",
           "            for _, step, bands in steps[::-1]:",
           ("tests/test_corr.py::"
            "test_a_chunked_pass_equals_the_one_chunk_pass_bit_for_bit",),
           "band parts join in chunk order, which is position order, so "
           "a chunked pass equals one chunk bit for bit"),
    Mutant("cap-charged-per-chunk", "src/powcorr/corr.py",
           "touched = _charge(touched, sum(m for m, _, _ in steps), k)",
           "touched = _charge(touched, max(m for m, _, _ in steps), k)",
           ("tests/test_corr.py",),
           "the cap is charged with a step's total over every chunk, so a "
           "refusal does not depend on the threads"),
    Mutant("the-narrowest-width-walked", "src/powcorr/corr.py",
           "    walks = [_chunk_steps(ys, doubled, max(tests), lo, hi,",
           "    walks = [_chunk_steps(ys, doubled, min(tests), lo, hi,",
           ("tests/test_corr.py",),
           "one pass at the widest width or window edge serves every "
           "narrower width"),
    Mutant("band-takes-the-plateau-edge", "src/powcorr/corr.py",
           "np.greater(gaps, F.p_f,",
           "np.greater_equal(gaps, F.p_f,",
           ("tests/test_corr.py::"
            "test_pairs_exactly_at_the_plateau_and_at_the_edge",),
           "a gap at F.p_f is counted at the plateau; a band that holds it "
           "too adds its 1.0 twice"),
    Mutant("tower-check-uncapped", "src/powcorr/probe.py",
           "    part = filtration(as_dyadic(A), k, scheme.K,\n"
           "                      TOWER_WORK_CAP // _term_count(k, scheme.K))",
           "    part = filtration(as_dyadic(A), k, scheme.K)",
           ("tests/test_cli.py::"
            "test_probe_z_refuses_an_oversized_tower_check_before_quadrature",),
           "the tower check is refused by its atoms x (n, m) terms before "
           "any quadrature, for the CLI and the library alike"),
    Mutant("window-edge-refusal-dropped", "src/powcorr/mollify.py",
           "        if self.p + self.delta > Fraction(1, 2):",
           "        if False:",
           ("tests/test_mollify.py::"
            "test_a_window_is_judged_by_its_ramp_and_its_edge",),
           "the support-edge check is the one refusal of a window whose "
           "ramps would fold past 1/2, small N included"),
    Mutant("block-sum-without-the-gate", "src/powcorr/probe.py",
           "    ensure_window_resolution(sample, float(G.base.s))\n"
           "    pts = sample.points[:top]",
           "    pts = sample.points[:top]",
           ("tests/test_cli.py::"
            "test_probe_refusals_fire_before_any_quadrature",),
           "a block sum Y_k is a windowed statistic: its sample's err_bound "
           "must pass the (s/N)/100 gate at G's s"),
    Mutant("probe-y-skips-the-plan-gate", "src/powcorr/cli.py",
           "_run_samples(cfg, _y_rows, _resolved(cfg, _bases(cfg)))",
           "_run_samples(cfg, _y_rows, _bases(cfg))",
           ("tests/test_cli.py::"
            "test_probe_y_is_gated_before_any_ladder_as_paircorr_is",),
           "probe y checks its plan at the gate before any ladder runs, as "
           "paircorr, triple and sweep do"),
    Mutant("window-count-taken-with-len", "src/powcorr/probe.py",
           "    count = ms.stop - ms.start",
           "    count = len(ms)",
           ("tests/test_cli.py::"
            "test_probe_refusals_fire_before_any_quadrature",),
           "len() of a range past 2^63 windows raises OverflowError, a "
           "traceback where the window cap should refuse"),
    Mutant("collapsed-panel-accepted", "src/powcorr/quad.py",
           "        if not p < q:",
           "        if False:",
           ("tests/test_cli.py::"
            "test_probe_refusals_fire_before_any_quadrature",),
           "a panel whose ends are one binary64 divides by its zero "
           "half-width and certifies nan"),
    Mutant("w1-for-both-triple-widths", "src/powcorr/corr.py",
           "    w2 = window_width(sample, s2)",
           "    w2 = window_width(sample, s1)",
           ("tests/test_corr.py",),
           "the third correlation at (s1, s2) takes its two windows "
           "separately"),
)


def _run(mutant: Mutant) -> dict:
    record = {"name": mutant.name, "file": mutant.file}
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return {**record, "status": "missing", "seconds": 0.0,
                "why": mutant.why, "occurrences": text.count(mutant.old)}
    with tempfile.TemporaryDirectory(prefix="powcorr-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=
                            shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / mutant.file).write_text(text.replace(mutant.old, mutant.new),
                                        encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        t0 = time.perf_counter()
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
            status = {0: "survived", 1: "killed"}.get(code, "error")
        except subprocess.TimeoutExpired:
            status = "timeout"
        seconds = round(time.perf_counter() - t0, 1)
    return {**record, "status": status, "seconds": seconds,
            "why": mutant.why}


def main() -> int:
    ok = True
    for mutant in MUTANTS:
        record = _run(mutant)
        print(json.dumps(record), flush=True)
        ok &= record["status"] == "killed"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
