"""Every module's declared public API resolves to real names."""

import importlib
import importlib.util
import pkgutil
import random
import sys
from pathlib import Path

import pytest

import powcorr
from powcorr import DyadicRational, quad

MODULES = ["powcorr"] + [f"powcorr.{info.name}"
                         for info in pkgutil.iter_modules(powcorr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    assert [attr for attr in names if not hasattr(module, attr)] == []


def load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py loaded by path; it is registered in sys.modules
    for the test's duration, which its dataclasses need while they are
    built."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_trace_hook_resolves(monkeypatch):
    # perfbench's traced runs wrap each (owner, attr) of PATCHES through
    # getattr; a name dropped or renamed here must fail the suite, not
    # only a traced benchmark run
    tracing = load_perfbench("tracing", monkeypatch)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert tracing.PATCHES and missing == []


def test_benchmark_probe_ops_run_and_check_clean(monkeypatch):
    # a change to what the benchmark's ops call or read (ProbeReport,
    # FiltrationPartition.z, the QuadConfig fields) must fail the suite,
    # not only a benchmark run; these ops cover each probe layer cheaply
    workloads = load_perfbench("workloads", monkeypatch)
    ops = [op for op in workloads.build("probes", 1, 1).ops
           if op.label.startswith(("filtration ", "convexity n=2 "))
           or op.label in ("condexp j=1 k=3", "overlap (6, 3, 3)")]
    assert len(ops) == 6
    for op in ops:
        problems, _ = op.check(op.canon(op.call()))
        assert problems == [], op.label


def test_benchmark_panel_count_matches_the_integrator(monkeypatch):
    # perfbench fills its VDC_SLOTS cost profile by a float model of
    # quad._power_panels; the model must count the panels the integrator
    # makes, on vdc draws taken the way the benchmark takes them
    workloads = load_perfbench("workloads", monkeypatch)
    rng = random.Random(3)
    for _ in range(400):
        rng.randint(1, 8)                        # l
        n = rng.randint(2, 20)
        rng.randint(1, n - 1)                    # m
        ai = rng.randint(1, 120)
        gap = rng.randint(1, 127 - ai)
        a, b = DyadicRational(64 + ai, 6), DyadicRational(64 + ai + gap, 6)
        assert workloads._panel_count(n, float(a), float(b)) == \
            len(quad._power_panels(n, a, b)) - 1, (n, a, b)
