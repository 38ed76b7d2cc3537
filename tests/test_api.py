"""Every module's declared public API resolves to real names."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import powcorr

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
