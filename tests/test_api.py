"""Every module's declared public API resolves to real names."""

import importlib
import importlib.util
import pkgutil
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


def test_every_benchmark_trace_hook_resolves():
    # perfbench's traced runs wrap each (owner, attr) of PATCHES through
    # getattr; a name dropped or renamed here must fail the suite, not
    # only a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert tracing.PATCHES and missing == []
