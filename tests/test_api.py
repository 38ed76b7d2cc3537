"""Every module's declared public API resolves to real names."""

import importlib
import pkgutil

import pytest

import powcorr

MODULES = ["powcorr"] + [f"powcorr.{info.name}"
                         for info in pkgutil.iter_modules(powcorr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    assert [attr for attr in names if not hasattr(module, attr)] == []
