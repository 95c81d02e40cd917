"""Every name a module exports resolves on it."""

import importlib
import pkgutil

import pytest

import residuehd

MODULES = ["residuehd"] + [f"residuehd.{info.name}" for info in pkgutil.iter_modules(residuehd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry fails only on import *, which no other test does
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
