"""Every name a module exports resolves on it."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import residuehd

MODULES = ["residuehd"] + [f"residuehd.{info.name}" for info in pkgutil.iter_modules(residuehd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry fails only on import *, which no other test does
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_import_loads_no_scipy():
    # importing scipy.sparse alone takes a bare numpy process from about 27
    # to 49 MiB, so the library's import leaves scipy to the modules that need it;
    # scipy.optimize adds about 48 MB of max RSS after numpy and scipy.fft 26 MB,
    # against a 42-50 MB peak in every benchmark workload and its 10 % bound, so
    # even the same-bits, faster label DFTs of scipy.fft stay out of the library
    src = str(Path(residuehd.__file__).parent.parent)
    probe = "import sys, residuehd; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
