"""Public surface: the package imports, and every module's `__all__` names
only what the module defines, so a deleted function cannot stay exported."""

import importlib
import pkgutil

import pytest

import shiftsieve

MODULES = sorted(f"shiftsieve.{m.name}" for m in pkgutil.iter_modules(shiftsieve.__path__))


def test_package_imports():
    assert shiftsieve.__version__
    assert "shiftsieve.specfun" in MODULES and "shiftsieve.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from {name} import *", {})
