"""Public surface: the package imports, every module's `__all__` names
only what the module defines, so a deleted function cannot stay exported,
and every function the benchmark's per-layer tracer wraps still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_benchmark_traced_names_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = []
    for module_name, qualname in spans.TRACED:
        owner = importlib.import_module(f"shiftsieve.{module_name}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, missing


def test_every_cache_clear_takes_no_arguments(monkeypatch):
    """The benchmark resets the library between rounds by calling every
    module-level `cache_clear` with no arguments; each must accept that,
    clearing the per-weight eigenform memo makes the next call build Delta
    again, and the a_ell_y block caches are left empty."""
    from shiftsieve import qexpansion as qe
    from shiftsieve import specfun as sf

    sf.a_ell_y(sf.MellinTransform(), 1, 2.0, tol=1e-6)  # a few blocks to clear
    assert sf._aell_profile.cache_info().currsize > 0
    cleared = []
    for name in MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.append(f"{name}.{attr}")
    assert "shiftsieve.qexpansion._largest_form" in cleared
    assert sf._aell_sums.cache_info().currsize == 0
    assert sf._aell_profile.cache_info().currsize == 0

    builds = []
    real = qe.delta_qexp
    monkeypatch.setattr(qe, "delta_qexp", lambda cutoff: builds.append(cutoff) or real(cutoff))
    qe.eigenform(12, 40)
    qe.eigenform(18, 40)
    assert builds == [40]
    qe._largest_form.cache_clear()
    qe.eigenform(18, 40)
    assert builds == [40, 40]
    qe._largest_form.cache_clear()
