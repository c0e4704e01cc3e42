"""Every exported name resolves: ``__all__`` lists only what a module holds."""
import importlib
import pkgutil

import pytest

import dtmech

# ``__main__`` is left out: importing it runs the command line
MODULES = ["dtmech"] + sorted(f"dtmech.{m.name}"
                              for m in pkgutil.iter_modules(dtmech.__path__)
                              if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_star_import_of_the_kernel():
    namespace = {}
    exec("from dtmech.kernel import *", namespace)
    assert "transform_quadrature" in namespace and "TimeSignal" in namespace
