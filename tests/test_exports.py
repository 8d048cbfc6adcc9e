"""Every name a module lists in ``__all__`` is an attribute of it, so a
deleted name cannot stay exported (``errors`` has no ``__all__``)."""
import importlib
import pkgutil

import pytest

import evolutes

MODULES = ["evolutes"] + [f"evolutes.{info.name}" for info in
                          pkgutil.iter_modules(evolutes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
