"""Every name a module lists in ``__all__`` is defined in it."""

import importlib
import pkgutil

import pytest

import newton2pep

MODULES = [newton2pep] + [importlib.import_module(f"newton2pep.{info.name}")
                          for info in pkgutil.iter_modules(newton2pep.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
