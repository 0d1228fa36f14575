"""Every name a module of the package exports in ``__all__`` exists there,
so a deleted name left in an ``__all__`` list fails here and not at a
user's ``from hbdsim.<module> import *``."""

import importlib
import pkgutil

import pytest

import hbdsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(hbdsim.__path__))


def test_every_module_is_listed():
    assert {"geometry", "foliation", "wavefunction", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hbdsim.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, missing
