"""Every name a module of the package exports in ``__all__`` exists there,
so a deleted name left in an ``__all__`` list fails here and not at a
user's ``from hbdsim.<module> import *``. The README's library example runs
against the current API too."""

import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    # the README's "Library use" block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
