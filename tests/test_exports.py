"""Every name a module of the package exports in ``__all__`` exists there,
so a deleted name left in an ``__all__`` list fails here and not at a
user's ``from hbdsim.<module> import *``. The README's library example runs
against the current API too, and every module name or constant the README
quotes still exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hbdsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(hbdsim.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_quotes():
    return re.findall(r"`([^`\n]+)`", README.read_text())


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
    readme = README.read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_module_names_resolve():
    # a quoted `module.name` (or `hbdsim.module.name`) of a package module
    # names something that module has; file names such as `checks.json`
    # are not module names
    missing, absent = [], object()
    for quote in _readme_quotes():
        parts = quote.removeprefix("hbdsim.").split(".")
        if (not re.fullmatch(r"\w+(\.\w+)+", quote)
                or parts[0] not in MODULES
                or re.fullmatch(r"\w+\.(json|csv)", quote)):
            continue
        obj = importlib.import_module(f"hbdsim.{parts[0]}")
        for part in parts[1:]:
            obj = getattr(obj, part, absent)
        if obj is absent:
            missing.append(quote)
    assert not missing, missing


def test_readme_constants_exist():
    # a quoted ALL_CAPS name, such as `GRID_POINTS`, is a constant of some
    # package module
    modules = [importlib.import_module(f"hbdsim.{m}") for m in MODULES]
    quoted = {q for q in _readme_quotes()
              if re.fullmatch(r"[A-Z][A-Z0-9]*(_[A-Z0-9]+)+", q)}
    assert quoted
    missing = sorted(q for q in quoted
                     if not any(hasattr(m, q) for m in modules))
    assert not missing, missing
