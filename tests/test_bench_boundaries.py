"""The traced benchmark wraps public names of the package from outside
(``perfbench/layers.py``). Installing its wrappers and removing them again
must work against the current package, so that a removed or renamed name
fails here rather than only in a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_boundaries_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._undo)
        assert len(patched) > 20
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
