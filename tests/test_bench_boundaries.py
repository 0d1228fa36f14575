"""The benchmark's contracts with the package, checked in Tier-1.

The traced benchmark wraps public names of the package from outside
(``perfbench/layers.py``). Installing its wrappers and removing them again
must work against the current package, so that a removed or renamed name
fails here rather than only in a traced benchmark run. The benchmark's
correctness check pins the headline's TV distance at the shipped seed, so a
rounding change that moves a crossing across a bin edge fails here too."""

import importlib
import json
from pathlib import Path

from hbdsim.cli import run_equilibrium
from hbdsim.scenario import bundled_scenario_path, parse_scenario

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


def test_headline_tv_pin_holds(monkeypatch, tmp_path):
    # the headline workload as the benchmark runs it, against its own pin
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    raw = json.loads(bundled_scenario_path(workloads.HEADLINE).read_text())
    raw["ensemble"]["size"] = workloads.HEADLINE_SIZE
    rep = run_equilibrium(parse_scenario(raw), tmp_path,
                          workers=workloads.HEADLINE_WORKERS,
                          seed_override=workloads.SHIPPED_SEED)["report"]
    assert rep["excluded"] == 0
    assert rep["included"] == workloads.HEADLINE_SIZE
    assert abs(rep["tv_distance"] - workloads.TV_AT_SHIPPED_SEED) <= 1e-9
