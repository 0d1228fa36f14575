"""Command-line front end.

Three subcommands, all scenario-driven and fully deterministic given the
scenario content hash and the master seed:

* ``simulate``     integrate the scenario's listed initial configurations,
                   write trajectories.csv and events.csv;
* ``equilibrium``  sample the initial leaf, propagate the ensemble, test
                   crossing statistics on the target leaf, write
                   report.json, histogram.json, crossings.csv and
                   events.csv;
* ``checks``       run the invariant suites, write checks.json.

Exit codes: 0 success, 1 a check or the equivariance test failed,
2 scenario validation error, 3 runtime error. Validation and runtime
errors print a one-line JSON object describing the failure.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .currents import density_batch
from .dynamics import integrate_ensemble
from .ensemble import LeafDensity, crossings, equivariance_test, sample_leaf
from .errors import ScenarioError, SimulationError
from .scenario import (
    Scenario,
    load_scenario,
    write_crossings_csv,
    write_events_csv,
    write_json_report,
    write_trajectories_csv,
)

__all__ = ["main", "run_simulate", "run_equilibrium", "run_checks"]


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _apply_seed_override(scenario: Scenario, seed_override):
    if seed_override is None:
        return scenario.ensemble.seed if scenario.ensemble else None
    return int(seed_override)


def _node_threshold(scenario: Scenario, density):
    return scenario.integration.node_threshold_factor * density.max_rho()


def run_simulate(scenario: Scenario, outdir, seed_override=None):
    """Integrate the listed initial configurations; write CSV artifacts.

    The node threshold is ``node_threshold_factor`` times the largest rho
    among the listed configurations; nothing from the ensemble block but its
    seed (written into the CSV headers) is used.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pts0 = scenario.initial_configurations()
    if not len(pts0):
        raise ScenarioError("integration",
                            "scenario lists no initial_positions to simulate")
    seed = _apply_seed_override(scenario, seed_override)

    rho0 = density_batch(scenario.psi.evaluate_batch(pts0),
                         scenario.foliation.normal(pts0),
                         scenario.n_particles, scenario.mode)
    threshold = (scenario.integration.node_threshold_factor
                 * float(np.max(rho0)))

    ens = integrate_ensemble(scenario.psi, scenario.foliation, pts0,
                             scenario.integration.s0, scenario.integration.s1,
                             scenario.integration.step, threshold)
    write_trajectories_csv(outdir / "trajectories.csv", ens, scenario.mode,
                           scenario.content_hash, seed)
    write_events_csv(outdir / "events.csv", ens.events, scenario.content_hash,
                     seed)
    return {"trajectories": str(outdir / "trajectories.csv"),
            "events": str(outdir / "events.csv"),
            "n_trajectories": ens.n_trajectories,
            "n_events": len(ens.events)}


def run_equilibrium(scenario: Scenario, outdir, workers=1, seed_override=None,
                    negative_control=False):
    """Full equilibrium pipeline; returns the equivariance report dict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if scenario.ensemble is None:
        raise ScenarioError("ensemble",
                            "scenario carries no ensemble block")
    ens_block = scenario.ensemble
    seed = _apply_seed_override(scenario, seed_override)

    density0 = LeafDensity(scenario.foliation, scenario.integration.s0,
                           scenario.psi, ens_block.boxes,
                           ens_block.quadrature_order,
                           ens_block.scan_resolution)
    samples = sample_leaf(density0, ens_block.size, seed)
    threshold = _node_threshold(scenario, density0)

    ens = integrate_ensemble(scenario.psi, scenario.foliation,
                             samples.points(), scenario.integration.s0,
                             scenario.integration.s1,
                             scenario.integration.step, threshold,
                             workers=workers,
                             keep_labels=[scenario.integration.s1])
    cross = crossings(ens, scenario.integration.s1)

    density1 = LeafDensity(scenario.foliation, scenario.integration.s1,
                           scenario.psi, ens_block.target_boxes,
                           ens_block.quadrature_order,
                           ens_block.scan_resolution,
                           flat_normals=negative_control)
    report = equivariance_test(cross, density1, ens_block.bins_per_axis,
                               ens_block.tv_threshold,
                               ens_block.ks_coefficient)

    payload = {
        "schema_version": 1,
        "kind": "equivariance_report",
        "timestamp": _timestamp(),
        "scenario_hash": scenario.content_hash,
        "scenario_name": scenario.name,
        "master_seed": seed,
        "negative_control": bool(negative_control),
        "node_threshold": threshold,
        "report": report.to_dict(),
        "sampler": {
            "proposals_weighed": samples.proposals,
            "samples_accepted": samples.n_samples,
            "acceptance_rate": samples.n_samples / samples.proposals,
            "envelope": samples.envelope,
            "attempts": samples.attempts,
        },
    }
    write_json_report(outdir / "report.json", payload)
    write_json_report(outdir / "histogram.json", {
        "schema_version": 1,
        "kind": "histogram",
        "scenario_hash": scenario.content_hash,
        "master_seed": seed,
        "bin_edges": [e.tolist() for e in report.bin_edges],
        "counts": report.counts.tolist(),
        "predicted_masses": report.predicted_masses.tolist(),
        "leak_mass": report.leak_mass,
    })
    write_crossings_csv(outdir / "crossings.csv", cross,
                        scenario.content_hash, seed)
    write_events_csv(outdir / "events.csv", ens.events,
                     scenario.content_hash, seed)
    return payload


def run_checks(scenario: Scenario, outdir, seed_override=None):
    """Invariant suites; returns the checks report dict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = _apply_seed_override(scenario, seed_override)
    if seed is None:
        seed = 12345
    report = checks_mod.run_all(scenario=scenario, seed=seed)
    report["timestamp"] = _timestamp()
    write_json_report(outdir / "checks.json", report)
    return report


def _emit_error(kind, message):
    print(json.dumps({"error": {"kind": kind, "message": message}}))


def _worker_count(text):
    import argparse

    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    # imported here, so that a library caller of the run_* functions never
    # loads argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="hbdsim",
        description="Hypersurface-guided Dirac trajectory simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("simulate", "integrate the scenario's initial configurations"),
            ("equilibrium", "sample, propagate and test an ensemble"),
            ("checks", "run the invariant check suites")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed-override", type=int, default=None)
        if name == "equilibrium":
            p.add_argument("--workers", type=_worker_count, default=1)
            p.add_argument("--negative-control", action="store_true",
                           help="compare against the flat-normal density "
                            "(the test must fail)")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        _emit_error(exc.kind, str(exc))
        return 2

    try:
        if args.command == "simulate":
            run_simulate(scenario, args.out, args.seed_override)
            return 0
        if args.command == "equilibrium":
            payload = run_equilibrium(scenario, args.out, args.workers,
                                      args.seed_override,
                                      args.negative_control)
            passed = payload["report"]["passed"]
            if args.negative_control:
                return 0 if not passed else 1
            return 0 if passed else 1
        if args.command == "checks":
            report = run_checks(scenario, args.out, args.seed_override)
            return 0 if report["all_passed"] else 1
    except ScenarioError as exc:
        _emit_error(exc.kind, str(exc))
        return 2
    except SimulationError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
