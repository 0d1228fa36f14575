"""The benchmark workloads: their inputs, commands and checks.

Each workload is a fixed sequence of CLI entry-point calls
(``hbdsim.cli.run_equilibrium`` or ``run_simulate``) on bundled
scenarios, with the workload seed passed on as ``seed_override``.
This module imports hbdsim only inside functions, so that a child process
can time the package import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCENARIO_DIR = Path("src") / "hbdsim" / "scenarios"

# The headline runs the shipped curved_n2_entangled scenario with a
# 2048-trajectory ensemble (2 batches of 1024) instead of the shipped 10^4,
# so that every run fits two repetitions in the benchmark's time budget.
# One worker: with two, the workers' contention for the interpreter lock
# made repetitions spread almost twice as much (see NOTES.md).
HEADLINE = "curved_n2_entangled"
HEADLINE_SIZE = 2048
HEADLINE_WORKERS = 1
# The scenario's own ensemble size and seed, and the TV distance its
# report gives at HEADLINE_SIZE (measured on the commit that introduced
# the benchmark).
SHIPPED_SIZE = 10_000
SHIPPED_SEED = 20260808
TV_AT_SHIPPED_SEED = 0.06195766065784071

WORKLOADS = ("equilibrium_curved_n2", "simulate_bundled")

# Fewest repetitions per run, so that every run compares outputs across
# repetitions.
MIN_REPS = 2


def _bundled_names():
    return sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))


def prepare_inputs(workload, input_dir):
    """Write or locate the scenario files of a workload; returns paths."""
    input_dir = Path(input_dir)
    if workload == "equilibrium_curved_n2":
        raw = json.loads((SCENARIO_DIR / f"{HEADLINE}.json").read_text())
        raw["ensemble"]["size"] = HEADLINE_SIZE
        input_dir.mkdir(parents=True, exist_ok=True)
        path = input_dir / f"{HEADLINE}_m{HEADLINE_SIZE}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        return [path]
    if workload == "simulate_bundled":
        return [SCENARIO_DIR / f"{name}.json" for name in _bundled_names()]
    raise ValueError(f"unknown workload {workload!r}")


def run_command(workload, scenario, seed, outdir):
    """One CLI entry-point call; returns what the entry point returned."""
    from hbdsim import cli

    if workload == "equilibrium_curved_n2":
        return cli.run_equilibrium(scenario, outdir,
                                   workers=HEADLINE_WORKERS,
                                   seed_override=seed)
    return cli.run_simulate(scenario, outdir, seed_override=seed)


def command_dir(workload, scenario, outdir):
    if workload == "simulate_bundled":
        return Path(outdir) / Path(scenario.name).stem
    return Path(outdir) / workload.split("_", 1)[0]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _check_equilibrium(scenario, seed, outdir, payload):
    from hbdsim.scenario import read_csv_table

    errors = []
    report = payload["report"]
    m = scenario.ensemble.size
    if payload["master_seed"] != seed:
        errors.append(f"master_seed {payload['master_seed']} != {seed}")
    if report["excluded"] != 0 or report["included"] != m:
        errors.append(f"included {report['included']}, excluded "
                      f"{report['excluded']} of {m}")
    _, cols = read_csv_table(Path(outdir) / "crossings.csv")
    if len(cols["trajectory"]) != m:
        errors.append(f"crossings.csv has {len(cols['trajectory'])} rows")
    # The scenario's TV threshold (0.05) is set for its shipped 10^4
    # trajectories, and the TV distance of a correct ensemble falls as
    # 1/sqrt(M): at 2048 it reads 0.059 to 0.089 over the seeds tried, so
    # the report's own verdict fails a correct program. The benchmark
    # scales the TV threshold by sqrt(SHIPPED_SIZE / M) (0.110 at 2048) and
    # asks for KS below twice the report's threshold (a tail of about 1e-9;
    # the KS threshold already scales with M). The negative control (flat
    # normals on the target leaf) fails both at 2048: TV 0.123, KS 0.081
    # against 0.072. At the shipped seed the TV distance must also equal
    # the one recorded above.
    tv_bound = report["tv_threshold"] * math.sqrt(SHIPPED_SIZE / m)
    if not report["tv_distance"] < tv_bound:
        errors.append(f"tv_distance {report['tv_distance']} above "
                      f"{tv_bound}")
    if not max(report["ks_stats"]) < 2.0 * report["ks_threshold"]:
        errors.append(f"ks_stats {report['ks_stats']} above twice the "
                      f"threshold {report['ks_threshold']}")
    if seed == SHIPPED_SEED:
        if abs(report["tv_distance"] - TV_AT_SHIPPED_SEED) > 1e-9:
            errors.append(f"tv_distance {report['tv_distance']} != "
                          f"{TV_AT_SHIPPED_SEED} at the shipped seed")
    return errors


def _check_simulate(scenario, seed, outdir, result):
    import numpy as np
    from hbdsim.dynamics import SYNC_TOLERANCE
    from hbdsim.scenario import read_csv_table

    errors = []
    if result["n_events"] != 0:
        errors.append(f"{result['n_events']} events")
    _, events = read_csv_table(result["events"])
    if len(events["trajectory"]) != 0:
        errors.append("events.csv is not empty")
    meta, cols = read_csv_table(result["trajectories"])
    if meta.get("seed") != str(seed):
        errors.append(f"trajectories.csv seed {meta.get('seed')} != {seed}")
    n_rows = len(cols["s"])
    pts = np.zeros((n_rows, 4))
    for mu in range(4):
        if f"x{mu}" in cols:
            pts[:, mu] = cols[f"x{mu}"]
    drift = np.abs(scenario.foliation.label(pts) - cols["s"])
    if n_rows == 0 or not np.max(drift) <= SYNC_TOLERANCE:
        errors.append(f"trajectory rows off their leaf by up to "
                      f"{np.max(drift, initial=0.0):.3e}")
    n_traj = len(np.unique(cols["trajectory"]))
    if n_traj != len(scenario.initial_configurations()):
        errors.append(f"{n_traj} trajectories written")
    return errors


def check_command(workload, scenario, seed, outdir, result):
    """Errors found in one command's outputs (empty when correct)."""
    check = {"equilibrium_curved_n2": _check_equilibrium,
             "simulate_bundled": _check_simulate}[workload]
    return check(scenario, seed, outdir, result)


def output_digest(outdir):
    """sha256 of every output file; JSON reports without their timestamp."""
    outdir = Path(outdir)
    digest = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("timestamp", None)
            data = json.dumps(payload, sort_keys=True).encode()
        key = str(path.relative_to(outdir))
        digest[key] = hashlib.sha256(data).hexdigest()
    return digest
