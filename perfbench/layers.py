"""Per-layer measurement: the traced boundaries, exact counters, the traced
batch-1 regime, fixed-batch micro timings and the serial baseline.

Every boundary is a public call of the hbdsim package, wrapped from the
benchmark's side by ``tracer.Tracer``. Methods are wrapped on their
classes, so objects built inside the check suites are traced too; free
functions are wrapped where their callers look them up (``hbdsim.cli``,
``hbdsim.dynamics``, ``hbdsim.ensemble``, ``hbdsim.checks``).
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

from workloads import HEADLINE, SCENARIO_DIR

MODULES = ("cli", "scenario", "foliation", "wavefunction", "currents",
           "dynamics", "ensemble")
LATENCY = "curved_n1_packet"

CHECK_SUITES = (
    "flat_reduction_deviation", "n1_foliation_independence",
    "product_foliation_independence", "positivity_stats",
    "k_independence_spread",
)

SLICE_SIZE = 2048
PARALLEL_WORKERS = 2
MICRO_BATCH = 1024


def _lead(arg, trailing):
    shape = np.shape(arg)
    return int(math.prod(shape[:len(shape) - trailing]))


def install(tracer):
    """Wrap every traced boundary of the hbdsim package."""
    import hbdsim.checks as checks
    import hbdsim.cli as cli
    import hbdsim.currents as currents
    import hbdsim.dynamics as dynamics
    import hbdsim.ensemble as ensemble
    import hbdsim.foliation as foliation
    import hbdsim.scenario as scenario
    from hbdsim.wavefunction import NParticleWavefunction

    psi_rows = "wavefunction.evaluate_batch.rows"
    weight_rows = "ensemble.weight_flat.rows"

    tracer.patch(NParticleWavefunction, "evaluate_batch",
                 "wavefunction.evaluate_batch",
                 rows=lambda a, k, r: _lead(a[1], 2))
    for cls in foliation.Foliation.__subclasses__():
        for method in ("gradient", "label"):
            if method in vars(cls):
                tracer.patch(cls, method, f"foliation.{method}",
                             rows=lambda a, k, r: _lead(a[1], 1))
    tracer.patch(foliation.Foliation, "validity_scan",
                 "foliation.validity_scan")

    for module in (currents, dynamics, ensemble, checks):
        if hasattr(module, "currents_all_batch"):
            tracer.patch(module, "currents_all_batch",
                         "currents.currents_all_batch",
                         rows=lambda a, k, r: _lead(a[0], 1))
    for module in (currents, ensemble, checks):
        tracer.patch(module, "density_batch", "currents.density_batch",
                     rows=lambda a, k, r: _lead(a[0], 1))
    for fn in ("current_jk", "density_rho"):
        tracer.patch(currents, fn, "currents.dense_reference")

    def ensemble_done(args, kwargs, ens, deltas, seconds):
        n_steps = len(ens.s_grid) - 1
        valid = ens.valid_steps
        steps = int(np.sum(np.where(valid < n_steps, valid + 1, n_steps)))
        tracer.add("dynamics.trajectory_steps", steps)
        tracer.add("dynamics.halted", int(np.sum(valid < n_steps)))
        tracer.add("dynamics.flow_rows", deltas[psi_rows])
        if ens.n_trajectories == 1:
            tracer.add("dynamics.batch1.steps", steps)
            tracer.add("dynamics.batch1.seconds", seconds)

    for module in (cli, dynamics):
        tracer.patch(module, "integrate_ensemble",
                     "dynamics.integrate_ensemble",
                     on_exit=ensemble_done, track=(psi_rows,))
    tracer.patch(checks, "integrate", "dynamics.integrate")
    tracer.patch(checks, "integrate_flat_bd", "dynamics.integrate_flat_bd")

    def scan_done(args, kwargs, result, deltas, seconds):
        if deltas[psi_rows]:
            density = args[0]
            tracer.add("ensemble.scan.rows", deltas[psi_rows])
            tracer.add("ensemble.scan.grid_points",
                       density.scan_resolution ** density.dims)

    tracer.patch(ensemble.LeafDensity, "scan", "ensemble.scan",
                 on_exit=scan_done, track=(psi_rows,))
    tracer.patch(ensemble.LeafDensity, "weight_flat", "ensemble.weight_flat",
                 rows=lambda a, k, r: _lead(a[1], 1))
    for method, name in (("boundary_relative_flux", "boundary_flux"),
                         ("bin_masses", "bin_masses"),
                         ("marginal_cdf", "marginal_cdf")):
        tracer.patch(ensemble.LeafDensity, method, f"ensemble.{name}")

    def sampled(args, kwargs, samples, deltas, seconds):
        tracer.add("ensemble.sample_leaf.proposals", deltas[weight_rows])
        tracer.add("ensemble.sample_leaf.accepted", samples.n_samples)

    tracer.patch(cli, "sample_leaf", "ensemble.sample_leaf",
                 on_exit=sampled, track=(weight_rows,))
    tracer.patch(cli, "crossings", "ensemble.crossings")
    tracer.patch(cli, "equivariance_test", "ensemble.equivariance_test")

    def written(args, kwargs, result, deltas, seconds):
        tracer.add("scenario.write.bytes", os.path.getsize(args[0]))

    for fn in ("write_trajectories_csv", "write_events_csv",
               "write_crossings_csv", "write_json_report"):
        tracer.patch(cli, fn, "scenario.write", on_exit=written)
    tracer.patch(scenario, "load_scenario", "scenario.load_scenario")

    for fn in (*CHECK_SUITES, "run_all"):
        tracer.patch(checks, fn, f"checks.{fn}")
    for fn in ("run_equilibrium", "run_simulate", "run_checks"):
        tracer.patch(cli, fn, f"cli.{fn}")


def _ratio(num, den):
    return num / den if den else 0.0


def reduce(tracer):
    """Per-layer metrics of one traced run (values only, no units)."""
    c = tracer.counts
    busy = tracer.busy()
    self_s = tracer.self_times()
    m = {}
    for name in ("wavefunction.evaluate_batch", "currents.currents_all_batch"):
        m[f"{name}.calls"] = c[f"{name}.calls"]
        m[f"{name}.rows"] = c[f"{name}.rows"]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.ns_per_row"] = 1e9 * _ratio(busy[name], c[f"{name}.rows"])
    m["currents.density_batch.rows"] = c["currents.density_batch.rows"]
    for name in ("currents.density_batch", "currents.dense_reference",
                 "foliation.gradient", "foliation.label",
                 "foliation.validity_scan", "scenario.load_scenario",
                 "ensemble.scan", "ensemble.boundary_flux",
                 "ensemble.sample_leaf",
                 "ensemble.bin_masses", "ensemble.marginal_cdf",
                 "ensemble.equivariance_test", "ensemble.crossings",
                 "scenario.write"):
        m[f"{name}.busy_s"] = busy[name]
    m["foliation.gradient.rows"] = c["foliation.gradient.rows"]
    m["dynamics.integrate_ensemble.calls"] = c[
        "dynamics.integrate_ensemble.calls"]
    m["dynamics.integrate_ensemble.busy_s"] = busy[
        "dynamics.integrate_ensemble"]
    m["dynamics.trajectory_steps"] = c["dynamics.trajectory_steps"]
    m["dynamics.flow_evals_per_step"] = _ratio(c["dynamics.flow_rows"],
                                               c["dynamics.trajectory_steps"])
    m["dynamics.halted"] = c["dynamics.halted"]
    m["ensemble.scan.rows_per_grid_point"] = _ratio(
        c["ensemble.scan.rows"], c["ensemble.scan.grid_points"])
    m["ensemble.sample_leaf.proposals"] = c["ensemble.sample_leaf.proposals"]
    m["ensemble.sample_leaf.acceptance"] = _ratio(
        c["ensemble.sample_leaf.accepted"],
        c["ensemble.sample_leaf.proposals"])
    m["scenario.write.bytes"] = c["scenario.write.bytes"]
    for module in MODULES:
        m[f"{module}.self_s"] = _module_self(self_s, module)
    m["trace.spans"] = len(tracer.spans)
    return m


def _module_self(self_s, module):
    return sum((v for k, v in self_s.items() if k.split(".", 1)[0] == module),
               0.0)


def latency_run(seed, outdir):
    """The batch-1 regime: ``run_checks`` on curved_n1_packet, traced.

    About 24 000 RK stages of single trajectories, the flat-frame oracle
    integrator and the D31 draws, where per-call overhead dominates. Its
    wall time swings too much on a shared machine to gate as a workload,
    so the traced run of every workload reports it per layer instead.
    """
    from hbdsim import cli
    from hbdsim.checks import CHECK_NAMES
    from hbdsim.scenario import load_scenario
    from tracer import Tracer

    sc = load_scenario(SCENARIO_DIR / f"{LATENCY}.json")
    tracer = Tracer()
    install(tracer)
    try:
        report = cli.run_checks(sc, outdir, seed_override=seed)
    finally:
        tracer.restore()
    c = tracer.counts
    busy = tracer.busy()
    m = {"checks.run_checks.busy_s": busy["cli.run_checks"],
         "dynamics.integrate.calls": c["dynamics.integrate.calls"],
         "dynamics.us_per_step_batch1": 1e6 * _ratio(
             c["dynamics.batch1.seconds"], c["dynamics.batch1.steps"]),
         "dynamics.integrate_flat_bd.busy_s":
             busy["dynamics.integrate_flat_bd"]}
    for fn in CHECK_SUITES:
        m[f"checks.{fn}.busy_s"] = busy[f"checks.{fn}"]
    m["checks.self_s"] = _module_self(tracer.self_times(), "checks")
    names = [x["name"] for x in report["checks"]]
    failed = [x["name"] for x in report["checks"] if not x["passed"]]
    errors = []
    if (names != CHECK_NAMES or failed or not report["all_passed"]
            or report["seed"] != seed):
        errors.append(f"run_checks on {LATENCY} at seed {seed}: ran "
                      f"{names}, failed {failed}")
    return m, errors


# ---------------------------------------------------------------------------
# micro timings and the serial baseline
# ---------------------------------------------------------------------------

def _median_us(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def micro_and_baseline(seed):
    """Fixed-batch timings at 1 and 1024 configurations of the headline
    state, then the 2048-trajectory headline slice at workers=1 and 2."""
    from hbdsim.cli import _node_threshold
    from hbdsim.currents import currents_all_batch
    from hbdsim.dynamics import integrate_ensemble
    from hbdsim.ensemble import LeafDensity, sample_leaf
    from hbdsim.scenario import load_scenario

    sc = load_scenario(SCENARIO_DIR / f"{HEADLINE}.json")
    psi, fol, integ, ens = sc.psi, sc.foliation, sc.integration, sc.ensemble
    density = LeafDensity(fol, integ.s0, psi, ens.boxes, ens.quadrature_order,
                          ens.scan_resolution)
    samples = sample_leaf(density, SLICE_SIZE, seed)
    pts = samples.points()
    threshold = _node_threshold(sc, density)

    m = {}
    for batch, repeats in ((1, 200), (MICRO_BATCH, 15)):
        x = pts[:batch]
        normals = fol.normal(x)
        values = psi.evaluate_batch(x)
        m[f"wavefunction.evaluate_batch.us_b{batch}"] = _median_us(
            lambda: psi.evaluate_batch(x), repeats)
        m[f"currents.currents_all_batch.us_b{batch}"] = _median_us(
            lambda: currents_all_batch(values, normals, psi.n_particles,
                                       psi.mode), repeats)
        m[f"dynamics.rk_step.us_b{batch}"] = _median_us(
            lambda: integrate_ensemble(psi, fol, x, integ.s0,
                                       integ.s0 + integ.step, integ.step,
                                       threshold), max(repeats // 5, 3))

    runs = {}
    for workers in (1, PARALLEL_WORKERS):
        t0 = time.perf_counter()
        runs[workers] = integrate_ensemble(psi, fol, pts, integ.s0, integ.s1,
                                           integ.step, threshold,
                                           workers=workers)
        seconds = time.perf_counter() - t0
        m[f"dynamics.slice{SLICE_SIZE}_w{workers}_s"] = seconds
    m["dynamics.parallel_speedup_w2"] = (
        m[f"dynamics.slice{SLICE_SIZE}_w1_s"]
        / m[f"dynamics.slice{SLICE_SIZE}_w{PARALLEL_WORKERS}_s"])
    same = (np.array_equal(runs[1].points, runs[PARALLEL_WORKERS].points)
            and np.array_equal(runs[1].valid_steps,
                               runs[PARALLEL_WORKERS].valid_steps))
    errors = [] if same else ["the 2048-trajectory slice differs between "
                              "workers=1 and workers=2"]
    return m, errors
