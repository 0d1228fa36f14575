"""One measurement in a fresh process; run by run.py, never by hand.

Usage: python3 perfbench/child.py '<job as JSON>'

Modes:
  setup    import hbdsim and load the workload's scenarios;
  reps     set up, pin to one CPU, then repeat the workload's commands
           for a given time, checking every repetition;
  rep      set up, then run the workload's commands once and check them;
  traced   the same as rep with the span tracer installed after import;
  layers   fixed-batch micro timings, the serial baseline and the traced
           batch-1 regime (layers.latency_run).

The last line of standard output is one JSON object with the results.
Set-up time starts before ``import hbdsim``, so it includes the import.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup(job, tracer=None):
    import hbdsim
    import hbdsim.cli  # noqa: F401  (the entry points are part of set-up)
    from hbdsim import scenario as scenario_mod

    src = (Path.cwd() / "src").resolve()
    if src not in Path(hbdsim.__file__).resolve().parents:
        raise RuntimeError(f"imported hbdsim from {hbdsim.__file__}, "
                           f"not from {src}")
    if tracer is not None:
        import layers
        layers.install(tracer)
    scenarios = [scenario_mod.load_scenario(p) for p in job["inputs"]]
    return scenarios, time.perf_counter() - _T0


def _run(job, scenarios, tracer=None):
    import workloads

    workload, seed = job["workload"], job["seed"]
    outdir = Path(job["outdir"])
    errors = []
    failed = 0
    extra = {}
    results = []
    command_s = []
    for sc in scenarios:
        if tracer is not None:
            tracer.run_id = f"{workload}:{Path(sc.name).stem}"
        cmd_dir = workloads.command_dir(workload, sc, outdir)
        t0 = time.perf_counter()
        try:
            results.append(workloads.run_command(workload, sc, seed, cmd_dir))
        except Exception:
            results.append(None)
            errors.append(traceback.format_exc(limit=3))
        command_s.append(time.perf_counter() - t0)
    for sc, result in zip(scenarios, results):
        if result is None:
            failed += 1
            continue
        cmd_dir = workloads.command_dir(workload, sc, outdir)
        found = workloads.check_command(workload, sc, seed, cmd_dir, result)
        if found:
            failed += 1
            errors.extend(found)
        if workload == "equilibrium_curved_n2":
            extra["tv_distance"] = result["report"]["tv_distance"]
    return {"wall_s": sum(command_s), "attempted": len(scenarios),
            "failed": failed, "errors": errors,
            "digest": workloads.output_digest(outdir), **extra}


def _repeat(job, scenarios):
    """Repeat the workload's commands in this warm process: at least
    ``min_reps`` times, then while another repetition as long as the
    longest so far still ends within ``seconds`` of the first one's start.
    Each repetition writes to its own directory and records when it ran,
    in ``time.monotonic()`` seconds, to be matched with the speedref.py
    samples taken on the same CPU meanwhile."""
    reps = []
    longest = 0.0
    start = time.monotonic()
    while (len(reps) < job["min_reps"] or
           time.monotonic() - start + longest <= job["seconds"]):
        t0 = time.monotonic()
        rep = _run(dict(job, outdir=f"{job['outdir']}/rep{len(reps)}"),
                   scenarios)
        rep["start"], rep["end"] = t0, time.monotonic()
        reps.append(rep)
        longest = max(longest, rep["end"] - t0)
    return reps


def main(job):
    mode = job["mode"]
    if mode == "layers":
        import layers
        metrics, errors = layers.micro_and_baseline(job["seed"])
        latency, more = layers.latency_run(job["seed"], job["outdir"])
        return {"metrics": {**metrics, **latency}, "errors": errors + more}
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
    scenarios, setup_s = _setup(job, tracer)
    if mode == "setup":
        return {"setup_s": setup_s}
    if mode == "reps":
        os.sched_setaffinity(0, {job["cpu"]})
        out = {"reps": _repeat(job, scenarios)}
    else:
        out = _run(job, scenarios, tracer)
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tracer is not None:
        tracer.restore()
        import layers
        out["metrics"] = layers.reduce(tracer)
        tracer.write_spans(job["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
