"""hbdsim benchmark: CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md and BENCHMARK.json for why each exists):

  equilibrium_curved_n2  run_equilibrium on curved_n2_entangled, 2048
                         trajectories, workers=1 (throughput regime)
  simulate_bundled       run_simulate on all seven bundled scenarios

Every measurement runs in a fresh child process (child.py) with the
package imported from ./src and BLAS limited to one thread. The timed
runs are single-threaded; only the traced run's serial baseline uses a
second worker thread.

--trace 0 sets up several times in fresh processes, then, in one more
fresh process pinned to one CPU, repeats the workload's commands as many
times as fit in S seconds, and at least MIN_REPS times. Meanwhile
speedref.py times a fixed reference kernel on the same CPU. It reports
the median setup_s (import plus load_scenario); wall_ref, the median over
repetitions of wall_s (the workload's commands, each from its call until
its outputs are written) divided by the reference kernel's mean time
during the repetition; and the peak_rss_mb of the repeating process.
wall_s itself is printed but not gated: on a shared machine it moves
with the other tenants' load, and wall_ref far less (see NOTES.md).
Outputs other than timestamps must be byte-identical across the
repetitions.

--trace 1 runs the workload once untraced and once with the span tracer
(tracer.py, layers.py), then the micro timings, the serial baseline and
a traced run_checks on curved_n1_packet (the batch-1 regime), and reports
the per-layer metrics. Spans are written to
.perfbench/trace/<workload>-seed<N>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Output files of the commands go
to .perfbench/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import MIN_REPS, WORKLOADS, prepare_inputs  # noqa: E402

WORK_DIR = Path(".perfbench")
TIME_LIMIT_S = 170.0
SETUP_PROBES = 8
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}



def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


class Child:
    """Runs child.py jobs, each in a fresh process, within one deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)
        src = str(Path.cwd() / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def left(self):
        return self.deadline - time.monotonic()

    def __call__(self, **job):
        """The child's result dict, or None if it failed or timed out."""
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                capture_output=True, text=True, env=self.env,
                timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"child {job['mode']} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"child {job['mode']} exited {proc.returncode}:\n"
                  f"{proc.stderr[-4000:]}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(results, n_commands):
    """(attempted, failed, errors) over rep results; None counts as failed."""
    attempted = failed = 0
    errors = []
    digests = []
    for res in results:
        if res is None:
            attempted += n_commands
            failed += n_commands
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        errors.extend(res["errors"])
        digests.append(res["digest"])
    for i, digest in enumerate(digests[1:], 1):
        if digest != digests[0]:
            failed += 1
            differ = sorted(k for k in set(digest) | set(digests[0])
                            if digest.get(k) != digests[0].get(k))
            errors.append(f"outputs of repetition {i} differ: {differ}")
    return attempted, failed, errors


def speed_ratios(reps, samples):
    """Each repetition's wall_s over the mean CPU time of the reference
    kernel sampled on its CPU while it ran (None if no sample fell in)."""
    ratios = []
    for rep in reps:
        inside = [k for t, k in samples if rep["start"] <= t <= rep["end"]]
        ratios.append(rep["wall_s"] / statistics.fmean(inside)
                      if inside else None)
    return ratios


def timed_run(child, workload, seed, seconds, inputs, rundir):
    job = {"workload": workload, "seed": seed,
           "inputs": [str(p) for p in inputs]}
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        res = child(mode="setup", **job)
        if res is not None:
            setups.append(res["setup_s"])
    cpu = max(os.sched_getaffinity(0))
    samples_path = rundir / "speedref.json"
    sampler = subprocess.Popen(
        [sys.executable, str(HERE / "speedref.py"), str(cpu),
         str(samples_path)], env=child.env)
    try:
        res = child(mode="reps", outdir=str(rundir / "reps"), cpu=cpu,
                    seconds=seconds - (time.monotonic() - start),
                    min_reps=MIN_REPS, **job)
    finally:
        sampler.terminate()
        sampler.wait()
    reps = res["reps"] if res is not None else [None]
    attempted, failed, errors = _tally(reps, len(inputs))
    done = [r for r in reps if r is not None]
    samples = (json.loads(samples_path.read_text())
               if samples_path.is_file() else [])
    ratios = speed_ratios(done, samples)
    if None in ratios:
        failed += 1
        errors.append(f"no reference-speed samples during a repetition "
                      f"({len(samples)} samples in all)")
    lines = []
    metrics = {}
    if done and None not in ratios:
        walls = [r["wall_s"] for r in done]
        lines.append(f"repetitions {len(done)} in "
                     f"{time.monotonic() - start:.1f} s with "
                     f"{len(setups) + 1} set-ups, pinned to CPU {cpu}; "
                     f"{len(samples)} reference-speed samples")
        lines.append(f"wall_s per repetition {[round(w, 4) for w in walls]}")
        lines.append(f"wall_ref per repetition "
                     f"{[round(x, 1) for x in ratios]}")
        lines.append(f"wall_s {statistics.median(walls)!r} s (median; "
                     f"printed, not gated)")
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(ratios),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        tvs = [r["tv_distance"] for r in done if "tv_distance" in r]
        if tvs:
            lines.append(f"tv_distance {tvs[0]!r} (equivariance report, "
                         f"{len(tvs)} repetitions)")
    return metrics, attempted, failed, errors, lines


def traced_run(child, workload, seed, inputs, rundir):
    job = {"workload": workload, "seed": seed,
           "inputs": [str(p) for p in inputs]}
    spans = WORK_DIR / "trace" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    plain = child(mode="rep", outdir=str(rundir / "untraced"), **job)
    traced = child(mode="traced", outdir=str(rundir / "traced"),
                   spans=str(spans), **job)
    attempted, failed, errors = _tally([plain, traced], len(inputs))
    micro = child(mode="layers", seed=seed, outdir=str(rundir / "layers"))
    attempted += 1
    if micro is None or micro["errors"]:
        failed += 1
        errors.extend(micro["errors"] if micro else [])
    metrics = {}
    lines = [f"spans in {spans}"]
    if plain is not None and traced is not None and micro is not None:
        metrics.update(traced["metrics"])
        metrics.update(micro["metrics"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        lines.append(f"untraced wall_s {plain['wall_s']!r} s, "
                     f"traced wall_s {traced['wall_s']!r} s")
    return metrics, attempted, failed, errors, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "hbdsim" / "__init__.py").is_file():
        print("error: run from the root of an hbdsim checkout "
              "(src/hbdsim not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = declared_units(args.trace)
    child = Child(time.monotonic() + TIME_LIMIT_S)
    rundir = WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = prepare_inputs(args.workload, rundir / "inputs")
        if args.trace:
            metrics, attempted, failed, errors, lines = traced_run(
                child, args.workload, args.seed, inputs, rundir)
        else:
            metrics, attempted, failed, errors, lines = timed_run(
                child, args.workload, args.seed, args.seconds, inputs, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        failed += 1
        errors.append(f"measured metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(units))}")
        metrics = {k: v for k, v in metrics.items() if k in units}

    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    rate = failed / attempted if attempted else 1.0
    print(f"error_rate {rate!r} ({failed} failed of {attempted} commands)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    correct = bool(attempted) and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": min(failed, attempted) if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
