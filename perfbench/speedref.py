"""Reference-speed sampler; started and stopped by run.py, never by hand.

Usage: python3 perfbench/speedref.py CPU OUT

Pins itself to CPU and, until SIGTERM, times a fixed reference kernel
every 50 ms: one complex exponential over a 256 x 21 array (the shape of
the wavefunction's mode phases) and a 2000-step interpreter loop, about
0.6 ms of CPU time, about 1% of the CPU. On SIGTERM it writes the samples
to OUT as JSON, ``[[monotonic_s, kernel_cpu_s], ...]``.

Why: on a shared machine the speed of one virtual CPU changes by up to a
factor of two from second to second and minute to minute, as other
tenants load the physical core under it. The workload runs pinned to the
same CPU, so the kernel's time during a repetition measures how fast that
CPU was meanwhile, and the repetition's wall time divided by it
(``wall_ref`` in run.py) moves far less with the machine. The kernel is
timed in CPU time, so the moments when the workload holds the CPU do not
count.
"""

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.05


def kernel(phases):
    total = np.exp(phases).sum()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return total, acc


def main(cpu, out):
    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(0)
    phases = 1e-3 * (rng.standard_normal((256, 21))
                     + 1j * rng.standard_normal((256, 21)))
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    kernel(phases)
    samples = []
    while not stop:
        c0 = time.thread_time()
        kernel(phases)
        samples.append((time.monotonic(), time.thread_time() - c0))
        time.sleep(PERIOD_S)
    with open(out, "w") as f:
        json.dump(samples, f)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
