"""Host speed while timed work runs, from a fixed calibration loop.

The benchmark's host shares its cores with other machines' work, so the same
pass of the same code can take 1.6 times as long in one minute as in the
next, in CPU time as much as in wall time, and runs of the same code in
fresh processes differ by up to a fifth. To compare commits through that,
a sampler thread runs a fixed pure-Python loop (about a millisecond of work)
every `PERIOD_S` seconds while a pass runs. It holds the interpreter lock for
the whole loop, so an in-process pass pauses meanwhile, and the loop's wall
time is taken out of the pass's time (a sweep pool's workers do not pause;
there the loop takes a share of a core from them instead). The loop's speed
over a pass is its iterations over the thread CPU time they took, so time it
spent waiting for the interpreter lock or for a core held by the pass does
not count, while time the host took the core away does, as it does for the
pass. Relative to `NOMINAL_ITERS_PER_S` that is the host's speed during the
pass, and dividing the pass's rate by it gives its rate on a host that runs
the loop at the nominal speed. The loop is part of the benchmark, not of
relaysim, so a change to relaysim cannot move it.

The cores of one host can run at different speeds at the same moment, so the
loop must run where the pass runs. An in-process pass calls `pin_thread()`
first: its thread, and the sampler it starts, then share one core. Where a
sweep pool's workers run on every core, the sampler takes the cores in turn.

    with HostSpeed() as host:
        t0 = time.perf_counter(); work(); t1 = time.perf_counter()
    speed, paused_s = host.window(t0, t1)   # after exit: all samples taken
"""

from __future__ import annotations

import os
import threading
import time

CAL_ITERS = 10_000
# The reference host runs the loop at this speed. On the shared 2-vCPU Intel
# Xeon host the benchmark was tuned on it runs at 10-16 M iterations/s.
NOMINAL_ITERS_PER_S = 10_000_000
PERIOD_S = 0.02
MIN_SAMPLES = 5


def calibration_loop(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def pin_thread():
    """Keep the calling thread, and the threads it starts, on one core."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Context manager: sample the loop's speed until exit."""

    def __init__(self):
        self.samples = []  # (mid time, loop wall seconds, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        clock, cpu, samples = time.perf_counter, time.thread_time, self.samples
        cores = sorted(os.sched_getaffinity(0))
        while not self._stop.wait(PERIOD_S):
            if len(cores) > 1:
                os.sched_setaffinity(0, {cores[len(samples) % len(cores)]})
            t0, c0 = clock(), cpu()
            calibration_loop(CAL_ITERS)
            c1, t1 = cpu(), clock()
            samples.append((0.5 * (t0 + t1), t1 - t0, c1 - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def window(self, t0, t1):
        """(relative speed, seconds the loop ran) over [t0, t1]; the speed
        is 1.0 at the nominal loop speed."""
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        used = inside
        if len(used) < MIN_SAMPLES:
            # A pass shorter than a few periods: use the nearest samples.
            centre = 0.5 * (t0 + t1)
            used = sorted(self.samples, key=lambda s: abs(s[0] - centre))
            used = used[:MIN_SAMPLES]
        cpu_s = sum(s[2] for s in used)
        if cpu_s <= 0:
            raise RuntimeError("no calibration sample was taken")
        speed = CAL_ITERS * len(used) / cpu_s
        return speed / NOMINAL_ITERS_PER_S, sum(s[1] for s in inside)
