"""One set-up of a workload in a fresh process, timed by the parent.

Imports relaysim (through the workloads module) and builds the workload's
configs from the seed while a HostSpeed sampler runs, then prints one JSON
line and exits. The parent takes the time from starting this process to
reading that line, less the sampler's loops, as the set-up's wall time, and
scales it by the host speed the line reports to get `setup_s`.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from hostspeed import HostSpeed, pin_thread  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    pin_thread()
    with HostSpeed() as host:
        import workloads
        imported = time.perf_counter()
        workloads.make(name, seed, workers=1)
        done = time.perf_counter()
    speed, paused = host.window(T0, done)
    print(json.dumps({"import_s": imported - T0 - host.window(T0, imported)[1],
                      "speed": speed, "paused_s": paused}), flush=True)
