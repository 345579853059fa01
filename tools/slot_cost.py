"""Per-slot cost table of relaysim's two engines, written to BENCH_scalar.json.

    python tools/slot_cost.py [LABEL=SRC ...] [--out FILE]

Each LABEL=SRC names a directory SRC holding a relaysim package (a
checkout's `src/`); without any, the table covers this checkout as
`this checkout`. Every package is imported side by side in this one
process under its own name, and the packages take turns on every
measurement, so a drift in host speed reaches them alike. The table holds
the CPU time (time.process_time) of:

- run_once: microseconds per slot for each scheduler at N = 1, 3 and 8
  relays, horizon 2e4, contention decision mode;
- lanes.run_lanes: nanoseconds per lane-slot for mws and rqcsma at N = 1,
  horizon 1e4, with 3, 12, 24 and 48 lanes (one seed per lane);
- harness.boundary_oracle at the shape of the benchmark's oracle workload
  (rho = (0.4, 0.7), a 30 degree ray, mws, 3 seeds, horizon 5e4,
  resolution 0.04, seed 1): CPU seconds per boundary point, and the
  run_once calls (runs) one boundary point makes, counted in one more call.

Each figure is the median of REPEATS turns. Two tables are measured in
REPEATS fresh processes per package (the packages again take turns):

- startup: the wall time of `import relaysim.cli` and the peak RSS of the
  process that made it;
- trace: the wall time of one `relaysim run --trace` call (cli.main, after
  the import) and the peak RSS of its process, at the shape of the
  benchmark's trace workload (rho = (0.4, 0.7), lambda = (0.5, 0.15),
  rqcsma in sampler mode, one seed) for each horizon in TRACE_HORIZONS.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 7
SCHEDULERS = ("mws", "rqcsma", "qcsma", "ub")
RELAYS = (1, 3, 8)
SCALAR_HORIZON = 20_000
LANE_COUNTS = (3, 12, 24, 48)
LANE_SCHEDULERS = ("mws", "rqcsma")
LANE_HORIZON = 10_000
ORACLE_RHO = (0.4, 0.7)
ORACLE_ANGLE = 30.0
ORACLE_SEEDS = 3
ORACLE_HORIZON = 50_000
ORACLE_RESOLUTION = 0.04
TRACE_HORIZONS = (20_000, 100_000)
TRACE_RUN = ["run", "--rho", "0.4,0.7", "--lambda", "0.5,0.15",
             "--scheduler", "rqcsma", "--decision-mode", "sampler",
             "--seeds", "1", "--seed", "1"]


def load(name, src):
    """The relaysim package under `src`, imported as module `name`."""
    init = Path(src).resolve() / "relaysim" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.lanes")
    return package


def network(rs, n_relays):
    """A network inside its rate region: half the load at the source."""
    rho = (0.4, 0.7, 0.8, 0.7, 0.6, 0.9, 0.5, 0.75, 0.65)[:n_relays + 1]
    lam = (0.3,) + (0.2 / n_relays,) * n_relays
    return rs.NetworkParams(n_relays=n_relays, rho=rho, lam=lam)


def take_turns(calls):
    """Median CPU seconds of each call, the calls run in turn REPEATS
    times."""
    times = [[] for _ in calls]
    for _ in range(REPEATS):
        for call, spent in zip(calls, times):
            t0 = time.process_time()
            call()
            spent.append(time.process_time() - t0)
    return [statistics.median(spent) for spent in times]


def run_once_call(rs, scheduler, n_relays):
    config = rs.ExperimentConfig(params=network(rs, n_relays),
                                 scheduler=scheduler,
                                 horizon=SCALAR_HORIZON, n_seeds=1)
    return lambda: rs.run_once(config, 1)


def run_lanes_call(rs, scheduler, n_lanes):
    params = network(rs, 1)
    config = rs.ExperimentConfig(params=params, scheduler=scheduler,
                                 horizon=LANE_HORIZON, n_seeds=1)
    lanes = [(params.lam, seed) for seed in range(n_lanes)]
    return lambda: list(rs.lanes.run_lanes(config, lanes))


def oracle_call(rs):
    params = rs.NetworkParams(n_relays=1, rho=ORACLE_RHO, lam=(0.0, 0.0),
                              seed=1)
    config = rs.ExperimentConfig(params=params, scheduler="mws",
                                 horizon=ORACLE_HORIZON, n_seeds=ORACLE_SEEDS)
    return lambda: rs.harness.boundary_oracle(
        *ORACLE_RHO, ORACLE_ANGLE, config, resolution=ORACLE_RESOLUTION)


def oracle_runs(rs):
    """The run_once calls of one boundary_oracle call at the oracle shape."""
    harness, seeds = rs.harness, []
    run_once = harness.run_once
    harness.run_once = lambda config, seed, **kw: (
        seeds.append(seed) or run_once(config, seed, **kw))
    try:
        oracle_call(rs)()
    finally:
        harness.run_once = run_once
    return len(seeds)


# Run in a fresh interpreter with PYTHONPATH set to a package's directory:
# prints the wall seconds of `import relaysim.cli` and the peak RSS in MB.
STARTUP_PROBE = """\
import resource, time
t0 = time.perf_counter()
import relaysim.cli
seconds = time.perf_counter() - t0
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""
# Likewise, with the argv of a `relaysim run` after the script: prints the
# wall seconds of that cli.main call and the peak RSS in MB.
TRACE_PROBE = """\
import resource, sys, time
import relaysim.cli
t0 = time.perf_counter()
relaysim.cli.main(sys.argv[1:])
seconds = time.perf_counter() - t0
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def fresh_runs(sources, probe, argv=()):
    """{label: (median wall seconds, median peak RSS in MB)} of `probe` run
    with `argv` in REPEATS fresh processes per {label: package directory},
    the packages taking turns."""
    samples = {label: [] for label in sources}
    for _ in range(REPEATS):
        for label, src in sources.items():
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
            out = subprocess.run([sys.executable, "-c", probe, *argv],
                                 env=env, check=True, capture_output=True,
                                 text=True).stdout.split()
            samples[label].append([float(v) for v in out])
    return {label: tuple(statistics.median(v) for v in zip(*runs))
            for label, runs in samples.items()}


def startup(sources):
    """{label: start-up table} for the {label: package directory} given."""
    return {label: {"import_cli_s": round(seconds, 3),
                    "peak_rss_mb": round(rss, 1)}
            for label, (seconds, rss) in fresh_runs(sources,
                                                    STARTUP_PROBE).items()}


def trace(sources):
    """{label: trace table} for the {label: package directory} given."""
    tables = {label: {} for label in sources}
    with tempfile.TemporaryDirectory() as tmp:
        for horizon in TRACE_HORIZONS:
            argv = TRACE_RUN + ["--horizon", str(horizon),
                                "--trace", str(Path(tmp) / "trace.jsonl"),
                                "--out", str(Path(tmp) / "summary.json")]
            runs = fresh_runs(sources, TRACE_PROBE, argv)
            for label, (seconds, rss) in runs.items():
                tables[label][str(horizon)] = {
                    "wall_s": round(seconds, 3),
                    "peak_rss_mb": round(rss, 1)}
    return tables


def measure(packages):
    """{label: table} for the {label: package} given."""
    tables = {label: {"run_once_us_per_slot": {},
                      "run_lanes_ns_per_lane_slot": {}}
              for label in packages}
    for scheduler in SCHEDULERS:
        for n_relays in RELAYS:
            seconds = take_turns([run_once_call(rs, scheduler, n_relays)
                                  for rs in packages.values()])
            for label, s in zip(packages, seconds):
                tables[label]["run_once_us_per_slot"].setdefault(
                    scheduler, {})[str(n_relays)] = round(
                        s / SCALAR_HORIZON * 1e6, 3)
    for scheduler in LANE_SCHEDULERS:
        for n_lanes in LANE_COUNTS:
            seconds = take_turns([run_lanes_call(rs, scheduler, n_lanes)
                                  for rs in packages.values()])
            for label, s in zip(packages, seconds):
                tables[label]["run_lanes_ns_per_lane_slot"].setdefault(
                    scheduler, {})[str(n_lanes)] = round(
                        s / (LANE_HORIZON * n_lanes) * 1e9)
    seconds = take_turns([oracle_call(rs) for rs in packages.values()])
    for (label, rs), s in zip(packages.items(), seconds):
        tables[label]["boundary_oracle"] = {
            "runs_per_point": oracle_runs(rs),
            "cpu_s_per_point": round(s, 3)}
    return tables


def host():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=SRC",
                        help="a label and the directory of its relaysim "
                             "package")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scalar.json"))
    args = parser.parse_args(argv)

    sources = dict(s.split("=", 1) for s in args.sources) or {
        "this checkout": str(ROOT / "src")}
    started = startup(sources)
    traced = trace(sources)
    packages = {label: load(f"relaysim_{k}", src)
                for k, (label, src) in enumerate(sources.items())}
    doc = {
        "host": host(),
        "method": {
            "clock": f"time.process_time, median of {REPEATS} turns; the "
                     f"packages are imported in one process and take turns",
            "run_once": f"us per slot, horizon {SCALAR_HORIZON}, contention "
                        f"decision mode, seed 1, N = {list(RELAYS)}",
            "run_lanes": f"ns per lane-slot, N = 1, horizon {LANE_HORIZON}, "
                         f"lanes = {list(LANE_COUNTS)}",
            "boundary_oracle": f"runs and CPU seconds per boundary point, "
                               f"rho = {list(ORACLE_RHO)}, {ORACLE_ANGLE:g} "
                               f"degrees, mws, {ORACLE_SEEDS} seeds, horizon "
                               f"{ORACLE_HORIZON}, resolution "
                               f"{ORACLE_RESOLUTION:g}, seed 1",
            "startup": f"wall seconds of `import relaysim.cli` and peak RSS "
                       f"(ru_maxrss) of a fresh process, median of {REPEATS} "
                       f"processes per package, taking turns",
            "trace": f"wall seconds of one `relaysim run --trace` call "
                     f"(cli.main, after the import) and peak RSS (ru_maxrss) "
                     f"of its fresh process, {' '.join(TRACE_RUN[1:])}, "
                     f"horizon = {list(TRACE_HORIZONS)}, median of {REPEATS} "
                     f"processes per package, taking turns",
        },
        "results": measure(packages),
    }
    for label in sources:
        doc["results"][label]["startup"] = started[label]
        doc["results"][label]["trace"] = traced[label]
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["results"], indent=2))


if __name__ == "__main__":
    main()
