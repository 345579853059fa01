"""Per-slot cost table of relaysim's two engines, written to BENCH_scalar.json.

    python tools/slot_cost.py [LABEL=SRC ...] [--out FILE]

Each LABEL=SRC names a directory SRC holding a relaysim package (a
checkout's `src/`); without any, the table covers this checkout as
`this checkout`. An argument without `=`, or a SRC without a
relaysim/__init__.py, exits with status 2 before anything is measured.
Every package is imported side by side in this one process under its own
name, and the packages take turns on every measurement, so a drift in host
speed reaches them alike. The table holds the CPU time (time.process_time)
of:

- run_once: microseconds per slot for each scheduler of
  scheduling.SCHEDULER_KINDS that every package has, at N = 1, 3 and 8
  relays, horizon SCALAR_HORIZON, contention decision mode;
- lanes.run_lanes: nanoseconds per lane-slot for each scheduler whose
  lanes every package's lane engine runs (lanes._on_engine; the others'
  lanes run through run_once, which the first table already covers), at
  N = 1, horizon LANE_HORIZON, contention decision mode, with 3, 12, 24
  and 48 lanes (one seed per lane);
- run_once at the shape of the benchmark's trace workload (rho = (0.4, 0.7),
  lambda = (0.5, 0.15), rqcsma in sampler mode, one seed), horizon
  TRACE_HORIZON: microseconds per slot with trace=True and a sink that
  writes each record's to_json() line to os.devnull, the same run untraced,
  and the ratio of the two medians.

Each figure is given as the median of its REPEATS turns and their first
and third quartiles ({"median": m, "quartiles": [q1, q3]}). The packages
run in reverse order on every other turn, so neither always runs first.
For each package after the first, each figure also holds "ratio_to_first":
the median and quartiles of its per-turn CPU-time ratio to the first
package, the two calls made one right after the other. Read a shift
between two packages from that ratio, not from the two columns' own
quartiles, which hold the host's drift over the whole run.

The host's speed moves a lot from call to call but little within a few
milliseconds, so the turns are short and many: REPEATS turns of calls of
a few thousand slots. On a 2-vCPU Intel Xeon whose calls of 2 000 slots
spread by 45% between their quartiles, two copies of one package (an A/A
run) gave ratio medians of 0.992-1.003 on the 12 run_once rows and
0.981-1.011 on all 22 rows with 101 turns of 2 000 slots; 7 turns of
2e4 slots had given 0.952-1.162. One run can still carry a few percent of
its own: of three runs comparing packages whose mws_step did not differ,
one read the mws rows at 1.025-1.040 and the others at 0.997-1.005.
Confirm a shift under about 4% with a second run.

Right before and right after each timed call the calibration loop of the
benchmark's perfbench/hostspeed.py runs CAL_LOOPS times; the mean of the
two speeds, relative to that module's nominal speed, is the host's speed
for the call, and the call's time times that speed is its time on a host
at nominal speed. Every timed figure is reported both raw and at nominal
speed (the `*_at_nominal_speed` entries), and the host speeds seen are
summarised under "host_speed". The raw figures of two runs of this
script move with the host's speed between them; the nominal ones take that
speed out, so they are the ones to compare across files written at
different times.

Start-up time, peak memory, `run --trace` as a whole and the boundary
oracle are measured by the benchmark itself (perfbench/run.py: setup_s,
peak_rss_mb and norm_slots_per_s of its workloads), not here.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 101
RELAYS = (1, 3, 8)
SCALAR_HORIZON = 2_000
LANE_COUNTS = (3, 12, 24, 48)
LANE_HORIZON = 2_000
TRACE_HORIZON = 2_000
TRACE_RHO = (0.4, 0.7)
TRACE_LAM = (0.5, 0.15)
HOSTSPEED_PATH = ROOT / "perfbench" / "hostspeed.py"
CAL_LOOPS = 1


@functools.cache
def perfbench_hostspeed():
    """perfbench/hostspeed.py as a module, run from its source so nothing
    is written next to it."""
    module = types.ModuleType("perfbench_hostspeed")
    code = compile(HOSTSPEED_PATH.read_text(), str(HOSTSPEED_PATH), "exec")
    exec(code, module.__dict__)
    return module


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


def host_speed():
    """The host's speed relative to hostspeed.NOMINAL_ITERS_PER_S, from the
    CPU time of CAL_LOOPS calibration loops."""
    hs = perfbench_hostspeed()
    t0 = time.process_time()
    for _ in range(CAL_LOOPS):
        hs.calibration_loop(hs.CAL_ITERS)
    iters_per_s = CAL_LOOPS * hs.CAL_ITERS / (time.process_time() - t0)
    return iters_per_s / hs.NOMINAL_ITERS_PER_S


def spread(values, scale=1, digits=3):
    """The median and the first and third quartiles of `values`, each times
    `scale` and rounded to `digits` (statistics.quantiles' default
    exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values) * scale, digits),
            "quartiles": [round(q1 * scale, digits),
                          round(q3 * scale, digits)]}


def take_turns(calls, speeds):
    """(CPU seconds, CPU seconds at nominal host speed) of each call's
    turns, the calls run in turn REPEATS times, in reverse order on every
    other turn; appends the host speed measured around each call to
    `speeds`."""
    raw = [[] for _ in calls]
    nominal = [[] for _ in calls]
    for turn in range(REPEATS):
        order = list(zip(calls, raw, nominal))
        for call, spent, scaled in order[::-1] if turn % 2 else order:
            before = host_speed()
            t0 = time.process_time()
            call()
            seconds = time.process_time() - t0
            speed = 0.5 * (before + host_speed())
            speeds.append(speed)
            spent.append(seconds)
            scaled.append(seconds * speed)
    return list(zip(raw, nominal))


def run_once_call(rs, scheduler, n_relays):
    config = rs.ExperimentConfig(params=network(rs, n_relays),
                                 scheduler=scheduler,
                                 horizon=SCALAR_HORIZON, n_seeds=1)
    return lambda: rs.run_once(config, 1)


def lane_config(rs, scheduler):
    return rs.ExperimentConfig(params=network(rs, 1), scheduler=scheduler,
                               horizon=LANE_HORIZON, n_seeds=1)


def run_lanes_call(rs, scheduler, n_lanes):
    config = lane_config(rs, scheduler)
    lanes = [(config.params.lam, seed) for seed in range(n_lanes)]
    return lambda: list(rs.lanes.run_lanes(config, lanes))


def schedulers(packages):
    """(The scheduler kinds of the first package that every package has,
    those of them whose run_lanes rows every package's lane engine runs)."""
    kinds = [rs.scheduling.SCHEDULER_KINDS for rs in packages.values()]
    common = tuple(k for k in kinds[0] if all(k in other for other in kinds))
    return common, tuple(
        k for k in common if all(rs.lanes._on_engine(lane_config(rs, k))
                                 for rs in packages.values()))


def trace_run_call(rs, traced):
    """run_once at the trace workload's shape, with trace=True and the
    `run --trace` sink writing to os.devnull when `traced`."""
    params = rs.NetworkParams(n_relays=1, rho=TRACE_RHO, lam=TRACE_LAM)
    config = rs.ExperimentConfig(params=params, scheduler="rqcsma",
                                 decision_mode="sampler",
                                 horizon=TRACE_HORIZON, n_seeds=1,
                                 trace=traced)
    if not traced:
        return lambda: rs.run_once(config, 1)

    def call():
        with open(os.devnull, "w") as fh:
            rs.run_once(config, 1, sink=lambda record: fh.write(
                record.to_json() + "\n"))
    return call


def measure(packages):
    """({label: table} for the {label: package} given, the host speeds
    measured around the timed calls)."""
    tables = {label: {} for label in packages}
    speeds = []

    def put(table, key, seconds, scale, digits):
        """The spread of each package's (raw, nominal) `seconds`, times
        `scale` and rounded to `digits`, at the path `key` of its table
        `table` and of that table's nominal-speed twin. A package after
        the first also gets the spread of its per-turn ratio to the first
        package's seconds, as "ratio_to_first"."""
        for k, (label, times) in enumerate(zip(packages, seconds)):
            for twin, value, first in zip(("", "_at_nominal_speed"), times,
                                          seconds[0]):
                cells = tables[label].setdefault(table + twin, {})
                for part in key[:-1]:
                    cells = cells.setdefault(part, {})
                cell = cells[key[-1]] = spread(value, scale, digits)
                if k:
                    cell["ratio_to_first"] = spread(
                        [v / f for v, f in zip(value, first)], digits=4)

    scalar_kinds, lane_kinds = schedulers(packages)
    for scheduler in scalar_kinds:
        for n_relays in RELAYS:
            put("run_once_us_per_slot", (scheduler, str(n_relays)),
                take_turns([run_once_call(rs, scheduler, n_relays)
                            for rs in packages.values()], speeds),
                1e6 / SCALAR_HORIZON, 3)
    for scheduler in lane_kinds:
        for n_lanes in LANE_COUNTS:
            put("run_lanes_ns_per_lane_slot", (scheduler, str(n_lanes)),
                take_turns([run_lanes_call(rs, scheduler, n_lanes)
                            for rs in packages.values()], speeds),
                1e9 / (LANE_HORIZON * n_lanes), None)
    for traced in (False, True):
        put("trace", ("run_once_us_per_slot",
                      "traced" if traced else "untraced"),
            take_turns([trace_run_call(rs, traced)
                        for rs in packages.values()], speeds),
            1e6 / TRACE_HORIZON, 3)
    for label in packages:
        for name in ("trace", "trace_at_nominal_speed"):
            row = tables[label][name]["run_once_us_per_slot"]
            row["traced_over_untraced"] = round(
                row["traced"]["median"] / row["untraced"]["median"], 2)
    return tables, speeds


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

    sources = {}
    for source in args.sources or [f"this checkout={ROOT / 'src'}"]:
        label, eq, src = source.partition("=")
        if not eq:
            parser.error(f"argument LABEL=SRC: {source!r} has no '='")
        if not (Path(src) / "relaysim" / "__init__.py").is_file():
            parser.error(f"argument LABEL=SRC: {source!r}: no "
                         f"relaysim/__init__.py under {src!r}")
        sources[label] = src
    packages = {label: load(f"relaysim_{k}", src)
                for k, (label, src) in enumerate(sources.items())}
    results, speeds = measure(packages)
    lane_kinds = schedulers(packages)[1]
    hs = perfbench_hostspeed()
    doc = {
        "host": host(),
        "host_speed": {
            **spread(speeds),
            "range": [round(min(speeds), 3), round(max(speeds), 3)],
            "samples": len(speeds),
        },
        "method": {
            "clock": f"time.process_time over {REPEATS} turns, each figure "
                     f"their median and first and third quartiles; the "
                     f"packages are imported in one process and take turns, "
                     f"in reverse order on every other turn",
            "ratio_to_first": "for each package after the first, the median "
                              "and quartiles of its per-turn CPU-time ratio "
                              "to the first package's, raw and at nominal "
                              "speed",
            "host_speed": f"before and after each timed call, {CAL_LOOPS} "
                          f"runs of perfbench/hostspeed.py's calibration_"
                          f"loop({hs.CAL_ITERS}); speed = the mean of the "
                          f"two iterations per CPU second / "
                          f"{hs.NOMINAL_ITERS_PER_S}; a figure "
                          f"*_at_nominal_speed is the spread of its turns' "
                          f"CPU times times their speeds",
            "run_once": f"us per slot, horizon {SCALAR_HORIZON}, contention "
                        f"decision mode, seed 1, N = {list(RELAYS)}",
            "run_lanes": f"ns per lane-slot of {list(lane_kinds)}, the "
                         f"schedulers whose lanes every package's lane "
                         f"engine runs (the others' lanes run through "
                         f"run_once), N = 1, horizon {LANE_HORIZON}, "
                         f"contention decision mode, lanes = "
                         f"{list(LANE_COUNTS)}",
            "trace": f"us per slot of run_once at rho = {list(TRACE_RHO)}, "
                     f"lambda = {list(TRACE_LAM)}, rqcsma, sampler decision "
                     f"mode, horizon {TRACE_HORIZON}, seed 1: traced, its "
                     f"sink writing record.to_json() lines to os.devnull, "
                     f"untraced, and the ratio of their medians",
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["results"], indent=2))


if __name__ == "__main__":
    main()
