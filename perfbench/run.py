"""relaysim benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload {contour,oracle,multirelay,trace}
                             --seed N --seconds S --trace {0,1}

With `--trace 0` the workload repeats whole passes, untraced, until S
seconds of timed work have run, and reports the end-to-end metrics declared
in BENCHMARK.json. Throughput and set-up time are reported at a nominal host
speed (see hostspeed.py): a shared host's speed swings too much for
wall-clock figures of two commits to be compared. With `--trace 1` it runs
one untraced pass and two traced passes (see tracer.py) and reports the
per-layer metrics. Either way every output is checked: against the results
pinned in reference.json for the pinned seeds, against invariants for any
other seed, and against the first pass for every later pass. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it describe the host and the
workload and list every metric by name with its unit.

Without relaysim's source next to this directory the import below fails and
the script exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy's BLAS starts a thread per core on import. The benchmark keeps to two
# busy processes or threads (the sweep pool); set-up probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from hostspeed import HostSpeed, pin_thread  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = workloads.ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
# Layers reported as calls and mean inclusive ns per call.
PER_CALL = ("rng.sample_channels", "rng.sample_arrivals",
            "contention.run_contention", "contention.blind_decision",
            "contention.sampled_decision", "scheduling.mws_step",
            "scheduling.rqcsma_step", "scheduling.qcsma_step",
            "scheduling.ub_step", "core.apply_slot", "core.SlotRecord.to_json",
            "harness.classify_stability")


def nproc():
    return len(os.sched_getaffinity(0))


def pool_workers():
    """Sweep pool size: at most two processes, never more than the cores."""
    return min(2, nproc())


def host_info():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def time_setups(name, seed, repeats):
    """(setup seconds at nominal host speed, wall-clock setup seconds, import
    seconds) of `repeats` fresh processes, run one at a time."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(line)
        wall = elapsed - probe["paused_s"]
        out.append((wall * probe["speed"], wall, probe["import_s"]))
    return out


def peak_rss_mb():
    """Peak resident set of this process and of any waited-for child (pool
    workers, set-up probes); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def normalized(units):
    """(runs, unit) pairs with each unit as its JSON round trip, so tuples,
    lists and floats compare exactly as they are pinned."""
    return [(runs, json.loads(json.dumps(unit))) for runs, unit in units]


class Checker:
    """Counts seeded runs attempted and failed over every checked pass."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, label, units):
        if self.first is None:
            self.first = units
        for i, (runs, unit) in enumerate(units):
            problems = self.wl.invariant_problems(unit)
            if self.reference is not None and (
                    i >= len(self.reference) or unit != self.reference[i]):
                problems.append("differs from the pinned reference")
            if i >= len(self.first) or unit != self.first[i][1]:
                problems.append("differs from the first pass")
            self.attempted += runs
            if problems:
                self.failed += runs
                self.problems.append(
                    f"{label} unit {i}: {'; '.join(problems)}")
        if len(units) != len(self.first):
            self.problems.append(f"{label}: {len(units)} units, expected "
                                 f"{len(self.first)}")

    def crashed(self, label):
        self.attempted += self.wl.runs
        self.failed += self.wl.runs
        self.problems.append(f"{label} raised:\n{traceback.format_exc()}")

    @property
    def correct(self):
        return not self.problems


def timed_pass(wl):
    t0 = time.perf_counter()
    raw = wl.run_pass()
    elapsed = time.perf_counter() - t0
    return normalized(wl.units(raw)), elapsed


def end_to_end(args, reference, setups):
    wl = workloads.make(args.workload, args.seed, workers=pool_workers())
    checker = Checker(wl, reference)
    # Only an in-process pass pauses while the sampler's loop holds the
    # interpreter lock; a sweep pool's workers run on, on every core.
    pooled = getattr(wl, "workers", 1) > 1
    if not pooled:
        pin_thread()
    spans = []
    with HostSpeed() as host:
        while not spans or sum(t1 - t0 for t0, t1 in spans) < args.seconds:
            label = f"pass {len(spans)}"
            try:
                t0 = time.perf_counter()
                raw = wl.run_pass()
                t1 = time.perf_counter()
                units = normalized(wl.units(raw))
            except Exception:
                checker.crashed(label)
                break
            spans.append((t0, t1))
            checker.check(label, units)
    times, speeds = [], []
    for t0, t1 in spans:
        speed, paused = host.window(t0, t1)
        times.append(t1 - t0 - (0.0 if pooled else paused))
        speeds.append(speed)
    verdicts = wl.verdicts([u for _, u in checker.first]) if checker.first \
        else []
    rates = [wl.slots / t for t in times]
    norm_rates = [r / v for r, v in zip(rates, speeds)]
    metrics = {
        "norm_slots_per_s": statistics.median(norm_rates) if times else 0.0,
        "setup_s": statistics.median(s for s, _, _ in setups),
        "peak_rss_mb": peak_rss_mb(),
        "match_rate": 1.0 - checker.failed / checker.attempted,
        "verdict_agreement": sum(verdicts) / len(verdicts) if verdicts
        else 0.0,
    }
    notes = [f"passes: {len(times)} of {wl.slots} slots and {wl.runs} seeded "
             f"runs each; timed {sum(times):.3f} s",
             "slots_per_s (wall clock, median of passes): "
             f"{statistics.median(rates) if times else 0.0:.6g}",
             "pass rates (slots/s): " + " ".join(f"{r:.6g}" for r in rates),
             "host speed per pass (calibration loop / nominal): "
             + " ".join(f"{v:.4f}" for v in speeds),
             "normalized pass rates (slots/s at nominal host speed): "
             + " ".join(f"{r:.6g}" for r in norm_rates),
             "set-up seconds (wall clock): "
             + " ".join(f"{w:.4f}" for _, w, _ in setups),
             f"mismatch_rate: {checker.failed / checker.attempted:.6g} "
             f"({checker.failed} of {checker.attempted} seeded runs)",
             f"verdicts agreeing: {sum(verdicts)} of {len(verdicts)}"]
    return checker, metrics, notes


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(totals, probes, counts, slots, trace_bytes):
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    m = {}
    for name in PER_CALL:
        m[f"{name}.calls"] = totals[name]["calls"]
        m[f"{name}.ns_per_call"] = _share(totals[name]["total_ns"],
                                          totals[name]["calls"])
    blind_steps = (totals["scheduling.qcsma_step"]["calls"]
                   + totals["scheduling.ub_step"]["calls"])
    m.update({
        "rng.scheduler_coins": counts["rng.scheduler_coins"],
        "rng.scheduler_coins_per_slot":
            _share(counts["rng.scheduler_coins"], slots),
        "contention.collisions": counts["contention.collisions"],
        "contention.collision_share": _share(
            counts["contention.collisions"],
            totals["contention.run_contention"]["calls"]),
        "scheduling.blind_off_holds": counts["scheduling.blind_off_holds"],
        "scheduling.blind_off_hold_share":
            _share(counts["scheduling.blind_off_holds"], blind_steps),
        "scheduling.rqcsma_memory_cells":
            counts["scheduling.rqcsma_memory_cells"],
        "core.useful_slots": counts["core.useful_slots"],
        "core.useful_slot_share": _share(counts["core.useful_slots"],
                                         totals["core.apply_slot"]["calls"]),
        "cli.trace_bytes": trace_bytes,
        "cli.self_ns_per_slot": totals["cli.main"]["self_ns"] / slots,
        "harness.run_once.calls": totals["harness.run_once"]["calls"],
        "harness.run_once.slots": counts["harness.run_once.slots"],
        "harness.run_once.self_ns_per_slot":
            totals["harness.run_once"]["self_ns"] / slots,
        "harness.boundary_oracle.probes": probes,
    })
    return m


def exact_counts(totals, probes, counts, trace_bytes):
    """The integer counts a traced pass must repeat exactly."""
    out = {f"{name}.calls": t["calls"] for name, t in totals.items()}
    out.update(counts)
    out["harness.boundary_oracle.probes"] = probes
    out["cli.trace_bytes"] = trace_bytes
    return out


def traced_run(args, reference, setups):
    workers = pool_workers()
    # Traced passes run in this process: pool workers would fork with their
    # own copy of the span arrays and their spans would be lost.
    wl = workloads.make(args.workload, args.seed, workers=1)
    checker = Checker(wl, reference)
    untraced_units, untraced_s = timed_pass(wl)
    checker.check("untraced in-process pass", untraced_units)
    efficiency = 0.0
    if workers > 1 and args.workload == "contour":
        pool = workloads.make(args.workload, args.seed, workers=workers)
        pool_units, pool_s = timed_pass(pool)
        checker.check(f"untraced {workers}-worker pass", pool_units)
        efficiency = untraced_s / (workers * pool_s)

    passes = []
    for k in range(2):
        with Tracer() as tracer:
            t0 = time.perf_counter()
            raw = wl.run_pass()
            traced_s = time.perf_counter() - t0
        units = normalized(wl.units(raw))
        checker.check(f"traced pass {k}", units)
        trace_bytes = sum(u.get("trace_bytes", 0) for _, u in units)
        totals, probes = tracer.layer_totals()
        counts = dict(tracer.counts)
        if k == 0:
            workloads.OUT_DIR.mkdir(exist_ok=True)
            tracer.save(workloads.OUT_DIR / f"spans-{args.workload}.npz")
        passes.append((totals, probes, counts, trace_bytes, traced_s))
        del tracer

    first, second = (exact_counts(*p[:4]) for p in passes)
    if first != second:
        diff = sorted(k for k in first if first[k] != second.get(k))
        checker.problems.append(f"traced counts differ between passes: {diff}")
    totals, probes, counts, trace_bytes, traced_s = passes[0]
    metrics = layer_metrics(totals, probes, counts, wl.slots, trace_bytes)
    untraced_rate, traced_rate = wl.slots / untraced_s, wl.slots / traced_s
    metrics.update({
        "harness.sweep_grid.parallel_efficiency": efficiency,
        "setup.import_s": statistics.median(i for _, _, i in setups),
        "tracing.untraced_slots_per_s": untraced_rate,
        "tracing.traced_slots_per_s": traced_rate,
        "tracing.overhead_ratio": traced_rate / untraced_rate,
    })
    notes = [f"traced passes: 2 of {wl.slots} slots each, spans in "
             f"{workloads.OUT_DIR.name}/spans-{args.workload}.npz",
             f"tracing overhead: traced {traced_rate:.6g} slots/s / untraced "
             f"in-process {untraced_rate:.6g} slots/s = "
             f"{traced_rate / untraced_rate:.4f}",
             f"counts repeat exactly across the two traced passes: "
             f"{first == second}"]
    return checker, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    pinned = json.loads(REFERENCE.read_text())
    reference = pinned["units"].get(args.workload, {}).get(str(args.seed))
    wl_class = workloads.WORKLOADS[args.workload]

    setups = time_setups(args.workload, args.seed, SETUP_REPEATS)
    run = traced_run if args.trace else end_to_end
    checker, values, notes = run(args, reference, setups)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"relaysim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host_info()))
    print(f"models acceptance criterion {wl_class.criterion}")
    print(f"why: {wl_class.why}")
    print("checked against: " + ("pinned reference" if reference is not None
                                 else "invariants only (seed not pinned)"))
    for note in notes:
        print(note)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.8g} {m['unit']}")
    print(json.dumps({"correct": checker.correct,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
