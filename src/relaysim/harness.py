"""Experiment runner and desk-scale reproduction of the stability studies.

A run is a pure function of (config, seed): channels, arrivals, contention
draws, and scheduler coins come from four keyed substreams, so reruns and
parallel sweep workers produce byte-identical results. Stability of a run is
classified from the tail of the total-backlog trajectory.

run_once is the reference engine, used by run_seeds, boundary_oracle and
traced runs. sweep_grid runs all (grid point x seed) runs of a worker's
batch as lanes of lanes.run_lanes calls (at most MAX_BATCH_LANES lanes per
call), which advance them in numpy lockstep and give each the RunResult
run_once gives, so sweep rows do not depend on the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import chain, repeat
from typing import Optional

import numpy as np
from scipy import stats as _st

from .analysis import ray_direction
from .contention import elect_block, sampled_decision
from .core import IDLE, NetworkParams, QueueState, SlotRecord, apply_slot
from .rng import RunStreams, sample_arrival_matrix, sample_channel_matrix
from .scheduling import (SCHEDULER_KINDS, mws_step, qcsma_step, rqcsma_step,
                         ub_step)

DECISION_MODES = ("contention", "sampler")

# Tail-slope threshold (packets/slot) below which a run counts as stable.
STABLE_SLOPE = 5e-3
MAX_TRAJECTORY_POINTS = 10_000
# A shorter trajectory is left unclassified (stable and slope are None).
MIN_CLASSIFIED_SAMPLES = 100
# Slots per block of pre-drawn channels, arrivals and elections; bounds a
# run's draw buffers at any horizon.
BLOCK_SLOTS = 1024
# Most lanes per run_lanes call of a sweep batch; bounds a batch's arrays
# (about 0.1 MB per lane at horizon 1e4), while the per-lane cost has
# leveled off well below it.
MAX_BATCH_LANES = 256


@dataclass
class ExperimentConfig:
    params: NetworkParams
    scheduler: str = "rqcsma"
    horizon: int = 10_000
    n_seeds: int = 10
    decision_mode: str = "contention"
    trace: bool = False

    def __post_init__(self):
        if self.scheduler not in SCHEDULER_KINDS:
            raise ValueError(f"scheduler must be one of {SCHEDULER_KINDS}")
        if self.decision_mode not in DECISION_MODES:
            raise ValueError(f"decision_mode must be one of {DECISION_MODES}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")


@dataclass
class RunResult:
    seed: int
    q_avg: float
    slots: tuple
    totals: tuple
    final_total: int
    stable: Optional[bool]  # None: fewer than MIN_CLASSIFIED_SAMPLES samples
    slope: Optional[float]
    memory_entries: int = 0
    distinct_channels: int = 0
    records: list = field(default_factory=list)


def classify_stability(slots, totals, total_rate=None, horizon=None):
    """Classify a total-backlog trajectory.

    Least-squares slope over the samples in the final 50% of the horizon;
    stable iff that slope is below STABLE_SLOPE packets/slot and the final
    backlog is below half of the total packets offered over the horizon
    (vacuous for zero offered load).
    """
    if len(slots) < MIN_CLASSIFIED_SAMPLES:
        raise ValueError(f"trajectory must have at least "
                         f"{MIN_CLASSIFIED_SAMPLES} samples")
    if horizon is None:
        horizon = slots[-1] + 1
    xs = np.asarray(slots, dtype=float)
    ys = np.asarray(totals, dtype=float)
    cut = horizon / 2.0
    tail = xs >= cut
    x, y = xs[tail], ys[tail]
    xm = x - x.mean()
    denom = (xm * xm).sum()
    slope = float((xm * (y - y.mean())).sum() / denom) if denom > 0 else 0.0

    stable = slope < STABLE_SLOPE
    if total_rate is not None and total_rate > 0:
        stable = stable and ys[-1] < 0.5 * horizon * total_rate
    return bool(stable), slope


def sample_slots(horizon):
    """The slots whose total backlog a run's trajectory records: every
    stride-th slot, at most MAX_TRAJECTORY_POINTS of them, and the last."""
    stride = max(1, math.ceil(horizon / MAX_TRAJECTORY_POINTS))
    return tuple(t for t in range(horizon)
                 if t % stride == 0 or t == horizon - 1)


def run_result(seed, lam, horizon, slots, totals, acc, memory_entries,
               distinct_channels, records=None) -> RunResult:
    """A run's RunResult from its sampled trajectory and its sum of per-slot
    total backlogs; a trajectory of fewer than MIN_CLASSIFIED_SAMPLES
    samples is left unclassified."""
    stable, slope = None, None
    if len(slots) >= MIN_CLASSIFIED_SAMPLES:
        stable, slope = classify_stability(slots, totals, sum(lam), horizon)
    return RunResult(
        seed=seed,
        q_avg=acc / horizon,
        slots=tuple(slots),
        totals=tuple(totals),
        final_total=totals[-1],
        stable=stable,
        slope=slope,
        memory_entries=memory_entries,
        distinct_channels=distinct_channels,
        records=[] if records is None else records,
    )


def run_once(config: ExperimentConfig, seed) -> RunResult:
    """Execute one seeded run of `horizon` slots.

    Channels, arrivals and the CSMA backoff elections do not depend on the
    queues, so they are drawn BLOCK_SLOTS slots at a time; the per-slot loop
    keeps only the queue-dependent work. Each of those streams serves a fixed
    number of uniforms per slot (see rng), which makes a block draw equal to
    the same slots drawn one by one.
    """
    params = config.params
    horizon = config.horizon
    scheduler = config.scheduler
    contention_mode = config.decision_mode == "contention"
    elected = contention_mode and scheduler in ("rqcsma", "qcsma")
    trace = config.trace

    streams = RunStreams(seed)
    ch_stream, ar_stream = streams.channels, streams.arrivals
    ct_stream, sc_stream = streams.contention, streams.scheduler

    queues = QueueState.empty(params.n_relays)
    memory = {}  # rqcsma: channel realization -> schedule of its last slot
    prev_x = IDLE
    seen_channels = set()

    slots = sample_slots(horizon)
    sampled = set(slots)
    totals = []
    records = []
    acc = 0

    for start in range(0, horizon, BLOCK_SLOTS):
        n_slots = min(BLOCK_SLOTS, horizon - start)
        channel_block = sample_channel_matrix(params, ch_stream, n_slots)
        channels = list(map(tuple, channel_block.tolist()))
        arrivals_block = list(map(tuple, sample_arrival_matrix(
            params, ar_stream, n_slots).tolist()))
        seen_channels.update(channels)
        if elected:
            decisions = elect_block(
                params, ct_stream, n_slots,
                channel_block if scheduler == "rqcsma" else None)
        else:
            decisions = repeat(IDLE, n_slots)

        for t, channel, arrivals, decision in zip(
                range(start, start + n_slots), channels, arrivals_block,
                decisions):
            if scheduler == "mws":
                x = decision = mws_step(queues, channel, params)
            elif scheduler == "rqcsma":
                if not contention_mode:
                    decision = sampled_decision(params, channel, sc_stream)
                x = rqcsma_step(queues, channel, memory, decision, params,
                                sc_stream)
            elif scheduler == "qcsma":
                if not contention_mode:
                    decision = sampled_decision(params, params.all_on,
                                                sc_stream)
                x = prev_x = qcsma_step(queues, channel, prev_x, decision,
                                        params, sc_stream)
            else:  # ub: only backlogged nodes contend, so it stays per slot
                x = decision = ub_step(queues, channel, params, ct_stream)

            # Data plane: a blind scheduler holding an OFF relay wastes the
            # slot.
            x_data = x
            if x is not IDLE and x != 0 and not channel[x]:
                x_data = IDLE

            queues, tag = apply_slot(queues, x_data, channel, arrivals)
            total = queues.total()
            acc += total
            if t in sampled:
                totals.append(total)
            if trace:
                records.append(SlotRecord(t, channel, decision, x, tag,
                                          arrivals, queues))

    return run_result(seed, params.lam, horizon, slots, totals, acc,
                      len(memory), len(seen_channels), records)


def run_seeds(config: ExperimentConfig, seeds=None):
    """Run the configured number of seeds (base seed + k by default).

    With config.trace only the first run keeps its slot records (a trace is
    one sample path; every seed's would cost seeds x horizon records).
    """
    if seeds is None:
        seeds = [config.params.seed + k for k in range(config.n_seeds)]
    untraced = replace(config, trace=False)
    return [run_once(config if k == 0 else untraced, s)
            for k, s in enumerate(seeds)]


def aggregate_ci(values, level=0.90):
    """Student-t confidence interval on per-seed values: (mean, half-width)."""
    values = list(values)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for an interval")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        return mean, 0.0
    t = float(_st.t.ppf(0.5 + level / 2.0, n - 1))
    return mean, t * sd / math.sqrt(n)


def stable_fraction(results):
    """Share of the classified runs that are stable; None if none is."""
    verdicts = [r.stable for r in results if r.stable is not None]
    return sum(verdicts) / len(verdicts) if verdicts else None


def _sweep_row(index, lam, results):
    """One sweep row from a point's per-seed results, in seed order."""
    q_avgs = [r.q_avg for r in results]
    finals = [r.final_total for r in results]
    row = {
        "index": index,
        "lam": tuple(lam),
        "mean_q_avg": float(np.mean(q_avgs)),
        "mean_final": float(np.mean(finals)),
        "stable_fraction": stable_fraction(results),
    }
    if len(results) >= 2:
        row["ci_half"] = aggregate_ci(q_avgs)[1]
    else:
        row["ci_half"] = 0.0
    return row


def _sweep_batch(args):
    """Rows of a batch of (index, lam) points. All seeds of all points run
    as lanes of run_lanes calls of at most MAX_BATCH_LANES lanes each."""
    from .lanes import run_lanes  # lanes builds on this module

    config, points = args
    config = replace(config, trace=False)
    seeds = [config.params.seed + k for k in range(config.n_seeds)]
    lanes = [(lam, s) for _, lam in points for s in seeds]
    n_calls = max(1, -(-len(lanes) // MAX_BATCH_LANES))
    bounds = [len(lanes) * k // n_calls for k in range(n_calls + 1)]
    results = chain.from_iterable(run_lanes(config, lanes[a:b])
                                  for a, b in zip(bounds, bounds[1:]))
    return [_sweep_row(index, lam, [next(results) for _ in seeds])
            for index, lam in points]


def sweep_grid(config: ExperimentConfig, grid, workers=1):
    """Independent seeded runs per grid point (a list of full rate vectors).

    The valid points are split into `workers` contiguous batches, and each
    batch runs its points' seeds as lanes of run_lanes calls, so each
    run equals run_once and rows come back in grid order, identical for
    every worker count. A point that fails validation is reported with an
    "error" field instead of aborting the sweep.
    """
    points = []
    rows = [None] * len(grid)
    for idx, lam in enumerate(grid):
        try:
            replace(config.params, lam=tuple(lam))
        except ValueError as exc:
            rows[idx] = {"index": idx, "lam": tuple(lam), "error": str(exc)}
            continue
        points.append((idx, tuple(lam)))

    n_batches = max(1, min(workers, len(points)))
    bounds = [len(points) * k // n_batches for k in range(n_batches + 1)]
    tasks = [(config, points[a:b]) for a, b in zip(bounds, bounds[1:])]
    if n_batches > 1:
        with ProcessPoolExecutor(max_workers=n_batches) as pool:
            batches = list(pool.map(_sweep_batch, tasks))
    else:
        batches = map(_sweep_batch, tasks)
    for batch in batches:
        for row in batch:
            rows[row["index"]] = row
    return rows


def box_grid(n_per_axis, l0_max, l1_max):
    """(n x n) grid of two-node rate vectors over [0, l0_max] x [0, l1_max]."""
    l0s = np.linspace(0.0, l0_max, n_per_axis)
    l1s = np.linspace(0.0, l1_max, n_per_axis)
    return [(float(a), float(b)) for a in l0s for b in l1s]


def gamma_grid(base_lam, gammas):
    """Rate vectors with gamma added to node 0's rate."""
    base = tuple(base_lam)
    return [(base[0] + float(g),) + base[1:] for g in gammas]


def _majority_stable(config: ExperimentConfig, lam):
    params = replace(config.params, lam=tuple(lam))
    results = run_seeds(replace(config, params=params, trace=False))
    return sum(r.stable for r in results) > len(results) / 2


def oracle_config(rho0, rho1, config: ExperimentConfig):
    """The config boundary_oracle runs: one relay with ON probabilities
    (rho0, rho1), zero base rates and a horizon of at least 5e4."""
    params = replace(config.params, n_relays=1, rho=(rho0, rho1),
                     lam=(0.0, 0.0))
    return replace(config, params=params, horizon=max(config.horizon, 50_000))


def boundary_oracle(rho0, rho1, angle_deg, config: ExperimentConfig,
                    resolution=0.01):
    """Empirical boundary point along a ray, by bisection on simulated runs.

    A scale is inside iff the majority of seeds classify stable at horizon
    >= 5e4. Independent of the closed-form region; used to validate it. An
    angle outside [0, 90] degrees raises ValueError.
    """
    ux, uy = ray_direction(angle_deg)
    config = oracle_config(rho0, rho1, config)

    # Largest scale at which both rates remain valid arrival rates.
    cap = min((config.params.a_max / u for u in (ux, uy) if u > 1e-12),
              default=2.0)
    cap = min(cap, 2.0) - 1e-9

    if _majority_stable(config, (cap * ux, cap * uy)):
        return {"angle_deg": angle_deg, "scale": cap, "lambda0": cap * ux,
                "lambda1": cap * uy, "capped": True}
    lo, hi = 0.0, cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _majority_stable(config, (mid * ux, mid * uy)):
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    return {"angle_deg": angle_deg, "scale": scale, "lambda0": scale * ux,
            "lambda1": scale * uy, "capped": False}


# ---------------------------------------------------------------------------
# Flat key=value config files and output headers.

def parse_floats(text):
    """A comma- or space-separated list of floats."""
    return tuple(float(v) for v in text.replace(",", " ").split())


# Config key -> (NetworkParams or ExperimentConfig field, value parser), in
# header order. arrival_law is derived from a_max, informational only.
_CONFIG_KEYS = {
    "n_relays": ("n_relays", int), "rho": ("rho", parse_floats),
    "lambda": ("lam", parse_floats), "a_max": ("a_max", int),
    "arrival_law": (None, None), "beta": ("beta", float),
    "contention_window": ("contention_window", int), "seed": ("seed", int),
    "activation_gain": ("activation_gain", float),
    "scheduler": ("scheduler", str), "horizon": ("horizon", int),
    "n_seeds": ("n_seeds", int), "decision_mode": ("decision_mode", str),
}
_PARAM_FIELDS = {f.name for f in fields(NetworkParams)}


def config_to_dict(config: ExperimentConfig) -> dict:
    p = config.params
    items = {}
    for key, (name, _) in _CONFIG_KEYS.items():
        if name is None:
            value = "bernoulli" if p.a_max == 1 else "binomial"
        else:
            value = getattr(p if name in _PARAM_FIELDS else config, name)
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        items[key] = value
    return items


def parse_config(text, overrides=None) -> ExperimentConfig:
    """Parse the flat key = value experiment-config format.

    `overrides` maps config keys to value text that replaces the file's; an
    overriding rho brings its own relay count. Absent keys take the
    dataclass defaults, except rho (0.4, 0.7) and lambda (all zeros).
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    overrides = overrides or {}
    if "rho" in overrides:
        raw.pop("n_relays", None)
    raw.update(overrides)
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    values = {}
    for key, value in raw.items():
        name, parse = _CONFIG_KEYS[key]
        if name is not None:
            try:
                values[name] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    rho = values.setdefault("rho", (0.4, 0.7))
    values.setdefault("n_relays", len(rho) - 1)
    values.setdefault("lam", (0.0,) * len(rho))
    params = NetworkParams(**{name: values.pop(name)
                              for name in _PARAM_FIELDS & set(values)})
    return ExperimentConfig(params, **values)


def header_lines(config: ExperimentConfig, comment="#"):
    """Config-and-seed header embedded at the top of every output file."""
    return [f"{comment} {k} = {v}" for k, v in config_to_dict(config).items()]
