"""Experiment runner and desk-scale reproduction of the stability studies.

A run is a pure function of (config, seed): channels, arrivals, contention
draws, and scheduler coins come from four keyed substreams, so reruns and
parallel sweep workers produce byte-identical results. Stability of a run is
classified from the tail of the total-backlog trajectory.

run_once is the reference engine, used by run_seeds, boundary_oracle and
traced runs. Its per-slot state is one list of ints in QueueState's flat
layout, [Q_0, Q_1..Q_N, Q_01..Q_0N] (a lane's row in the lane engine), which
the scheduling rules and core.apply_slot index as they index a QueueState;
each slot calls its scheduler's step, and the total backlog is the row's
sum. sweep_grid cuts all (grid point x seed) runs once into contiguous
parts of at most MAX_BATCH_LANES lanes, and at least one per worker. Each
part is one lanes.lane_outcomes call, which gives each lane the mean
backlog, final backlog and verdict of the RunResult run_once gives: it
advances mws and rqcsma lanes in numpy lockstep, reading those three from
the lane arrays, and runs the channel-blind baselines' lanes (qcsma, ub)
through run_once, one at a time. The calling process builds every row
from them, so sweep rows do not depend on the worker count and no pool
worker computes an interval or imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .analysis import ray_direction
from .contention import elect_block, sample_option, sampler_options
from .core import (IDLE, NetworkParams, QueueState, SlotRecord, apply_slot,
                   integer)
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
# Most lanes per lanes.lane_outcomes call of a sweep; bounds a call's arrays
# (about 0.2 MB per lane at horizon 1e4: a tracemalloc peak of 5.6 MB at 24
# lanes and 41.5 MB at 217, rqcsma at N=1) at some cost in throughput: the
# cost per lane-slot still falls as lanes are added up to the cap (ROADMAP,
# Baseline, lane engine).
MAX_BATCH_LANES = 256
CI_LEVEL = 0.90  # level of aggregate_ci's two-sided Student-t interval


@dataclass
class ExperimentConfig:
    params: NetworkParams
    scheduler: str = "rqcsma"
    horizon: int = 10_000
    n_seeds: int = 10
    decision_mode: str = "contention"
    trace: bool = False

    def __post_init__(self):
        self.horizon = integer("horizon", self.horizon)
        self.n_seeds = integer("n_seeds", self.n_seeds)
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
    memory_entries: int
    distinct_channels: int
    records: list


def classify_stability(slots, totals, total_rate, horizon):
    """Classify a total-backlog trajectory.

    Least-squares slope over the samples in the final 50% of the horizon;
    stable iff that slope is below STABLE_SLOPE packets/slot and the final
    backlog is below half of the total_rate * horizon packets offered over
    the horizon (vacuous for zero offered load). The fit's slot side is
    built once per horizon for the shared sample_slots(horizon) tuple and
    from `slots` for any other sequence, by the same operations, so both
    give the same bits. Fewer than MIN_CLASSIFIED_SAMPLES slots, or a
    different number of totals than slots, raises ValueError.
    """
    if len(slots) < MIN_CLASSIFIED_SAMPLES:
        raise ValueError(f"trajectory must have at least "
                         f"{MIN_CLASSIFIED_SAMPLES} samples")
    if len(totals) != len(slots):
        raise ValueError(f"got {len(totals)} totals for {len(slots)} "
                         f"sampled slots")
    if (isinstance(horizon, int) and horizon >= 1
            and slots is sample_slots(horizon)):
        tail, xm, denom = _sampled_tail_fit(horizon)
    else:
        tail, xm, denom = _tail_fit(slots, horizon)
    ys = np.asarray(totals, dtype=float)
    y = ys[tail]
    slope = float((xm * (y - y.mean())).sum() / denom) if denom > 0 else 0.0

    stable = slope < STABLE_SLOPE
    if total_rate > 0:
        stable = stable and ys[-1] < 0.5 * horizon * total_rate
    return bool(stable), slope


def _tail_fit(slots, horizon):
    """The slot side of classify_stability's fit: the mask of the samples
    in the final half of the horizon, their centred slots and the sum of
    those squared."""
    xs = np.asarray(slots, dtype=float)
    tail = xs >= horizon / 2.0
    x = xs[tail]
    xm = x - x.mean()
    return tail, xm, (xm * xm).sum()


@cache
def sample_slots(horizon):
    """The slots whose total backlog a run's trajectory records: every
    stride-th slot, at most MAX_TRAJECTORY_POINTS of them, and the last.

    One tuple is built per horizon, and it is the index's only owner: no
    caller passes it on or copies it per run. run_once walks it in place
    with a next-sample cursor, the lane engine takes one array of it per
    call and fills each block's trajectory rows from that block's range,
    run_result and classify_run look it up from the horizon, and every
    result at a horizon holds this tuple. The cache keeps at most
    MAX_TRAJECTORY_POINTS + 1 ints per distinct horizon (about 0.36 MB at
    horizon 1e4 or more)."""
    stride = max(1, math.ceil(horizon / MAX_TRAJECTORY_POINTS))
    slots = range(0, horizon, stride)
    return tuple(slots) if slots[-1] == horizon - 1 else (*slots, horizon - 1)


@cache
def _sampled_tail_fit(horizon):
    """_tail_fit of sample_slots(horizon), built once per horizon and
    shared read-only by every classification at that horizon."""
    fit = _tail_fit(sample_slots(horizon), horizon)
    fit[0].flags.writeable = fit[1].flags.writeable = False
    return fit


def run_result(seed, lam, horizon, totals, acc, memory_entries,
               distinct_channels, records) -> RunResult:
    """A run's RunResult from its trajectory at sample_slots(horizon) and
    its sum of per-slot total backlogs; a trajectory of fewer than
    MIN_CLASSIFIED_SAMPLES samples is left unclassified. `totals` is a list
    of ints or, from the lane engine, an int64 array, which is classified
    as it is; the result holds it as a tuple of ints either way, and holds
    the shared index itself as `slots`, not a copy."""
    stable, slope = classify_run(totals, lam, horizon)
    if isinstance(totals, np.ndarray):
        totals = totals.tolist()
    return RunResult(
        seed=seed,
        q_avg=acc / horizon,
        slots=sample_slots(horizon),
        totals=tuple(totals),
        final_total=totals[-1],
        stable=stable,
        slope=slope,
        memory_entries=memory_entries,
        distinct_channels=distinct_channels,
        records=records,
    )


def classify_run(totals, lam, horizon):
    """classify_stability's (stable, slope) of a run at rates `lam` from its
    totals at sample_slots(horizon), or (None, None) when that index has
    fewer than MIN_CLASSIFIED_SAMPLES samples."""
    slots = sample_slots(horizon)
    if len(slots) < MIN_CLASSIFIED_SAMPLES:
        return None, None
    return classify_stability(slots, totals, sum(lam), horizon)


def _int_rows(block):
    """The rows of a 2-D integer array as tuples of Python ints."""
    return list(zip(*block.T.tolist()))


def run_once(config: ExperimentConfig, seed, *, sink=None) -> RunResult:
    """Execute one seeded run of `horizon` slots.

    With config.trace the run makes one SlotRecord per slot and passes it
    to `sink` as the loop makes it. The default sink appends it to the
    result's `records`; with any other sink the run holds no record and
    `records` stays empty. An untraced run makes no record, so a sink
    without config.trace raises ValueError.

    Channels, arrivals and the CSMA backoff elections do not depend on the
    queues, so they are drawn BLOCK_SLOTS slots at a time; the per-slot loop
    keeps only the queue-dependent work. Each of those streams serves a fixed
    number of uniforms per slot (see rng), which makes a block draw equal to
    the same slots drawn one by one.

    A block's decision schedules are Idle for mws and ub, which decide by
    their own rule, and the backoff elections drawn as one block for rqcsma
    and qcsma in contention mode. In sampler mode each slot's decision is
    drawn when the loop reaches the slot, before that slot's activation
    coin, from a per-block table of the options of each rule channel: the
    realized channel for rqcsma, params.all_on for qcsma. Each slot then
    calls its scheduler's step.

    The queues are one list of ints, [Q_0, Q_1..Q_N, Q_01..Q_0N], which the
    scheduling step and apply_slot index as they index a QueueState. The
    total backlog is the row's sum after each slot. A QueueState is built
    only for slot records.
    """
    params = config.params
    horizon = config.horizon
    trace = config.trace
    if sink is not None and not trace:
        raise ValueError("a sink needs config.trace: an untraced run makes "
                         "no slot records")
    scheduler = config.scheduler
    aware = scheduler == "rqcsma"

    streams = RunStreams(seed)
    backoffs, coins = streams.contention, streams.scheduler
    memory = {}  # rqcsma: channel realization -> schedule of its last slot
    held = IDLE  # qcsma: the schedule of the previous slot
    seen_channels = set()

    # The next sampled slot, read from the shared index in place.
    samples = iter(sample_slots(horizon))
    due = next(samples)
    totals = []
    records = []
    if sink is None:
        sink = records.append
    row = [0] * (2 * params.n_relays + 1)
    acc = 0

    for start in range(0, horizon, BLOCK_SLOTS):
        n_slots = min(BLOCK_SLOTS, horizon - start)
        channel_block = sample_channel_matrix(params, streams.channels,
                                              n_slots)
        channels = _int_rows(channel_block)
        arrivals_block = _int_rows(sample_arrival_matrix(
            params, streams.arrivals, n_slots))
        seen_channels.update(channels)
        if scheduler in ("mws", "ub"):
            decisions = repeat(IDLE)
        elif config.decision_mode == "contention":
            decisions = elect_block(params, backoffs, n_slots,
                                    channel_block if aware else None)
        else:
            rules = channels if aware else [params.all_on] * n_slots
            table = {c: sampler_options(c) for c in set(rules)}
            decisions = (sample_option(table[c], coins) for c in rules)

        for t, channel, arrivals, decision in zip(
                range(start, start + n_slots), channels, arrivals_block,
                decisions):
            if scheduler == "mws":
                x = decision = mws_step(row, channel, params)
            elif aware:
                x = rqcsma_step(row, channel, memory, decision, params, coins)
            elif scheduler == "qcsma":
                x = held = qcsma_step(row, channel, held, decision, params,
                                      coins)
            else:
                x = decision = ub_step(row, channel, params, backoffs)
            # Data plane: a blind scheduler holding an OFF relay wastes the
            # slot.
            x_data = x
            if x is not IDLE and x != 0 and not channel[x]:
                x_data = IDLE

            row, tag = apply_slot(row, x_data, channel, arrivals)
            total = sum(row)
            acc += total
            if t == due:
                totals.append(total)
                due = next(samples, horizon)
            if trace:
                sink(SlotRecord(t, channel, decision, x, tag, arrivals,
                                QueueState.from_row(row)))

    return run_result(seed, params.lam, horizon, totals, acc, len(memory),
                      len(seen_channels), records)


def run_seeds(config: ExperimentConfig, *, sink=None):
    """Run the configured number of seeds: base seed + k for k < n_seeds.

    With config.trace only the first run makes slot records (a trace is one
    sample path; every seed's would cost seeds x horizon records), and they
    go to `sink` as run_once makes them; without a sink they are kept in
    the first result's `records`. As in run_once, a sink without
    config.trace raises ValueError.
    """
    untraced = replace(config, trace=False)
    first = run_once(config, config.params.seed, sink=sink)
    return [first] + [run_once(untraced, config.params.seed + k)
                      for k in range(1, config.n_seeds)]


@cache
def _t_quantile(n):
    """aggregate_ci's Student-t quantile for n values (n - 1 degrees of
    freedom). scipy.special is imported here, on the first call, because it
    takes most of relaysim's start-up and only intervals need it."""
    from scipy.special import stdtrit
    return float(stdtrit(n - 1, 0.5 + CI_LEVEL / 2.0))


def aggregate_ci(values):
    """Student-t confidence interval on per-seed values: (mean, half-width).

    The level is fixed at CI_LEVEL, 90%. The quantile is scipy.special's
    stdtrit, which scipy.stats.t.ppf calls; scipy.special is imported on the
    first call and the quantile is cached per seed count.
    """
    values = list(values)
    n = len(values)
    if n < 2:
        raise ValueError("need at least two values for an interval")
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1))
    return mean, _t_quantile(n) * sd / math.sqrt(n)


def stable_fraction(results):
    """Share of the classified runs that are stable; None if none is."""
    verdicts = [r.stable for r in results if r.stable is not None]
    return sum(verdicts) / len(verdicts) if verdicts else None


def _sweep_row(index, lam, results):
    """One sweep row from a point's per-seed results, in seed order."""
    q_avgs = [r.q_avg for r in results]
    return {
        "index": index,
        "lam": tuple(lam),
        "mean_q_avg": float(np.mean(q_avgs)),
        "mean_final": float(np.mean([r.final_total for r in results])),
        "stable_fraction": stable_fraction(results),
        "ci_half": aggregate_ci(q_avgs)[1] if len(results) >= 2 else 0.0,
    }


def _even_split(items, n_parts):
    """`items` cut into n_parts contiguous slices, in order, whose lengths
    differ by at most one."""
    bounds = [len(items) * k // n_parts for k in range(n_parts + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def sweep_grid(config: ExperimentConfig, grid, workers=1):
    """Independent seeded runs per grid point (a list of full rate vectors).

    Every (point, seed) run of the valid points is one lane, listed in grid
    and seed order. The lanes are cut once into contiguous parts, at least
    `workers` and at most MAX_BATCH_LANES lanes each but never more parts
    than lanes, and each part is one lanes.lane_outcomes call, in a pool of
    up to `workers` processes when there are two or more. The parts return
    only what a row reads of each run, and the rows are built here in grid
    order, so each run equals run_once and the rows are identical for every
    worker count. A point that fails validation is reported with an
    "error" field instead of aborting the sweep.
    """
    from .lanes import lane_outcomes  # lanes builds on this module

    seeds = [config.params.seed + k for k in range(config.n_seeds)]
    errors = {}
    lanes = []
    for idx, lam in enumerate(grid):
        try:
            replace(config.params, lam=tuple(lam))
        except ValueError as exc:
            errors[idx] = str(exc)
            continue
        lanes += [(tuple(lam), seed) for seed in seeds]

    # one empty part when no point is valid
    n_parts = max(1, min(len(lanes),
                         max(workers, -(-len(lanes) // MAX_BATCH_LANES))))
    parts = _even_split(lanes, n_parts)
    n_procs = min(workers, n_parts)
    if n_procs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_procs) as pool:
            parts = list(pool.map(lane_outcomes, repeat(config), parts))
    else:
        parts = map(lane_outcomes, repeat(config), parts)
    outcomes = chain.from_iterable(parts)
    return [{"index": idx, "lam": tuple(lam), "error": errors[idx]}
            if idx in errors else
            _sweep_row(idx, lam, [next(outcomes) for _ in seeds])
            for idx, lam in enumerate(grid)]


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
    """Whether most of the n_seeds seeds classify stable at rates `lam`.

    The probe stops once its majority is decided. The first n // 2 + 1
    seeds run as one run_seeds call; while the verdict is still open, the
    next seed runs alone, in seed order. So a probe runs between n // 2 + 1
    and n seeds, always the first ones, and gives the verdict of all n.
    """
    params = replace(config.params, lam=tuple(lam))
    config = replace(config, params=params, trace=False)
    n = config.n_seeds
    ran = n // 2 + 1
    stable = sum(r.stable for r in run_seeds(replace(config, n_seeds=ran)))
    while stable <= n / 2 and ran - stable < n / 2:
        stable += run_once(config, params.seed + ran).stable
        ran += 1
    return stable > n / 2


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
    angle outside [0, 90] degrees, or a resolution that is not a positive
    finite number, raises ValueError.
    """
    if not 0.0 < resolution < math.inf:  # NaN fails both comparisons
        raise ValueError(f"resolution must be a positive finite number, "
                         f"got {resolution:g}")
    ux, uy = ray_direction(angle_deg)
    config = oracle_config(rho0, rho1, config)

    # Largest scale at which both rates remain valid arrival rates.
    cap = min(config.params.a_max / max(ux, uy), 2.0) - 1e-9

    # A stable cap leaves no interval to bisect: the scale is the cap.
    capped = _majority_stable(config, (cap * ux, cap * uy))
    lo, hi = (cap if capped else 0.0), cap
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if _majority_stable(config, (mid * ux, mid * uy)):
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    return {"angle_deg": angle_deg, "scale": scale, "lambda0": scale * ux,
            "lambda1": scale * uy, "capped": capped}


# ---------------------------------------------------------------------------
# Flat key=value config files and output headers.

def parse_floats(text):
    """A comma- or space-separated list of at least one float. No entry may
    be empty: a leading, trailing or doubled comma is rejected."""
    entries = [entry.split() for entry in text.split(",")]
    if not any(entries):
        raise ValueError(f"expected a list of numbers, got {text!r}")
    if not all(entries):
        raise ValueError(f"empty entry in the list {text!r}")
    return tuple(float(v) for entry in entries for v in entry)


# Config key -> (NetworkParams or ExperimentConfig field, value parser), in
# header order. arrival_law has no field: a_max implies it (see arrival_law).
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


def arrival_law(a_max):
    """The per-node arrival law a_max implies: one Bernoulli packet per slot
    for a_max = 1, binomial for a_max > 1."""
    return "bernoulli" if a_max == 1 else "binomial"


def config_to_dict(config: ExperimentConfig) -> dict:
    p = config.params
    items = {}
    for key, (name, _) in _CONFIG_KEYS.items():
        if name is None:
            value = arrival_law(p.a_max)
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
    dataclass defaults, except rho (0.4, 0.7) and lambda (all zeros). A
    given arrival_law must be the one a_max implies.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"line {lineno}: {key} is given twice")
        raw[key] = value.strip()
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
    implied = arrival_law(params.a_max)
    if raw.get("arrival_law", implied) != implied:
        raise ValueError(f"arrival_law: a_max = {params.a_max} gives "
                         f"{implied}, got {raw['arrival_law']!r}")
    return ExperimentConfig(params, **values)


def header_lines(config: ExperimentConfig):
    """Config-and-seed header embedded at the top of every output file."""
    return [f"# {k} = {v}" for k, v in config_to_dict(config).items()]
