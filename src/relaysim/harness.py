"""Experiment runner and desk-scale reproduction of the stability studies.

A run is a pure function of (config, seed): channels, arrivals, contention
draws, and scheduler coins come from four keyed substreams, so reruns and
parallel sweep workers produce byte-identical results. Stability of a run is
classified from the tail of the total-backlog trajectory.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional

import numpy as np
from scipy import stats as _st

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

    stride = max(1, math.ceil(horizon / MAX_TRAJECTORY_POINTS))
    slots, totals = [], []
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
            acc += queues.total()

            if t % stride == 0 or t == horizon - 1:
                slots.append(t)
                totals.append(queues.total())
            if trace:
                records.append(SlotRecord(t, channel, decision, x, tag,
                                          arrivals, queues))

    total_rate = sum(params.lam)
    if len(slots) >= MIN_CLASSIFIED_SAMPLES:
        stable, slope = classify_stability(slots, totals, total_rate, horizon)
    else:
        stable, slope = None, None  # too short a trajectory to classify

    return RunResult(
        seed=seed,
        q_avg=acc / horizon,
        slots=tuple(slots),
        totals=tuple(totals),
        final_total=totals[-1],
        stable=stable,
        slope=slope,
        memory_entries=len(memory),
        distinct_channels=len(seen_channels),
        records=records,
    )


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


def _sweep_point(args):
    config, lam, index = args
    params = replace(config.params, lam=tuple(lam))
    point_config = replace(config, params=params, trace=False)
    results = run_seeds(point_config)
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


def sweep_grid(config: ExperimentConfig, grid, workers=1):
    """Independent seeded runs per grid point (a list of full rate vectors).

    Points are independent units of parallelism; rows come back in grid
    order whatever the worker count. A point that fails validation is
    reported with an "error" field instead of aborting the sweep.
    """
    tasks = []
    rows = [None] * len(grid)
    for idx, lam in enumerate(grid):
        try:
            replace(config.params, lam=tuple(lam))
        except ValueError as exc:
            rows[idx] = {"index": idx, "lam": tuple(lam), "error": str(exc)}
            continue
        tasks.append((config, tuple(lam), idx))

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for row in pool.map(_sweep_point, tasks, chunksize=4):
                rows[row["index"]] = row
    else:
        for task in tasks:
            row = _sweep_point(task)
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


def boundary_oracle(rho0, rho1, angle_deg, config: ExperimentConfig,
                    resolution=0.01):
    """Empirical boundary point along a ray, by bisection on simulated runs.

    A scale is inside iff the majority of seeds classify stable at horizon
    >= 5e4. Independent of the closed-form region; used to validate it.
    """
    theta = math.radians(angle_deg)
    ux, uy = max(math.cos(theta), 0.0), max(math.sin(theta), 0.0)
    params = replace(config.params, n_relays=1, rho=(rho0, rho1),
                     lam=(0.0, 0.0))
    config = replace(config, params=params,
                     horizon=max(config.horizon, 50_000))

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

_CONFIG_KEYS = ("n_relays", "rho", "lambda", "a_max", "arrival_law", "beta",
                "contention_window", "seed", "activation_gain", "scheduler",
                "horizon", "n_seeds", "decision_mode")


def config_to_dict(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "n_relays": p.n_relays,
        "rho": ", ".join(repr(r) for r in p.rho),
        "lambda": ", ".join(repr(a) for a in p.lam),
        "a_max": p.a_max,
        # derived, informational: the arrival law a_max implies
        "arrival_law": "bernoulli" if p.a_max == 1 else "binomial",
        "beta": p.beta,
        "contention_window": p.contention_window,
        "seed": p.seed,
        "activation_gain": p.activation_gain,
        "scheduler": config.scheduler,
        "horizon": config.horizon,
        "n_seeds": config.n_seeds,
        "decision_mode": config.decision_mode,
    }


def parse_config(text) -> ExperimentConfig:
    """Parse the flat key = value experiment-config format."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def vector(key, default=None):
        if key not in raw:
            return default
        return tuple(float(v) for v in raw[key].replace(",", " ").split())

    raw.pop("arrival_law", None)  # derived from a_max, informational only
    n_relays = int(raw.get("n_relays", 1))
    rho = vector("rho", (0.4, 0.7) if n_relays == 1 else None)
    lam = vector("lambda", (0.0,) * (n_relays + 1))
    params = NetworkParams(
        n_relays=n_relays,
        rho=rho,
        lam=lam,
        a_max=int(raw.get("a_max", 1)),
        beta=float(raw.get("beta", 0.1)),
        contention_window=int(raw.get("contention_window", 32)),
        seed=int(raw.get("seed", 0)),
        activation_gain=float(raw.get("activation_gain", 0.2)),
    )
    return ExperimentConfig(
        params=params,
        scheduler=raw.get("scheduler", "rqcsma"),
        horizon=int(raw.get("horizon", 10_000)),
        n_seeds=int(raw.get("n_seeds", 10)),
        decision_mode=raw.get("decision_mode", "contention"),
    )


def header_lines(config: ExperimentConfig, comment="#"):
    """Config-and-seed header embedded at the top of every output file."""
    items = config_to_dict(config)
    return [f"{comment} {k} = {items[k]}" for k in _CONFIG_KEYS]
