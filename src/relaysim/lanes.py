"""Lane engine: many seeded runs of one config, advanced in numpy lockstep.

A lane is one run of a shared ExperimentConfig that differs from the others
only in its arrival rates and seed. run_lanes keeps every lane's state in
numpy arrays and steps all lanes one slot at a time, so the per-slot Python
overhead is paid once for L lanes instead of once per run. Each lane reads
exactly the values run_once draws from RunStreams(seed), in the same order,
and repeats run_once's integer and floating-point operations, so its
RunResult equals run_once's field by field (tests/test_lanes.py). The
channel, arrival and contention streams serve a fixed count per slot (see
rng), so every lane with one seed would draw the same values from them:
each distinct seed draws them once per block, and its lanes share them (a
sweep part of L lanes over n_seeds seeds has about L / n_seeds lanes per
seed). Each lane keeps its own scheduler stream, whose use depends on the
lane's queues. sweep_grid runs its lanes here, through lane_outcomes,
which reads each lane's mean backlog, final backlog and verdict from the
engine's arrays without building a RunResult; run, boundary-oracle and
run_seeds stay on run_once, which is faster for the few lanes they run at
a time.

The engine runs the two schedulers the paper compares, mws (the centralized
optimum) and rqcsma (the distributed scheme), under the realized channels.
run_lanes runs every lane of the channel-blind baselines qcsma and ub
through run_once, where their rules already live (the all-ON rule channel,
ub's backoff election over the backlogged nodes and the OFF-relay waste of
a blind schedule), as it does above MAX_TABLE_RELAYS relays.

Per-lane state (the queues and action backlogs have one row per queue or
node and one column per lane, so that each row's lanes are contiguous):

- queues: one int64 row per queue [Q_0, Q_1..Q_N, Q_01..Q_0N, 0, sink].
  Reads of an Idle slot's queues hit the zero row; writes that change
  nothing go to the sink, which no total includes. Each slot's departure
  and forward are recorded as flat indices, from which a block's per-slot
  total backlogs are summed after its last slot.
- schedules: a lane's schedule x is held as one flat index per lane, which
  reads what x serves and its action backlog from tables.
- channels, arrivals and elections: drawn per distinct seed in blocks of
  BLOCK_SLOTS slots (sample_channel_matrix, the arrival and contention
  streams' uniforms) and stacked with a seed axis. What follows from them
  alone (contenders, elections, memory-cell indices, sampler options) is
  computed per seed, then expanded to a lane axis by one gather; a lane's
  arrivals compare its seed's uniforms with the lane's own per-node
  thresholds in one array operation.
- scheduler stream: a buffer of each lane's next values and a cursor into
  it; a lane advances its cursor only where run_once would draw.
- activation probabilities: a table of activation_probability(gain * b)
  over integer backlogs b, so every coin compares against the value
  run_once computes.
- channel realizations: dense tables of 2^(N+1) cells indexed by the
  channel bitmask mark the ones each seed has seen (one row per seed) and,
  for rqcsma, hold each lane's carrier-sense memory of each realization.
  Above MAX_TABLE_RELAYS relays that table is too large.
- trajectory: one int64 array of shape (samples, lanes), one row per slot
  of harness.sample_slots(horizon); each block fills the rows of its own
  range of that shared index, and each lane's column is classified as it
  is (harness.run_result, which looks the index up from the horizon).

At a few dozen lanes a slot's cost is mostly numpy's fixed cost per call,
so the slot loop makes few calls, each on whole per-lane arrays. Every
ufunc operand is an array, never a Python scalar: with numpy 2.4 on 24
lanes, `b > 0` takes about 0.85 us and `b > zeros` 0.43 us (timeit, 2-vCPU
Xeon), since a scalar operand is converted and its loop resolved on every
call. Likewise selections are np.copyto(where=) rather than nested
np.where, lookups are single gathers, and views are taken once, outside
the loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np

from .contention import contenders, elect_rows
from .core import integer
from .harness import (BLOCK_SLOTS, ExperimentConfig, classify_run, run_once,
                      run_result, sample_slots)
from .rng import RngStream, RunStreams, sample_channel_matrix
from .scheduling import activation_probability

# Largest relay count with a dense per-realization table (2^(N+1) cells).
MAX_TABLE_RELAYS = 10
# The schedulers the engine runs; run_lanes runs the others through run_once.
LANE_SCHEDULERS = ("mws", "rqcsma")
# Scheduler-stream values a lane can take per slot: a sampler-mode decision
# uniform plus an activation coin.
_COIN_BUFFER = 2 * BLOCK_SLOTS + 1


def activation_table(gain, size):
    """activation_probability(gain * b) for b = 0 .. size-1, cut after the
    first value that is exactly 1.0 (every larger backlog also gives 1.0)."""
    values = []
    for b in range(size):
        values.append(activation_probability(gain * b))
        if values[-1] == 1.0:
            break
    return np.array(values)


def run_lanes(config: ExperimentConfig, lanes):
    """Run each (lam, seed) lane of `config`; yield RunResults in lane order.

    Lane k equals run_once(config with params.lam = lam_k, seed_k), without
    slot records. All lanes are simulated before the first result is
    yielded; results are built one at a time, so a caller that aggregates
    and drops them holds one lane's trajectory tuple at a time.
    """
    lanes = _lane_list(lanes)
    if not _on_engine(config):
        for lam, seed in lanes:
            yield run_once(replace(config, trace=False,
                                   params=replace(config.params, lam=lam)),
                           seed)
        return
    if not lanes:
        return
    lane_params, traj, acc, distinct = _simulate(config, lanes)
    rqcsma = config.scheduler == "rqcsma"
    for k, (p, (_, seed)) in enumerate(zip(lane_params, lanes)):
        yield run_result(seed, p.lam, config.horizon, traj[:, k], int(acc[k]),
                         # every rqcsma slot writes its realization's cell
                         distinct[k] if rqcsma else 0, distinct[k], [])


class LaneOutcome(NamedTuple):
    """What a sweep row reads of one lane's RunResult."""
    q_avg: float
    final_total: int
    stable: Optional[bool]


def lane_outcomes(config: ExperimentConfig, lanes) -> list:
    """The LaneOutcome of each lane's RunResult from run_lanes(config,
    lanes), in lane order; one sweep part (harness.sweep_grid).

    The lane engine's lanes are read straight from its arrays, as
    run_result reads them, so no lane's trajectory is turned into a tuple
    of ints; the other lanes come from run_lanes.
    """
    lanes = _lane_list(lanes)
    if not lanes or not _on_engine(config):
        return [LaneOutcome(r.q_avg, r.final_total, r.stable)
                for r in run_lanes(config, lanes)]
    lane_params, traj, acc, _ = _simulate(config, lanes)
    horizon = config.horizon
    return [LaneOutcome(int(acc[k]) / horizon, int(traj[-1, k]),
                        classify_run(traj[:, k], p.lam, horizon)[0])
            for k, p in enumerate(lane_params)]


def _lane_list(lanes):
    """`lanes` as a list of (rate tuple, integer seed) pairs."""
    return [(tuple(lam), integer("seed", seed)) for lam, seed in lanes]


def _on_engine(config):
    """Whether the lane engine runs `config`'s lanes (else run_once)."""
    return (config.scheduler in LANE_SCHEDULERS
            and config.params.n_relays <= MAX_TABLE_RELAYS)


def _simulate(config, lanes):
    """Advance every (lam, seed) lane through the horizon.

    Returns each lane's NetworkParams, the (samples, lanes) trajectory at
    the slots of sample_slots(horizon), each lane's sum of per-slot total
    backlogs, and each lane's count of distinct channel realizations.
    Callers read the index itself from sample_slots(horizon).
    """
    params = config.params
    lane_params = [replace(params, lam=lam) for lam, _ in lanes]
    seeds = [seed for _, seed in lanes]
    horizon = config.horizon
    rqcsma = config.scheduler == "rqcsma"  # else mws
    sampler = rqcsma and config.decision_mode == "sampler"
    window = params.contention_window
    gain = params.activation_gain
    n_lanes = len(seeds)
    n = params.n_nodes
    m = params.a_max
    relays = n - 1
    zero, sink = 2 * relays + 1, 2 * relays + 2
    lane = np.arange(n_lanes)
    # Lanes share their seed's channel, arrival and contention draws: each
    # distinct seed draws them once per block, along a seed axis whose row
    # lane_seed[k] is lane k's.
    seed_index = {}
    lane_seed = np.array([seed_index.setdefault(seed, len(seed_index))
                          for seed in seeds])
    streams = [RunStreams(seed) for seed in seed_index]
    seed_rows = np.arange(len(streams))

    def per_lane(a, axis):
        """A per-seed array expanded to one entry per lane along `axis`."""
        return a.take(lane_seed, axis=axis)

    # Lane k's arrival thresholds, a_max per node, as sample_arrival_matrix
    # compares them; one column per lane.
    thresholds = np.stack([np.repeat([a / m for a in p.lam], m)
                           for p in lane_params], axis=1)
    # Per-lane constants, the operands of the slot loop's ufuncs.
    zeros = np.zeros(n_lanes, dtype=np.int64)
    ones = np.ones(n_lanes, dtype=np.int64)
    width = np.full(n_lanes, n_lanes)

    queues = np.zeros((sink + 1, n_lanes), dtype=np.int64)
    qflat = queues.reshape(-1)
    q0, q_nodes = queues[0], queues[:n]
    q_relay, q_relayed = queues[1:n], queues[n:zero]
    sink_at = sink * n_lanes + lane
    # The flat index of a lane's Q_0i, by lane * N + i - 1.
    relay_row = lane * relays
    relayed_at = (np.arange(n, zero) * n_lanes + lane[:, None]).ravel()
    # With one relay the source always forwards to its Q_01.
    target = relayed_at

    def index(x, lanes=lane):
        """The flat index (x + 1) * n_lanes + lane that holds a lane's
        schedule x (-1 for Idle); it reads the tables below: the queue
        node x serves first and, for a relay, its relayed queue Q_0i
        (Idle, and the source's alternative, read the zero row), and its
        action backlog (Idle's row stays 0)."""
        at = np.add(x, 1)
        at *= n_lanes
        at += lanes
        return at

    own_at = (np.array([zero, *range(n)])[:, None] * n_lanes + lane).ravel()
    alt_at = (np.array([zero, zero, *range(n, zero)])[:, None] * n_lanes
              + lane).ravel()
    ab = np.zeros((n + 1, n_lanes), dtype=np.int64)
    abflat = ab.reshape(-1)
    ab0, ab_nodes, ab_relay = ab[1], ab[1:], ab[2:]
    idle = index(-1)
    # Each slot's queue moves by flat index: [a served packet leaves,
    # a forwarded one arrives], the sink where none does.
    moves = np.empty((BLOCK_SLOTS, 2, n_lanes), dtype=np.int64)
    step = np.stack((-ones, ones))

    cells = 1 << n
    seen = np.zeros((len(streams), cells), dtype=bool)
    weights = 1 << np.arange(n, dtype=np.int64)
    if rqcsma:
        # The scheduler stream is each lane's own: how many values it
        # takes depends on the lane's queues.
        coins = [RngStream(seed, "scheduler") for seed in seeds]
        memory = np.repeat(idle, cells)
        buf = np.zeros((n_lanes, _COIN_BUFFER))
        bflat = buf.reshape(-1)
        b_row = lane * _COIN_BUFFER
        # Flat index of each lane's next scheduler-stream value.
        at = b_row + _COIN_BUFFER
        table = activation_table(gain, 1)
    else:
        masked = np.zeros_like(ab)  # Idle's row stays 0
        masked_nodes = masked[1:]

    sample_t = np.array(sample_slots(horizon))
    traj = np.empty((len(sample_t), n_lanes), dtype=np.int64)
    acc = np.zeros(n_lanes, dtype=np.int64)
    total = zeros
    add, copyto, maximum, minimum, multiply, subtract = (
        np.add, np.copyto, np.maximum, np.minimum, np.multiply, np.subtract)

    for start in range(0, horizon, BLOCK_SLOTS):
        n_slots = min(BLOCK_SLOTS, horizon - start)
        # The block's draws, and what follows from the channels alone, are
        # per seed; each is expanded to lanes by one gather.
        channels = np.stack([sample_channel_matrix(params, s.channels, n_slots)
                             for s in streams], axis=1)  # (slots, seeds, N+1)
        arrived = per_lane(np.stack(
            [s.arrivals.uniform_matrix(n_slots, n * m) for s in streams],
            axis=2), 2) < thresholds  # (slots, (N+1) * a_max, lanes)
        arrivals = arrived.reshape(n_slots, n, m, n_lanes).sum(
            axis=2, dtype=np.int64)
        realization = channels @ weights  # (slots, seeds)
        seen[seed_rows, realization] = True
        if not rqcsma:
            mws_mask = per_lane(contenders(channels).transpose(
                0, 2, 1).astype(np.int64), 2)
        elif not sampler:
            decision_at = index(per_lane(elect_rows(np.stack(
                [s.contention.uniform_matrix(n_slots, n) for s in streams],
                axis=1), window + 1, contenders(channels)), 1))
        c0_off = per_lane((channels[:, :, 0] == 0).astype(np.int64), 1)
        # The source forwards what it serves from Q_0 (flat index `lane`)
        # only when its channel is OFF.
        forward_from = np.where(c0_off == 1, lane, -1)
        moves[:n_slots] = sink_at
        if rqcsma:
            cell_at = per_lane(realization, 1) + lane * cells
        if sampler:
            # Options of sampled_decision: Idle, node 0, then the ON relays,
            # in index order; option k of (slot, lane) row r at
            # options[r * (n + 1) + k].
            on = channels[:, :, 1:] != 0
            relays_on = np.sort(np.where(on, np.arange(1, n), n), axis=-1)
            head = np.broadcast_to([-1, 0], relays_on.shape[:-1] + (2,))
            options = index(per_lane(np.concatenate(
                (head, relays_on), axis=-1), 1), lane[:, None]).reshape(-1)
            row = (np.arange(n_slots * n_lanes) * (n + 1)).reshape(
                n_slots, n_lanes)
            last_option = per_lane(on.sum(axis=-1) + 1, 1)
            option_scale = (last_option + 1).astype(float)
        if rqcsma:
            _refill(buf, at - b_row, coins)
            at = b_row.copy()
            # An action backlog is at most the total backlog, which grows
            # by at most n * a_max per slot.
            reach = int(total.max()) + n * m * n_slots
            top = len(table) - 1
            if reach > top and table[top] != 1.0:
                table = activation_table(gain, max(2 * top, reach) + 1)

        for t in range(n_slots):
            if relays > 1:
                # The relay the source forwards to: the smallest Q_0i,
                # lowest index on ties (relay_target).
                target = relayed_at[q_relayed.argmin(axis=0) + relay_row]
            # Action backlogs: a relay serves the larger of its queues; the
            # source its own queue when its channel is ON, else the
            # differential backlog max(Q_0 - min Q_0i, 0).
            maximum(q_relay, q_relayed, out=ab_relay)
            q_target = qflat[target]
            multiply(q_target, c0_off[t], out=q_target)
            subtract(q0, q_target, out=q_target)
            maximum(q_target, zeros, out=ab0)

            if not rqcsma:
                # mws: the first largest masked backlog; Idle (row 0) when
                # every one is 0.
                multiply(ab_nodes, mws_mask[t], out=masked_nodes)
                x = masked.argmax(axis=0)
                multiply(x, width, out=x)
                add(x, idle, out=x)
            else:
                if sampler:
                    u = bflat[at]
                    at += ones
                    multiply(u, option_scale[t], out=u)
                    k = u.astype(np.int64)
                    minimum(k, last_option[t], out=k)
                    add(k, row[t], out=k)
                    d = options[k]
                else:
                    d = decision_at[t]
                # _csma_step on the realization's memory cell: an Idle
                # decision or a different held node keeps the held
                # schedule; else the decision node draws a coin when its
                # action backlog (0 for Idle) is positive.
                cell = cell_at[t]
                x = memory[cell]
                need = (x == d) | (x == idle)
                b = abflat[d]
                draw = need & (b > zeros)
                coin = bflat[at]
                at += draw
                win = draw & (coin < table.take(b, mode="clip"))
                copyto(x, idle, where=need)
                copyto(x, d, where=win)
                memory[cell] = x

            # apply_slot: the source serves Q_0 (relaying to the relay with
            # the smallest Q_0i when its channel is OFF); a relay serves the
            # larger of Q_i and Q_0i, Q_i on ties.
            own, alt = own_at[x], alt_at[x]
            q_own = qflat[own]
            serves = q_own > zeros
            move = moves[t]
            out, into = move[0], move[1]
            copyto(out, own, where=serves)
            copyto(out, alt, where=qflat[alt] > q_own)
            copyto(into, target, where=out == forward_from[t])
            qflat[move] += step
            q_nodes += arrivals[t]

        # Each slot's total backlog: the arrivals, less a packet that
        # leaves, plus one forwarded to a relay (it left Q_0). The moves'
        # rows turn into these counts in place, then into the totals.
        block, forwarded = moves[:n_slots, 0], moves[:n_slots, 1]
        np.not_equal(block, sink_at, out=block)
        np.not_equal(forwarded, sink_at, out=forwarded)
        np.subtract(forwarded, block, out=block)
        block += np.sum(arrivals, axis=1, out=forwarded)
        np.cumsum(block, axis=0, out=block)
        block += total
        total = block[-1].copy()
        acc += block.sum(axis=0)
        lo, hi = sample_t.searchsorted((start, start + n_slots))
        traj[lo:hi] = block[sample_t[lo:hi] - start]
        # This block's arrays go before the next block draws its own.
        channels = realization = arrived = arrivals = None
        c0_off = forward_from = None
        cell_at = mws_mask = decision_at = None
        on = options = row = option_scale = last_option = None

    return lane_params, traj, acc, per_lane(seen.sum(axis=1), 0).tolist()


def _refill(buf, used, coins):
    """Top each lane's scheduler-stream buffer up to full: the `used` values
    at the front of each row go, the unread ones move to the front and the
    lane's stream in `coins` fills the rest."""
    size = buf.shape[1]
    for k, s in enumerate(coins):
        n_used = int(used[k])
        buf[k, :size - n_used] = buf[k, n_used:]
        buf[k, size - n_used:] = s.uniform_matrix(1, n_used)[0]
