"""Lane engine: many seeded runs of one config, advanced in numpy lockstep.

A lane is one run of a shared ExperimentConfig that differs from the others
only in its arrival rates and seed. run_lanes keeps every lane's state in
numpy arrays and steps all lanes one slot at a time, so the per-slot Python
overhead is paid once for L lanes instead of once per run. Each lane draws
from its own RunStreams(seed) exactly the values run_once draws, in the same
order, and repeats run_once's integer and floating-point operations, so its
RunResult equals run_once's field by field (tests/test_lanes.py). sweep_grid
runs its lanes here; run, boundary-oracle and run_seeds stay on run_once,
which is faster for the few lanes they run at a time.

One rule set serves all four schedulers, as in scheduling: every scheduling
rule reads a per-block `rule` channel array, the realized channels for mws
and rqcsma and all-ON for the channel-blind qcsma and ub. Under all-ON,
qcsma's held schedule is rqcsma's memory cell of the all-ON realization.
The realized channels stay in the data plane: whether the source forwards,
and whether a blind schedule holds an OFF relay and wastes the slot.

Per-lane state:

- queues: one int64 row [Q_0, Q_1..Q_N, Q_01..Q_0N, 0, sink]. Reads of an
  Idle slot's queues hit the zero column; writes that change nothing go to
  the sink, which no total includes.
- channels, arrivals and elections: drawn per lane in blocks of BLOCK_SLOTS
  slots (sample_channel_matrix, sample_arrival_matrix, the contention
  stream's uniforms) and stacked to (slots, lanes, nodes).
- scheduler stream: a buffer of each lane's next values and a cursor into
  it; a lane advances its cursor only where run_once would draw.
- activation probabilities: a table of activation_probability(gain * b)
  over integer backlogs b, so every coin compares against the value
  run_once computes.
- channel realizations: a dense (lanes, 2^(N+1)) table indexed by the
  channel bitmask marks the ones a lane has seen and, for the CSMA
  schedulers, holds the carrier-sense memory of each rule channel. Above
  MAX_TABLE_RELAYS relays that table is too large, and run_lanes runs every
  lane through run_once.
- trajectory: one int64 array of shape (samples, lanes).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .contention import contenders, elect_rows
from .harness import (BLOCK_SLOTS, ExperimentConfig, run_once, run_result,
                      sample_slots)
from .rng import RunStreams, sample_arrival_matrix, sample_channel_matrix
from .scheduling import activation_probability

# Largest relay count with a dense per-realization table (2^(N+1) cells).
MAX_TABLE_RELAYS = 10
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
    lanes = [(tuple(lam), seed) for lam, seed in lanes]
    params = config.params
    if params.n_relays > MAX_TABLE_RELAYS:
        for lam, seed in lanes:
            yield run_once(replace(config, trace=False,
                                   params=replace(params, lam=lam)), seed)
        return
    if not lanes:
        return
    lane_params = [replace(params, lam=lam) for lam, _ in lanes]
    slots = sample_slots(config.horizon)
    traj, acc, distinct = _simulate(config, lane_params,
                                    [seed for _, seed in lanes], slots)
    rqcsma = config.scheduler == "rqcsma"
    for k, (p, (_, seed)) in enumerate(zip(lane_params, lanes)):
        yield run_result(seed, p.lam, config.horizon, slots,
                         traj[:, k].tolist(), int(acc[k]),
                         # every rqcsma slot writes its realization's cell
                         distinct[k] if rqcsma else 0, distinct[k], [])


def _simulate(config, lane_params, seeds, slots):
    """Advance every lane through the horizon.

    Returns the (samples, lanes) trajectory at the sampled `slots`, each
    lane's sum of per-slot total backlogs, and each lane's count of distinct
    channel realizations.
    """
    params = config.params
    scheduler = config.scheduler
    horizon = config.horizon
    csma = scheduler in ("rqcsma", "qcsma")
    sampler = csma and config.decision_mode == "sampler"
    blind = scheduler in ("qcsma", "ub")
    window = params.contention_window
    gain = params.activation_gain
    n_lanes = len(seeds)
    n = params.n_nodes
    relays = n - 1
    zero, sink = 2 * relays + 1, 2 * relays + 2
    lane = np.arange(n_lanes)
    streams = [RunStreams(seed) for seed in seeds]

    queues = np.zeros((n_lanes, sink + 1), dtype=np.int64)
    qflat = queues.reshape(-1)
    q_row = lane * queues.shape[1]
    sink_at, q0i_at = q_row + sink, q_row + n
    # Flat queue indices by x_row + x for a schedule x (-1 for Idle): the
    # queue node x serves first and, for a relay, its relayed queue Q_0i.
    # Idle, and the source's alternative, read the zero column.
    x_row = lane * (n + 1) + 1
    own_at = (q_row[:, None] + [zero, *range(n)]).ravel()
    alt_at = (q_row[:, None] + [zero, zero, *range(n, zero)]).ravel()
    is_source = np.tile([False, True] + [False] * relays, n_lanes)

    cells = 1 << n
    seen = np.zeros((n_lanes, cells), dtype=bool)
    weights = 1 << np.arange(n, dtype=np.int64)
    if csma:
        memory = np.full(n_lanes * cells, -1, dtype=np.int64)
        buf = np.zeros((n_lanes, _COIN_BUFFER))
        bflat = buf.reshape(-1)
        b_row = lane * _COIN_BUFFER
        cursor = np.full(n_lanes, _COIN_BUFFER, dtype=np.int64)
        table = activation_table(gain, 1)
        top = 0
    ab = np.zeros((n_lanes, n), dtype=np.int64)
    abflat = ab.reshape(-1)
    ab_row = lane * n

    sample_t = np.array(slots)
    traj = np.empty((len(sample_t), n_lanes), dtype=np.int64)
    acc = np.zeros(n_lanes, dtype=np.int64)
    totals = np.empty((BLOCK_SLOTS, n_lanes), dtype=np.int64)
    filled = 0

    for start in range(0, horizon, BLOCK_SLOTS):
        n_slots = min(BLOCK_SLOTS, horizon - start)
        channels = np.stack([sample_channel_matrix(params, s.channels, n_slots)
                             for s in streams], axis=1)  # (slots, lanes, N+1)
        arrivals = np.stack([sample_arrival_matrix(p, s.arrivals, n_slots)
                             for p, s in zip(lane_params, streams)], axis=1)
        seen[lane, channels @ weights] = True
        rule = np.ones_like(channels) if blind else channels
        c0_off = channels[:, :, 0] == 0
        rule_c0_off = rule[:, :, 0] == 0
        if csma:
            cell_at = rule @ weights + lane * cells
        if scheduler == "mws":
            mws_mask = contenders(rule)
        elif not sampler:
            uniforms = np.stack([s.contention.uniform_matrix(n_slots, n)
                                 for s in streams], axis=1)
            if csma:
                decisions = elect_rows(uniforms, window + 1, contenders(rule))
                decided = decisions >= 0
                decision_at = ab_row + np.maximum(decisions, 0)
        if sampler or blind:
            # Start of each (slot, lane) row of n+1 entries, indexed by
            # x + 1 for a schedule x: [Idle, node 0, relays].
            row = (np.arange(n_slots * n_lanes) * (n + 1)).reshape(
                n_slots, n_lanes)
        if sampler:
            # Options of sampled_decision: Idle, node 0, then the relays ON
            # under the rule channel, in index order.
            on = rule[:, :, 1:] != 0
            options = _schedule_rows(
                np.sort(np.where(on, np.arange(1, n), n), axis=-1))
            n_options = 2 + on.sum(axis=-1)
        if blind:
            # The schedule the data slot serves: a blind schedule holding
            # an OFF relay wastes the slot.
            served_x = _schedule_rows(
                np.where(channels[:, :, 1:] != 0, np.arange(1, n), -1))
        if csma:
            _refill(buf, cursor, streams)
            # An action backlog is at most the total backlog, which grows
            # by at most n * a_max per slot.
            reach = (int(queues[:, :sink].sum(axis=1).max())
                     + n * params.a_max * n_slots)
            if reach > top and table[top] != 1.0:
                table = activation_table(gain, max(2 * top, reach) + 1)
                top = len(table) - 1

        for t in range(n_slots):
            # The relay the source forwards to: the smallest Q_0i, lowest
            # index on ties (relay_target).
            target = q0i_at + queues[:, n:zero].argmin(axis=1)
            # Action backlogs: a relay serves the larger of its queues; the
            # source its own queue when its rule channel is ON, else the
            # differential backlog max(Q_0 - min Q_0i, 0).
            np.maximum(queues[:, 1:n], queues[:, n:zero], out=ab[:, 1:])
            q0 = queues[:, 0]
            ab[:, 0] = q0 - np.minimum(q0, qflat[target]) * rule_c0_off[t]

            if scheduler == "mws":
                masked = ab * mws_mask[t]
                x = np.where(masked.max(axis=1) > 0, masked.argmax(axis=1),
                             -1)
            elif scheduler == "ub":
                x = elect_rows(uniforms[t], window, ab > 0)
            else:
                if sampler:
                    u = bflat[b_row + cursor]
                    cursor += 1
                    m = n_options[t]
                    k = np.minimum((u * m).astype(np.int64), m - 1)
                    d = options[row[t] + k]
                    d_ok, d_at = d >= 0, ab_row + np.maximum(d, 0)
                else:
                    d, d_ok, d_at = decisions[t], decided[t], decision_at[t]
                # _csma_step on the rule channel's memory cell: an Idle
                # decision or a different held node keeps the held
                # schedule; else the decision node draws a coin when its
                # action backlog is positive.
                cell = cell_at[t]
                held = memory[cell]
                need = d_ok & ((held < 0) | (held == d))
                b = abflat[d_at]
                draw = need & (b > 0)
                coin = bflat[b_row + cursor]
                cursor += draw
                win = draw & (coin < table[np.minimum(b, top)])
                x = memory[cell] = np.where(win, d, np.where(need, -1, held))
            if blind:
                x = served_x[row[t] + x + 1]

            # apply_slot: the source serves Q_0 (relaying to the relay with
            # the smallest Q_0i when its channel is OFF); a relay serves the
            # larger of Q_i and Q_0i, Q_i on ties.
            xi = x_row + x
            own, alt = own_at[xi], alt_at[xi]
            q_own = qflat[own]
            served = q_own > 0
            out = np.where(qflat[alt] > q_own, alt,
                           np.where(served, own, sink_at))
            into = np.where(served & is_source[xi] & c0_off[t], target,
                            sink_at)
            qflat[out] -= 1
            qflat[into] += 1
            queues[:, :n] += arrivals[t]
            queues[:, :sink].sum(axis=1, out=totals[t])

        block = totals[:n_slots]
        acc += block.sum(axis=0)
        in_block = sample_t[filled:]
        in_block = in_block[in_block < start + n_slots]
        traj[filled:filled + len(in_block)] = block[in_block - start]
        filled += len(in_block)

    return traj, acc, seen.sum(axis=1).tolist()


def _schedule_rows(relay_entries):
    """Flat (slot, lane) rows [Idle, node 0, relay entries...], the layout
    that `row` indexes."""
    head = np.broadcast_to([-1, 0], relay_entries.shape[:-1] + (2,))
    return np.concatenate((head, relay_entries), axis=-1).reshape(-1)


def _refill(buf, cursor, streams):
    """Top each lane's scheduler-stream buffer up to full: the unread values
    move to the front and the stream's next values fill the rest."""
    size = buf.shape[1]
    for k, s in enumerate(streams):
        used = int(cursor[k])
        buf[k, :size - used] = buf[k, used:]
        buf[k, size - used:] = s.scheduler.uniform_matrix(1, used)[0]
    cursor[:] = 0
