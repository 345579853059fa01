"""run_once's block draws against the per-slot reference path.

`reference_run_once` is the per-slot loop run_once used before it drew
channels, arrivals and elections in blocks: every slot calls sample_channels,
run_contention / blind_decision and sample_arrivals. The block engine must
reproduce it exactly, field by field and record by record.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import (IDLE, ExperimentConfig, NetworkParams, QueueState,
                      SlotRecord, apply_slot, run_once)
from relaysim.contention import (blind_decision, elect_block, run_contention,
                                 sampled_decision, sampled_decision_blind)
from relaysim.harness import (BLOCK_SLOTS, MAX_TRAJECTORY_POINTS,
                              MIN_CLASSIFIED_SAMPLES, RunResult,
                              classify_stability)
from relaysim.rng import (RngStream, RunStreams, sample_arrivals,
                          sample_channel_matrix, sample_channels)
from relaysim.scheduling import (ScheduleMemory, mws_step, qcsma_step,
                                 rqcsma_step, ub_step)

SCHEDULERS = ("mws", "rqcsma", "qcsma", "ub")
MODES = ("contention", "sampler")
HORIZONS = (1, 99, BLOCK_SLOTS + 1, 2 * BLOCK_SLOTS + 17)
# Relay channels from always OFF to always ON.
RHO_CYCLE = (0.4, 0.7, 0.0, 0.9, 1.0, 0.2, 0.55, 0.3, 0.8)


def reference_run_once(config, seed):
    """The per-slot loop: one draw per stream per slot, in slot order."""
    params = config.params
    horizon = config.horizon
    scheduler = config.scheduler
    contention_mode = config.decision_mode == "contention"

    streams = RunStreams(seed)
    queues = QueueState.empty(params.n_relays)
    memory = ScheduleMemory()
    prev_x = IDLE
    seen_channels = set()
    stride = max(1, math.ceil(horizon / MAX_TRAJECTORY_POINTS))
    slots, totals, records = [], [], []
    acc = 0

    for t in range(horizon):
        channel = sample_channels(params, streams.channels)
        seen_channels.add(channel)
        if scheduler == "mws":
            x = decision = mws_step(queues, channel, params)
        elif scheduler == "rqcsma":
            if contention_mode:
                decision = run_contention(channel, queues, params,
                                          streams.contention).decision
            else:
                decision = sampled_decision(params, channel,
                                            streams.scheduler)
            x, _ = rqcsma_step(queues, channel, memory, decision, params,
                               streams.scheduler)
        elif scheduler == "qcsma":
            if contention_mode:
                decision = blind_decision(params, streams.contention)
            else:
                decision = sampled_decision_blind(params, streams.scheduler)
            x = qcsma_step(queues, channel, prev_x, decision, params,
                           streams.scheduler)
            prev_x = x
        else:
            x = decision = ub_step(queues, channel, params,
                                   streams.contention)
        x_data = x
        if x is not IDLE and x != 0 and not channel[x]:
            x_data = IDLE
        arrivals = sample_arrivals(params, streams.arrivals)
        queues, tag = apply_slot(queues, x_data, channel, arrivals)
        acc += queues.total()
        if t % stride == 0 or t == horizon - 1:
            slots.append(t)
            totals.append(queues.total())
        if config.trace:
            records.append(SlotRecord(t, channel, decision, x, tag, arrivals,
                                      queues))

    stable, slope = None, None
    if len(slots) >= MIN_CLASSIFIED_SAMPLES:
        stable, slope = classify_stability(slots, totals, sum(params.lam),
                                           horizon)
    return RunResult(seed=seed, q_avg=acc / horizon, slots=tuple(slots),
                     totals=tuple(totals), final_total=totals[-1],
                     stable=stable, slope=slope,
                     memory_entries=len(memory),
                     distinct_channels=len(seen_channels), records=records)


def network(n_relays, a_max, window=32, load=0.8):
    """A network with mixed channels and total offered load `load`·a_max."""
    n = n_relays + 1
    rho = RHO_CYCLE[:n]
    lam = tuple(round(load * a_max * (0.5 if i == 0 else 0.5 / n_relays), 6)
                for i in range(n))
    return NetworkParams(n_relays=n_relays, rho=rho, lam=lam, a_max=a_max,
                         contention_window=window)


@pytest.mark.parametrize("a_max", [1, 3])
@pytest.mark.parametrize("n_relays", [1, 3, 8])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_run_once_equals_per_slot_loop(scheduler, mode, n_relays, a_max):
    cases = [(32, horizon) for horizon in HORIZONS]
    cases.append((1, 2 * BLOCK_SLOTS + 17))  # W=1: ties in every election
    for window, horizon in cases:
        params = network(n_relays, a_max, window)
        config = ExperimentConfig(params=params, scheduler=scheduler,
                                  horizon=horizon, n_seeds=1,
                                  decision_mode=mode, trace=True)
        seed = 1000 * n_relays + 10 * a_max + window
        fast = run_once(config, seed)
        ref = reference_run_once(config, seed)
        label = (window, horizon)
        for name in ("seed", "q_avg", "slots", "totals", "final_total",
                     "stable", "slope", "memory_entries",
                     "distinct_channels"):
            assert getattr(fast, name) == getattr(ref, name), (label, name)
        assert ([r.to_json() for r in fast.records]
                == [r.to_json() for r in ref.records]), label


class TestElectBlock:
    @staticmethod
    def _compare(params, seed, n_slots, channel_aware):
        block_rng = RngStream(seed, "contention")
        single_rng = RngStream(seed, "contention")
        channels = None
        if channel_aware:
            channels = sample_channel_matrix(
                params, RngStream(seed, "channels"), n_slots)
            singles = [run_contention(tuple(row), QueueState.empty(
                params.n_relays), params, single_rng).decision
                for row in channels.tolist()]
        else:
            singles = [blind_decision(params, single_rng)
                       for _ in range(n_slots)]
        block = elect_block(params, block_rng, n_slots, channels)
        assert block == singles
        assert block_rng.position == single_rng.position
        assert block_rng.uniform() == single_rng.uniform()
        return block

    @pytest.mark.parametrize("channel_aware", [True, False])
    def test_ties_under_unit_window(self, channel_aware):
        params = NetworkParams(n_relays=3, rho=(0.5, 0.9, 0.9, 0.9),
                               lam=(0.0,) * 4, contention_window=1)
        block = self._compare(params, 3, 3000, channel_aware)
        # Two backoff values and up to four contenders: collisions abound.
        assert block.count(IDLE) > 1000

    def test_all_relays_off(self):
        params = NetworkParams(n_relays=3, rho=(0.5, 0.0, 0.0, 0.0),
                               lam=(0.0,) * 4, contention_window=1)
        block = self._compare(params, 4, 500, True)
        assert block == [0] * 500  # node 0 contends alone and always wins

    @pytest.mark.parametrize("channel_aware", [True, False])
    def test_eight_relays(self, channel_aware):
        params = NetworkParams(n_relays=8, rho=RHO_CYCLE, lam=(0.0,) * 9)
        block = self._compare(params, 5, 4000, channel_aware)
        winners = set(range(9)) - ({2} if channel_aware else set())
        assert set(block) - {IDLE} == winners  # relay 2 is always OFF

    @pytest.mark.parametrize("n_slots", [0, 1, BLOCK_SLOTS + 1])
    def test_block_lengths(self, n_slots):
        params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0))
        self._compare(params, 6, n_slots, True)
        self._compare(params, 6, n_slots, False)


def is_delivery(tag):
    """A packet left the network (a forward to a relay stays inside)."""
    return tag == "source-direct" or tag.endswith(("-own", "-forwarding"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@settings(max_examples=12, deadline=None)
@given(n_relays=st.integers(1, 3), a_max=st.integers(1, 2),
       load=st.floats(0.0, 1.0),
       horizon=st.one_of(st.integers(1, 2 * BLOCK_SLOTS + 40),
                         st.sampled_from([BLOCK_SLOTS, BLOCK_SLOTS + 1])),
       seed=st.integers(0, 2 ** 32))
def test_conservation(scheduler, mode, n_relays, a_max, load, horizon, seed):
    """Arrivals minus deliveries is the backlog left, at every sample."""
    params = network(n_relays, a_max, load=load)
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=horizon, n_seeds=1, decision_mode=mode,
                              trace=True)
    r = run_once(config, seed)
    arrived = sum(sum(rec.arrivals) for rec in r.records)
    delivered = sum(is_delivery(rec.served_queue) for rec in r.records)
    assert arrived - delivered == r.final_total
    assert len(r.records) == horizon
    for t, total in zip(r.slots, r.totals):
        assert r.records[t].queues_after.total() == total
