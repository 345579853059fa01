"""The merged rules against the separate implementations they replaced.

Every channel-blind path is its channel-aware rule under an all-ON channel,
and every backoff election runs through contention.elect. Each must equal
the old code in tests/legacy_rules.py decision for decision and leave its
stream at the same position; mws must pick what the old log(1 + beta*x)
weight argmax picked.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_rules as legacy
from relaysim import IDLE, NetworkParams, QueueState
from relaysim.contention import (blind_decision, elect_block, run_contention,
                                 sampled_decision)
from relaysim.rng import RngStream, sample_channels
from relaysim.scheduling import mws_step, qcsma_step, rqcsma_step, ub_step

# Small backlogs make ties and zero backlogs common; large ones reach 10^6.
BACKLOGS = st.one_of(st.integers(0, 4), st.integers(0, 10 ** 6))
SEEDS = st.integers(0, 2 ** 32)


def network(n_relays, window=32, beta=0.1):
    n = n_relays + 1
    rho = tuple(0.2 + 0.6 * i / n for i in range(n))
    return NetworkParams(n_relays=n_relays, rho=rho, lam=(0.0,) * n,
                         contention_window=window, beta=beta)


@st.composite
def slot_states(draw, n_relays):
    """A queue state and a channel vector of a network with n_relays."""
    queues = QueueState(draw(BACKLOGS),
                        tuple(draw(BACKLOGS) for _ in range(n_relays)),
                        tuple(draw(BACKLOGS) for _ in range(n_relays)))
    channel = tuple(draw(st.integers(0, 1)) for _ in range(n_relays + 1))
    return queues, channel


def streams(seed, stream_id, copies=2):
    return [RngStream(seed, stream_id) for _ in range(copies)]


def assert_same_position(*rngs):
    assert len({rng.position for rng in rngs}) == 1
    assert len({rng.uniform() for rng in rngs}) == 1


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n_relays=st.integers(1, 3),
       beta=st.sampled_from((1e-3, 0.1, 5.0)))
def test_mws_equals_log_weight_argmax(data, n_relays, beta):
    params = network(n_relays, beta=beta)
    queues, channel = data.draw(slot_states(n_relays))
    assert (mws_step(queues, channel, params)
            == legacy.mws_step(queues, channel, params))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)),
       window=st.integers(1, 40))
def test_blind_decision_is_the_all_on_contention(seed, n_relays, window):
    params = network(n_relays, window)
    new, old, aware = streams(seed, "contention", 3)
    on, empty = params.all_on, QueueState.empty(n_relays)
    decisions = [blind_decision(params, new) for _ in range(200)]
    assert decisions == [legacy.blind_decision(params, old)
                         for _ in range(200)]
    assert decisions == [run_contention(on, empty, params, aware).decision
                         for _ in range(200)]
    assert_same_position(new, old, aware)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)),
       window=st.integers(1, 40))
def test_run_contention_equals_old_election(seed, n_relays, window):
    params = network(n_relays, window)
    new, old = streams(seed, "contention")
    ch_rng = RngStream(seed, "channels")
    empty = QueueState.empty(n_relays)
    for _ in range(200):
        channel = sample_channels(params, ch_rng)
        outcome = run_contention(channel, empty, params, new)
        assert outcome.decision == legacy.run_contention_decision(
            channel, params, old)
        assert outcome.collision == (outcome.decision is IDLE)
    assert_same_position(new, old)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)))
def test_sampled_decision_under_all_on_equals_blind_sampler(seed, n_relays):
    params = network(n_relays)
    new, old = streams(seed, "scheduler")
    on = params.all_on
    assert ([sampled_decision(params, on, new) for _ in range(300)]
            == [legacy.sampled_decision_blind(params, old)
                for _ in range(300)])
    assert_same_position(new, old)

    ch_rng = RngStream(seed, "channels")
    for _ in range(300):
        channel = sample_channels(params, ch_rng)
        assert (sampled_decision(params, channel, new)
                == legacy.sampled_decision(params, channel, old))
    assert_same_position(new, old)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)),
       window=st.integers(1, 40), n_slots=st.integers(0, 300))
def test_blind_elect_block_equals_old_blind_decisions(seed, n_relays, window,
                                                      n_slots):
    params = network(n_relays, window)
    blind, old, all_on_matrix = streams(seed, "contention", 3)
    block = elect_block(params, blind, n_slots)
    assert block == [legacy.blind_decision(params, old)
                     for _ in range(n_slots)]
    ones = np.ones((n_slots, params.n_nodes), dtype=np.uint8)
    assert block == elect_block(params, all_on_matrix, n_slots, ones)
    assert_same_position(blind, old, all_on_matrix)


def step_inputs(n_relays):
    """Per-slot queue state, channel, decision and held schedule."""
    nodes = st.sampled_from((IDLE,) + tuple(range(n_relays + 1)))
    return st.lists(st.tuples(slot_states(n_relays), nodes, nodes),
                    min_size=1, max_size=30)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)))
def test_qcsma_step_equals_old_blind_backlog_rule(data, seed, n_relays):
    params = network(n_relays)
    new, old = streams(seed, "scheduler")
    for (queues, channel), decision, previous in data.draw(
            step_inputs(n_relays)):
        assert (qcsma_step(queues, channel, previous, decision, params, new)
                == legacy.qcsma_step(queues, channel, previous, decision,
                                     params, old))
    assert_same_position(new, old)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)))
def test_rqcsma_step_equals_old_rule(data, seed, n_relays):
    params = network(n_relays)
    new, old = streams(seed, "scheduler")
    new_memory, old_memory = {}, {}
    for (queues, channel), decision, _ in data.draw(step_inputs(n_relays)):
        if decision not in (IDLE, 0) and not channel[decision]:
            decision = IDLE  # keep the decision feasible
        assert (rqcsma_step(queues, channel, new_memory, decision, params,
                            new)
                == legacy.rqcsma_step(queues, channel, old_memory, decision,
                                      params, old))
    assert new_memory == old_memory
    assert_same_position(new, old)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS, n_relays=st.sampled_from((1, 3, 8)),
       window=st.integers(1, 40))
def test_ub_step_equals_old_uniform_backoff(data, seed, n_relays, window):
    params = network(n_relays, window)
    new, old = streams(seed, "contention")
    for (queues, channel), _, _ in data.draw(step_inputs(n_relays)):
        assert (ub_step(queues, channel, params, new)
                == legacy.ub_step(queues, channel, params, old))
    assert_same_position(new, old)
