"""The merged rules against the separate implementations they replaced.

Every channel-blind path is its channel-aware rule under an all-ON channel,
and every backoff election runs through contention.elect. Each must equal
the old code in tests/legacy_rules.py decision for decision and leave its
stream at the same position; mws must pick what the old log(1 + beta*x)
weight argmax picked. The one-relay rate region must agree with its old
two-case form off its faces, and its boundary with the old bisection. The
joint schedule-channel chain built from build_dtmc must equal the one whose
kernel was written out entry by entry. The scalar engine's step bodies,
which restate those rules inline, must equal them: mws_step the argmax of
action_backlog over the feasible nodes, apply_slot and relay_target the
old queue update.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_rules as legacy
from relaysim import (IDLE, NetworkParams, QueueState, RateRegion2,
                      build_joint_channel_chain)
from relaysim.contention import (blind_decision, elect_block, run_contention,
                                 sampled_decision)
from relaysim.core import (apply_slot, relay_target, transmitters,
                           validate_channel)
from relaysim.rng import RngStream, sample_channels
from relaysim.scheduling import (action_backlog, mws_step, qcsma_step,
                                 rqcsma_step, ub_step)

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


# ---------------------------------------------------------------------------
# The scalar engine's inlined bodies against the rules they restate.

INLINED_RELAYS = (1, 2, 3, 8)


@st.composite
def rows(draw, n_relays):
    """slot_states, with the queues as a QueueState or as the list of ints
    run_once keeps."""
    queues, channel = draw(slot_states(n_relays))
    return (list(queues) if draw(st.booleans()) else queues), channel


@pytest.mark.parametrize("n_relays", INLINED_RELAYS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mws_equals_action_backlog_argmax(n_relays, data):
    params = network(n_relays)
    queues, channel = data.draw(rows(n_relays))
    feasible = transmitters(channel)
    backlogs = [action_backlog(queues, channel, i) for i in feasible]
    best = max(backlogs)
    expected = feasible[backlogs.index(best)] if best > 0 else IDLE
    assert mws_step(queues, channel, params) == expected


@pytest.mark.parametrize("n_relays", INLINED_RELAYS)
def test_mws_rejects_a_channel_as_validate_channel_does(n_relays):
    params = network(n_relays)
    for length in (n_relays, n_relays + 2):
        channel = (1,) * length
        with pytest.raises(ValueError) as expected:
            validate_channel(params, channel)
        with pytest.raises(ValueError) as raised:
            mws_step(QueueState.empty(n_relays), channel, params)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("n_relays", INLINED_RELAYS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_relay_target_equals_old_loop(n_relays, data):
    queues, _ = data.draw(rows(n_relays))
    assert relay_target(queues) == legacy.relay_target(queues)


@pytest.mark.parametrize("n_relays", INLINED_RELAYS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_slot_equals_old_queue_update(n_relays, data):
    queues, channel = data.draw(rows(n_relays))
    transmission = data.draw(st.sampled_from((IDLE, *range(n_relays + 1))))
    arrivals = tuple(data.draw(st.integers(0, 3))
                     for _ in range(n_relays + 1))
    try:
        expected = legacy.apply_slot(queues, transmission, channel, arrivals)
    except ValueError as error:  # a relay scheduled with its channel OFF
        with pytest.raises(ValueError) as raised:
            apply_slot(queues, transmission, channel, arrivals)
        assert str(raised.value) == str(error)
        return
    out, tag = apply_slot(queues, transmission, channel, arrivals)
    assert type(out) is type(expected[0]) is type(queues)
    assert (out, tag) == expected


# ---------------------------------------------------------------------------
# The one-relay rate region: three half-planes against the two-case form.

REGION_RHO0 = (0.0, 0.1, 0.2, 0.4, 0.5, 0.7, 0.9, 1.0)
REGION_RHO1 = (0.0, 0.2, 0.4, 0.5 - 1e-6, 0.5, 0.5 + 1e-6, 0.7, 0.95, 1.0)
REGION_RHOS = list(itertools.product(REGION_RHO0, REGION_RHO1))
REGION_RATES = np.linspace(0.0, 1.2, 121).tolist()


def on_a_face(region, lambda0, lambda1):
    return any(abs(a0 * lambda0 + a1 * lambda1 - b) < 1e-12
               for a0, a1, b in region.faces)


def test_region_contains_equals_two_case_form():
    for rho in REGION_RHOS:
        new, old = RateRegion2(*rho), legacy.RateRegion2(*rho)
        for l0, l1 in itertools.product(REGION_RATES, REGION_RATES):
            if not on_a_face(new, l0, l1):
                assert new.contains(l0, l1) == old.contains(l0, l1), (
                    rho, l0, l1)


def test_region_boundary_equals_bisection():
    # the bisection stops at a scale width of 1e-6 and returns the midpoint
    for rho in REGION_RHOS:
        new, old = RateRegion2(*rho), legacy.RateRegion2(*rho)
        for angle in np.linspace(0.0, 90.0, 91).tolist():
            assert math.dist(new.boundary(angle),
                             old.boundary(angle)) < 4e-7, (rho, angle)


def test_region_without_relay_channel_is_empty_on_the_lambda0_axis():
    # rho1 = 0: the face lambda1 < 0 runs parallel to the lambda0 axis
    for rho0 in REGION_RHO0:
        region = RateRegion2(rho0, 0.0)
        assert region.boundary(0.0) == (0.0, 0.0)
        assert not any(region.contains(x, 0.0) for x in REGION_RATES)


# ---------------------------------------------------------------------------
# The joint schedule-channel chain: build_dtmc's kernel against the old
# hand-set one.

def joint_chain_inputs(n_random=1000, seed=0):
    """(rho0, p0_on, p0_off, p1, (a0, a1)): the edges rho0 in {0, 1} and
    a0 + a1 = 1, then n_random draws with rho0 in [0, 1], activation
    probabilities in (0.01, 0.99), a0, a1 > 0 and a0 + a1 <= 1."""
    yield from [(0.0, 0.9, 0.3, 0.6, (0.4, 0.4)),
                (1.0, 0.9, 0.3, 0.6, (0.4, 0.4)),
                (0.4, 0.9, 0.3, 0.6, (0.25, 0.75)),
                (0.4, 0.9, 0.3, 0.6, (1e-9, 1e-9))]
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        rho0 = float(rng.uniform(0.0, 1.0))
        probs = rng.uniform(0.01, 0.99, 3).tolist()
        a0, a1 = rng.uniform(0.0, 1.0, 2).tolist()
        if a0 + a1 > 1.0:  # fold into the triangle a0 + a1 <= 1
            a0, a1 = 1.0 - a0, 1.0 - a1
        yield (rho0, *probs, (a0, a1))


def test_joint_chain_equals_hand_set_kernel():
    for rho0, p0_on, p0_off, p1, alpha in joint_chain_inputs():
        new = build_joint_channel_chain(rho0, p0_on, p0_off, p1, alpha)
        old = legacy.build_joint_channel_chain(rho0, p0_on, p0_off, p1, alpha)
        assert new.states == old.states
        assert np.abs(new.probs - old.probs).max() <= 1e-15, (
            rho0, p0_on, p0_off, p1, alpha)


@pytest.mark.parametrize("p0_on,alpha,message", [
    (1.0, (0.4, 0.4), r"degenerate activation probability p\[0\]=1.0"),
    (0.9, (0.0, 0.4), "alpha must put positive mass on schedule 0")])
def test_joint_chain_takes_build_dtmc_preconditions(p0_on, alpha, message):
    # the hand-set kernel returned a chain for both; build_dtmc rejects them,
    # while a bad alpha still fails the chain's own "a0+a1 <= 1" check
    # (TestJointChainCounterexample in tests/test_analysis.py)
    legacy.build_joint_channel_chain(0.4, p0_on, 0.3, 0.6, alpha)
    with pytest.raises(ValueError, match=message):
        build_joint_channel_chain(0.4, p0_on, 0.3, 0.6, alpha)

