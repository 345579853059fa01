import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import (IDLE, NetworkParams, QueueState, apply_slot,
                      feasible_schedules, relay_target)


def params_for(rho, lam=None, **kw):
    n = len(rho) - 1
    return NetworkParams(n_relays=n, rho=rho,
                         lam=lam if lam is not None else (0.0,) * (n + 1),
                         **kw)


class TestFeasibleSchedules:
    def test_both_on(self):
        p = params_for((0.5, 0.5))
        assert feasible_schedules(p, (1, 1)) == {IDLE, 0, 1}

    def test_all_off(self):
        p = params_for((0.5, 0.5))
        assert feasible_schedules(p, (0, 0)) == {IDLE, 0}

    def test_three_relays(self):
        p = params_for((0.5,) * 4)
        assert feasible_schedules(p, (0, 1, 0, 1)) == {IDLE, 0, 1, 3}

    def test_wrong_length_rejected(self):
        p = params_for((0.5, 0.5))
        with pytest.raises(ValueError):
            feasible_schedules(p, (1, 1, 1))

    @given(bits=st.lists(st.integers(0, 1), min_size=2, max_size=6))
    def test_always_contains_idle_and_source(self, bits):
        p = params_for((0.5,) * len(bits))
        feas = feasible_schedules(p, tuple(bits))
        assert IDLE in feas and 0 in feas
        for i in range(1, len(bits)):
            assert (i in feas) == bool(bits[i])


def test_all_on_follows_the_relay_count():
    # the cached all-ON channel belongs to one instance: replace() that
    # changes the relay count must not inherit it
    p = params_for((0.5, 0.5))
    assert p.all_on == (1, 1)
    q = replace(p, n_relays=3, rho=(0.5,) * 4, lam=(0.0,) * 4)
    assert q.all_on == (1, 1, 1, 1)
    # the cache is no dataclass field: equality and hashing ignore it
    assert pickle.loads(pickle.dumps(q)) == q == replace(q)
    assert hash(q) == hash(replace(q))


class TestRelayTarget:
    def test_picks_smallest_relayed_backlog(self):
        assert relay_target(QueueState(10, (0, 0), (3, 7))) == 1

    def test_tie_lowest_index(self):
        assert relay_target(QueueState(0, (0, 0), (5, 5))) == 1

    def test_middle_relay(self):
        assert relay_target(QueueState(4, (0, 0, 0), (9, 2, 9))) == 2


class TestApplySlot:
    def test_direct_delivery_with_arrivals(self):
        q = QueueState(5, (0,), (0,))
        out, tag = apply_slot(q, 0, (1, 0), (2, 0))
        assert out.q0 == 6 and tag == "source-direct"

    def test_forward_to_least_loaded_relay(self):
        q = QueueState(5, (0, 0), (3, 7))
        out, tag = apply_slot(q, 0, (0, 1, 1), (0, 0, 0))
        assert out.q0 == 4
        assert out.q0i == (4, 7)
        assert tag == "source-relayed-to-1"

    def test_relay_serves_longer_queue(self):
        q = QueueState(0, (2,), (6,))
        out, tag = apply_slot(q, 1, (0, 1), (0, 0))
        assert out.q == (2,) and out.q0i == (5,)
        assert tag == "relay-1-forwarding"

    def test_relay_serves_own_queue_on_tie(self):
        q = QueueState(0, (4,), (4,))
        out, tag = apply_slot(q, 1, (0, 1), (0, 0))
        assert out.q == (3,) and out.q0i == (4,)
        assert tag == "relay-1-own"

    def test_empty_source_creates_no_phantom(self):
        q = QueueState(0, (0,), (2,))
        out, tag = apply_slot(q, 0, (0, 1), (0, 0))
        assert out.q0 == 0 and out.q0i == (2,)
        assert tag == "none"

    def test_idle_only_arrivals(self):
        q = QueueState(1, (2,), (3,))
        out, tag = apply_slot(q, IDLE, (1, 1), (1, 1))
        assert out == QueueState(2, (3,), (3,))
        assert tag == "none"

    def test_off_relay_transmission_rejected(self):
        q = QueueState(0, (2,), (0,))
        with pytest.raises(ValueError):
            apply_slot(q, 1, (1, 0), (0, 0))


queue_states = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(0, 20),
    st.lists(st.integers(0, 20), min_size=n, max_size=n).map(tuple),
    st.lists(st.integers(0, 20), min_size=n, max_size=n).map(tuple),
).map(lambda t: QueueState(*t)))


@given(queues=queue_states, data=st.data())
@settings(max_examples=200)
def test_apply_slot_properties(queues, data):
    n = len(queues.q)
    channel = tuple(data.draw(st.integers(0, 1)) for _ in range(n + 1))
    feas = sorted(i for i in range(n + 1) if i == 0 or channel[i])
    transmission = data.draw(st.sampled_from([IDLE] + feas))
    arrivals = tuple(data.draw(st.integers(0, 1)) for _ in range(n + 1))

    out, tag = apply_slot(queues, transmission, channel, arrivals)

    # non-negativity
    assert out.q0 >= 0 and all(v >= 0 for v in out.q + out.q0i)

    # at most one queue decremented, and packet accounting balances
    delivered = tag != "none" and not tag.startswith("source-relayed")
    moved = tag.startswith("source-relayed")
    assert out.total() == queues.total() + sum(arrivals) - (1 if delivered else 0)
    if moved:
        target = int(tag.rsplit("-", 1)[1])
        assert out.q0i[target - 1] == queues.q0i[target - 1] + 1

    # bystander queues untouched (up to arrivals on own queues)
    for i in range(1, n + 1):
        expected_own = queues.q[i - 1] + arrivals[i]
        if transmission != i:
            assert out.q[i - 1] == expected_own
        if transmission != i and not (moved and tag.endswith(f"-{i}")):
            assert out.q0i[i - 1] == queues.q0i[i - 1]


def test_conservation_over_random_run():
    # every node-0 arrival is delivered directly, parked at a relay, or
    # still queued; same accounting per relay queue
    import random

    rnd = random.Random(1234)
    n = 2
    queues = QueueState.empty(n)
    counts = {"direct": 0, "moved": 0, "relayed_out": 0}
    own_served = [0] * n
    arr0 = 0
    arr_own = [0] * n
    for _ in range(5000):
        channel = tuple(rnd.randint(0, 1) for _ in range(n + 1))
        feas = [i for i in range(n + 1) if i == 0 or channel[i]]
        x = rnd.choice([IDLE] + feas)
        arrivals = tuple(rnd.randint(0, 1) for _ in range(n + 1))
        queues, tag = apply_slot(queues, x, channel, arrivals)
        arr0 += arrivals[0]
        for j in range(n):
            arr_own[j] += arrivals[j + 1]
        if tag == "source-direct":
            counts["direct"] += 1
        elif tag.startswith("source-relayed"):
            counts["moved"] += 1
        elif tag.endswith("forwarding"):
            counts["relayed_out"] += 1
        elif tag.endswith("own"):
            own_served[int(tag.split("-")[1]) - 1] += 1

    assert arr0 == counts["direct"] + counts["moved"] + queues.q0
    assert counts["moved"] == counts["relayed_out"] + sum(queues.q0i)
    for j in range(n):
        assert arr_own[j] == own_served[j] + queues.q[j]


class TestParamsValidation:
    def test_rho_range(self):
        with pytest.raises(ValueError):
            params_for((0.5, 1.5))

    def test_lambda_above_a_max(self):
        with pytest.raises(ValueError):
            params_for((0.5, 0.5), lam=(1.2, 0.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NetworkParams(n_relays=2, rho=(0.5, 0.5), lam=(0, 0, 0))

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            params_for((0.5, 0.5), beta=0.0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            params_for((0.5, 0.5), seed=-1)
