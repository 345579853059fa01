"""The flat queue row: QueueState's contract and run_once's running total.

QueueState stores [Q_0, Q_1..Q_N, Q_01..Q_0N] as one flat tuple, and
run_once keeps that row as a list of ints with a running total backlog.
`NamedQueueState` is the NamedTuple QueueState used to be; the flat class
must behave as it did through its public surface.
"""

import pickle
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import (IDLE, ExperimentConfig, NetworkParams, QueueState,
                      apply_slot, harness, run_once)
from relaysim.harness import BLOCK_SLOTS

SCHEDULERS = ("mws", "rqcsma", "qcsma", "ub")
MODES = ("contention", "sampler")


class NamedQueueState(NamedTuple):
    q0: int
    q: tuple
    q0i: tuple

    def total(self):
        return self.q0 + sum(self.q) + sum(self.q0i)

    def as_dict(self):
        return {"q0": self.q0, "q": list(self.q), "q0i": list(self.q0i)}


def fields(n_relays):
    counts = st.lists(st.integers(0, 10 ** 6), min_size=n_relays,
                      max_size=n_relays).map(tuple)
    return st.tuples(st.integers(0, 10 ** 6), counts, counts)


def field_pairs():
    """Two field triples of one relay count; often equal or one entry off."""
    return st.sampled_from([1, 2, 3, 8]).flatmap(lambda n: st.tuples(
        fields(n), fields(n), st.booleans()))


@settings(max_examples=300)
@given(pair=field_pairs())
def test_flat_state_behaves_as_the_named_tuple(pair):
    a, b, same = pair
    if same:
        b = a
    flat, named = QueueState(*a), NamedQueueState(*a)
    assert (flat.q0, flat.q, flat.q0i) == a
    assert type(flat.q) is tuple and type(flat.q0i) is tuple
    assert flat.total() == named.total()
    assert flat.as_dict() == named.as_dict()
    other = QueueState(*b)
    assert (flat == other) == (named == NamedQueueState(*b))
    assert (flat != other) == (named != NamedQueueState(*b))
    if flat == other:
        assert hash(flat) == hash(other)
    assert pickle.loads(pickle.dumps(flat)) == flat
    assert repr(flat) == repr(named).replace("NamedQueueState",
                                             "QueueState")


@pytest.mark.parametrize("n_relays", [1, 2, 3, 8])
def test_empty_state(n_relays):
    empty = QueueState.empty(n_relays)
    assert empty == QueueState(0, (0,) * n_relays, (0,) * n_relays)
    assert empty.total() == 0
    assert QueueState.from_row([0] * (2 * n_relays + 1)) == empty


def test_fields_are_read_only():
    state = QueueState(1, (2,), (3,))
    with pytest.raises(AttributeError):
        state.q0 = 5
    with pytest.raises(TypeError):
        state[0] = 5


@settings(max_examples=200)
@given(n_relays=st.sampled_from([1, 2, 3, 8]), data=st.data())
def test_apply_slot_leaves_its_input_unchanged(n_relays, data):
    state = QueueState(*data.draw(fields(n_relays)))
    n = n_relays + 1
    channel = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    feasible = [i for i in range(n) if i == 0 or channel[i]]
    x = data.draw(st.sampled_from([IDLE] + feasible))
    arrivals = tuple(data.draw(st.integers(0, 3)) for _ in range(n))

    before = tuple(state)
    row = list(state)
    out_state, tag = apply_slot(state, x, channel, arrivals)
    out_row, row_tag = apply_slot(row, x, channel, arrivals)
    assert tuple(state) == before and row == list(before)
    # the same rule on both forms, each returned in its own form
    assert type(out_state) is QueueState and type(out_row) is list
    assert list(out_state) == out_row and tag == row_tag


def network(n_relays, load=0.8):
    n = n_relays + 1
    rho = (0.4, 0.7, 0.0, 0.9)[:n]
    lam = tuple(load * (0.5 if i == 0 else 0.5 / n_relays) for i in range(n))
    return NetworkParams(n_relays=n_relays, rho=rho, lam=lam)


@pytest.mark.parametrize("n_relays", [1, 3])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_running_total_equals_every_traced_state(scheduler, mode, n_relays):
    # below MAX_TRAJECTORY_POINTS every slot is sampled, so totals holds
    # the running total of every slot
    horizon = BLOCK_SLOTS + 77
    config = ExperimentConfig(params=network(n_relays), scheduler=scheduler,
                              horizon=horizon, n_seeds=1,
                              decision_mode=mode, trace=True)
    r = run_once(config, 17)
    assert r.slots == tuple(range(horizon))
    assert [rec.queues_after.total() for rec in r.records] == list(r.totals)
    assert r.totals[-1] == r.final_total
    assert r.q_avg == sum(r.totals) / horizon


@pytest.mark.parametrize("mode", MODES)
def test_realization_tables_stay_bounded_at_64_relays(mode, monkeypatch):
    """Criterion 10's shape: nearly every slot is a new realization."""
    n_relays, horizon = 64, 3000
    params = NetworkParams(n_relays=n_relays, rho=(0.5,) * (n_relays + 1),
                           lam=(0.3,) + (0.2 / n_relays,) * n_relays)
    config = ExperimentConfig(params=params, scheduler="rqcsma",
                              horizon=horizon, n_seeds=1,
                              decision_mode=mode)
    built = []
    options = harness.sampler_options

    def counted(channel):
        built.append(channel)
        return options(channel)

    monkeypatch.setattr(harness, "sampler_options", counted)
    r = run_once(config, 1)
    bound = min(2 ** (n_relays + 1), horizon)
    assert r.memory_entries == r.distinct_channels <= bound
    if mode == "sampler":
        # one table per block, one entry per realization in the block
        assert r.distinct_channels <= len(built) <= horizon
        assert len(built) <= sum(min(2 ** (n_relays + 1), BLOCK_SLOTS,
                                     horizon - start)
                                 for start in range(0, horizon, BLOCK_SLOTS))
    else:
        assert built == []
