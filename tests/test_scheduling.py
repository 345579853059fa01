import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaysim import (IDLE, NetworkParams, QueueState, activation_probability,
                      differential_backlog, mws_step, qcsma_step, rqcsma_step,
                      ub_step)
from relaysim.rng import RngStream
from relaysim.scheduling import action_backlog


def params_for(rho, lam=None, **kw):
    n = len(rho) - 1
    return NetworkParams(n_relays=n, rho=rho,
                         lam=lam if lam is not None else (0.0,) * (n + 1),
                         **kw)


class FakeStream:
    """Serves a scripted list of uniforms; fails when exhausted."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniform_row(self, k):
        return [self.values.pop(0) for _ in range(k)]


class TestDifferentialBacklog:
    def test_basic(self):
        assert differential_backlog(QueueState(10, (0, 0), (3, 7))) == 7

    def test_floor_at_zero(self):
        assert differential_backlog(QueueState(0, (0, 0), (4, 4))) == 0

    def test_all_relays_ahead(self):
        assert differential_backlog(QueueState(5, (0, 0), (5, 9))) == 0


class TestActionBacklog:
    def test_both_on(self):
        q = QueueState(10, (0,), (10,))
        assert [action_backlog(q, (1, 1), i) for i in (0, 1)] == [10, 10]

    def test_source_off_uses_differential(self):
        q = QueueState(10, (0,), (3,))
        assert action_backlog(q, (0, 1), 0) == 7

    def test_all_empty(self):
        q = QueueState.empty(1)
        assert [action_backlog(q, (1, 1), i) for i in (0, 1)] == [0, 0]

    def test_off_relay_never_scheduled(self):
        # the relay has backlog but its channel is OFF: mws must idle
        p = params_for((0.5, 0.5))
        q = QueueState(0, (9,), (9,))
        assert action_backlog(q, (1, 0), 1) == 9
        assert mws_step(q, (1, 0), p) is IDLE


class TestActivationProbability:
    def test_at_zero(self):
        assert activation_probability(0.0) == 0.5

    def test_odds_three(self):
        assert activation_probability(math.log(3)) == pytest.approx(0.75)

    def test_saturates(self):
        assert 1.0 - activation_probability(50.0) < 1e-20

    @given(omega=st.floats(0, 8))
    def test_logistic_identity(self, omega):
        # above ~8 the 1-p subtraction itself costs more than 1e-12 relative
        p = activation_probability(omega)
        assert p / (1 - p) == pytest.approx(math.exp(omega), rel=1e-12)


class TestMws:
    def test_source_wins_with_big_queue(self):
        p = params_for((0.5, 0.5))
        q = QueueState(100, (1,), (0,))
        assert mws_step(q, (1, 1), p) == 0

    def test_idles_on_empty_network(self):
        p = params_for((0.5, 0.5))
        assert mws_step(QueueState.empty(1), (1, 1), p) is IDLE

    def test_tie_breaks_to_lowest_index(self):
        p = params_for((0.5, 0.5))
        q = QueueState(50, (50,), (0,))
        assert mws_step(q, (0, 1), p) == 0

    def test_wrong_length_channel_rejected(self):
        p = params_for((0.5, 0.5))
        with pytest.raises(ValueError):
            mws_step(QueueState(5, (5,), (0,)), (1, 1, 1), p)


class TestRqCsma:
    def setup_method(self):
        self.params = params_for((0.5, 0.5))

    def test_activation_coin(self):
        q = QueueState(10, (0,), (0,))
        memory = {}
        x = rqcsma_step(q, (1, 1), memory, 0, self.params, FakeStream([0.0]))
        assert x == 0 and memory == {(1, 1): 0}
        memory = {}
        x = rqcsma_step(q, (1, 1), memory, 0, self.params,
                        FakeStream([0.999999]))
        assert x is IDLE and memory == {(1, 1): IDLE}

    def test_carrier_sense_silences_decision_node(self):
        # the holder under this realization keeps transmitting
        q = QueueState(10, (5,), (0,))
        x = rqcsma_step(q, (0, 1), {(0, 1): 1}, 0, self.params,
                        FakeStream([]))
        assert x == 1

    def test_idle_decision_maintains_state(self):
        q = QueueState(10, (5,), (0,))
        x = rqcsma_step(q, (1, 1), {(1, 1): 1}, IDLE, self.params,
                        FakeStream([]))
        assert x == 1
        x = rqcsma_step(QueueState.empty(1), (0, 0), {}, IDLE, self.params,
                        FakeStream([]))
        assert x is IDLE

    def test_empty_backlog_never_activates(self):
        x = rqcsma_step(QueueState.empty(1), (1, 1), {}, 0, self.params,
                        FakeStream([]))
        assert x is IDLE
        # source OFF with zero differential backlog: forwarding is useless
        q = QueueState(3, (0,), (5,))
        x = rqcsma_step(q, (0, 1), {}, 0, self.params, FakeStream([]))
        assert x is IDLE

    def test_only_realized_cell_evolves(self):
        q = QueueState(10, (5,), (0,))
        memory = {(0, 1): 1, (1, 0): 0}
        rqcsma_step(q, (1, 1), memory, 0, self.params, FakeStream([0.0]))
        assert memory == {(0, 1): 1, (1, 0): 0, (1, 1): 0}

    def test_infeasible_decision_rejected(self):
        with pytest.raises(ValueError):
            rqcsma_step(QueueState.empty(1), (1, 0), {}, 1, self.params,
                        FakeStream([]))

    def test_unseen_realization_reads_idle(self):
        # another realization's holder does not silence this one's election
        q = QueueState(10, (5,), (0,))
        memory = {(0, 1): 1}
        x = rqcsma_step(q, (1, 1), memory, 0, self.params, FakeStream([0.0]))
        assert x == 0 and memory[(0, 1)] == 1

    def test_infeasible_decision_rejected_whatever_the_cell_holds(self):
        # the cell names a different node, which would make a feasible
        # decision defer without a coin; an OFF decision node still raises
        q = QueueState(10, (5,), (0,))
        for held in (0, 1, IDLE):
            memory = {(1, 0): held, (1, 1): 1}
            with pytest.raises(ValueError,
                               match=r"infeasible decision 1 under \(1, 0\)"):
                rqcsma_step(q, (1, 0), memory, 1, self.params, FakeStream([]))
            assert memory == {(1, 0): held, (1, 1): 1}
        memory = {}
        with pytest.raises(ValueError, match="infeasible decision"):
            rqcsma_step(q, (1, 0), memory, 1, self.params, FakeStream([]))
        assert memory == {}

    def test_idle_decision_writes_an_idle_cell_for_an_unseen_realization(self):
        q = QueueState(10, (5,), (0,))
        memory = {(1, 1): 1}
        x = rqcsma_step(q, (0, 1), memory, IDLE, self.params, FakeStream([]))
        assert x is IDLE and memory == {(1, 1): 1, (0, 1): IDLE}

    @pytest.mark.parametrize("channel,decision", [((1, 1), 0), ((0, 1), 0),
                                                  ((1, 1), 1)])
    def test_saturated_activation_still_draws_one_coin(self, channel,
                                                       decision):
        # at backlog 400 the activation probability is exactly 1.0, yet the
        # decision node consumes its coin as at any positive backlog
        assert activation_probability(self.params.activation_gain * 400) == 1.0
        q = QueueState(400, (400,), (0,))
        rng = RngStream(0, "scheduler")
        memory = {}
        x = rqcsma_step(q, channel, memory, decision, self.params, rng)
        assert x == decision and memory == {channel: decision}
        assert rng.position == 1


class TestQCsma:
    def setup_method(self):
        self.params = params_for((0.5, 0.5))

    def test_blind_activation_of_off_relay(self):
        # channel-blind: the relay activates even though its channel is OFF
        q = QueueState(0, (10,), (0,))
        x = qcsma_step(q, (1, 0), IDLE, 1, self.params, FakeStream([0.0]))
        assert x == 1

    def test_carrier_sense(self):
        q = QueueState(10, (10,), (0,))
        x = qcsma_step(q, (1, 1), 1, 0, self.params, FakeStream([]))
        assert x == 1

    def test_source_backlog_ignores_its_channel(self):
        # blind: node 0 weighs its own queue even when its channel is OFF
        # and its differential backlog is zero
        q = QueueState(5, (0,), (9,))
        x = qcsma_step(q, (0, 1), IDLE, 0, self.params, FakeStream([0.0]))
        assert x == 0

    def test_idle_roundtrip(self):
        x = qcsma_step(QueueState.empty(1), (1, 1), IDLE, IDLE, self.params,
                       FakeStream([]))
        assert x is IDLE

    @pytest.mark.parametrize("decision", [0, 1])
    def test_saturated_activation_still_draws_one_coin(self, decision):
        q = QueueState(400, (0,), (400,))
        assert activation_probability(self.params.activation_gain * 400) == 1.0
        rng = RngStream(0, "scheduler")
        x = qcsma_step(q, (0, 0), IDLE, decision, self.params, rng)
        assert x == decision and rng.position == 1


class TestUb:
    def setup_method(self):
        self.params = params_for((0.5, 0.5), contention_window=4)

    def test_tie_collides(self):
        q = QueueState(5, (5,), (0,))
        # both draws land on the same backoff value
        x = ub_step(q, (1, 1), self.params, FakeStream([0.3, 0.3]))
        assert x is IDLE

    def test_unique_minimum_wins(self):
        q = QueueState(5, (5,), (0,))
        x = ub_step(q, (1, 1), self.params, FakeStream([0.05, 0.7]))
        assert x == 0

    def test_empty_nodes_keep_silent(self):
        x = ub_step(QueueState.empty(1), (1, 1), self.params,
                    FakeStream([0.1, 0.1]))
        assert x is IDLE

    def test_off_relay_can_win(self):
        q = QueueState(0, (5,), (0,))
        x = ub_step(q, (1, 0), self.params, FakeStream([0.9, 0.1]))
        assert x == 1

