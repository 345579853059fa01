import itertools
import time

import numpy as np
import pytest

from relaysim import (IDLE, NetworkParams, QueueState, decision_distribution,
                      feasible_schedules, run_contention)
from relaysim.contention import (contenders, elect, elect_rows,
                                 sample_option, sampled_decision)
from relaysim.core import transmitters
from relaysim.rng import RngStream


def params_for(rho, **kw):
    n = len(rho) - 1
    return NetworkParams(n_relays=n, rho=rho, lam=(0.0,) * (n + 1), **kw)


class FakeStream:
    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)

    def uniform_row(self, k):
        return [self.values.pop(0) for _ in range(k)]


class TestRunContention:
    def test_tie_is_collision(self):
        p = params_for((0.5, 0.5), contention_window=4)
        # both contenders draw backoff value 2 (uniform in [0.4, 0.6))
        out = run_contention((1, 1), QueueState.empty(1), p,
                             FakeStream([0.5, 0.5]))
        assert out.collision and out.decision is IDLE

    def test_unique_minimum_wins(self):
        p = params_for((0.5, 0.5), contention_window=4)
        out = run_contention((1, 1), QueueState.empty(1), p,
                             FakeStream([0.05, 0.7]))
        assert out.decision == 0 and not out.collision

    def test_single_contender_cannot_collide(self):
        p = params_for((1.0, 0.0, 0.0), contention_window=4)
        rng = RngStream(0, "contention")
        for _ in range(200):
            out = run_contention((1, 0, 0), QueueState.empty(2), p, rng)
            assert out.decision == 0 and not out.collision

    def test_inference_is_exact_and_decision_feasible(self):
        p = params_for((0.4, 0.7, 0.3))
        ch_rng = RngStream(1, "channels")
        ct_rng = RngStream(1, "contention")
        from relaysim.rng import sample_channels
        for _ in range(2000):
            channel = sample_channels(p, ch_rng)
            out = run_contention(channel, QueueState.empty(2), p, ct_rng)
            assert all(v == channel for v in out.inferred_channels)
            assert out.decision in feasible_schedules(p, channel)


def enumerate_distribution(m, window):
    """Brute-force law of the backoff election over all draw tuples."""
    wins = [0] * m
    idle = 0
    for draws in itertools.product(range(window), repeat=m):
        lo = min(draws)
        winners = [i for i, d in enumerate(draws) if d == lo]
        if len(winners) == 1:
            wins[winners[0]] += 1
        else:
            idle += 1
    total = window ** m
    return [w / total for w in wins], idle / total


class TestDecisionDistribution:
    def test_single_contender(self):
        p = params_for((0.4, 0.7), contention_window=8)
        dist = decision_distribution(p, (1, 0))
        assert dist[0] == pytest.approx(1.0)
        assert dist[IDLE] == pytest.approx(0.0)

    def test_two_contenders_tiny_window(self):
        p = params_for((0.4, 0.7), contention_window=1)
        dist = decision_distribution(p, (0, 1))
        assert dist[0] == pytest.approx(0.25)
        assert dist[1] == pytest.approx(0.25)
        assert dist[IDLE] == pytest.approx(0.5)

    @pytest.mark.parametrize("m,window", [(2, 2), (2, 5), (3, 3), (4, 6)])
    def test_matches_enumeration(self, m, window):
        p = params_for((0.4,) + (0.7,) * (m - 1), contention_window=window - 1)
        dist = decision_distribution(p, (1,) * m)
        wins, idle = enumerate_distribution(m, window)
        for i in range(m):
            assert dist[i] == pytest.approx(wins[i], abs=1e-12)
        assert dist[IDLE] == pytest.approx(idle, abs=1e-12)

    def test_full_support_and_normalized(self):
        p = params_for((0.4, 0.7, 0.2, 0.9))
        for code in range(16):
            channel = tuple((code >> i) & 1 for i in range(4))
            dist = decision_distribution(p, channel)
            assert sum(dist.values()) == pytest.approx(1.0)
            for node in transmitters(channel):
                assert dist[node] > 0.0

    def test_monte_carlo_agreement(self):
        # empirical election frequencies match the closed form within 3 sigma
        p = params_for((0.4, 0.7), contention_window=32)
        channel = (1, 1)
        dist = decision_distribution(p, channel)
        rng = RngStream(123, "contention")
        n = 1_000_000
        counts = {IDLE: 0, 0: 0, 1: 0}
        for _ in range(n):
            counts[run_contention(channel, QueueState.empty(1), p,
                                  rng).decision] += 1
        for outcome, prob in dist.items():
            sigma = (prob * (1 - prob) / n) ** 0.5
            assert abs(counts[outcome] / n - prob) <= 3 * sigma

    @pytest.mark.parametrize("m", [2, 4])
    def test_largest_window_is_exact_and_fast(self, m):
        """At W = 2**53 - 1, the largest window NetworkParams accepts, the
        law takes no time that grows with W and its masses are exact: for
        m = 2 the Idle mass is 1/V and each win (V - 1) / 2V; for m = 4
        the Idle mass is (2V - 1) / V**2."""
        v = 2**53
        p = params_for((0.4,) + (0.7,) * (m - 1), contention_window=v - 1)
        t0 = time.perf_counter()
        dist = decision_distribution(p, (1,) * m)
        assert time.perf_counter() - t0 < 1.0
        if m == 2:
            assert dist[IDLE] == 2**-53
            assert dist[0] == dist[1] == (2**53 - 1) / 2**54
        else:
            assert dist[IDLE] == (2 * v - 1) / v**2
        assert sum(dist.values()) == pytest.approx(1.0)


class TestSampledDecision:
    def test_uniform_over_feasible_plus_idle(self):
        p = params_for((0.4, 0.7))
        rng = RngStream(9, "scheduler")
        counts = {IDLE: 0, 0: 0, 1: 0}
        n = 30_000
        for _ in range(n):
            counts[sampled_decision(p, (1, 1), rng)] += 1
        for v in counts.values():
            assert abs(v / n - 1 / 3) < 0.01

    def test_respects_feasibility(self):
        p = params_for((0.4, 0.7))
        rng = RngStream(9, "scheduler")
        seen = {sampled_decision(p, (1, 0), rng) for _ in range(500)}
        assert seen == {IDLE, 0}


@pytest.mark.parametrize("values", [2, 33, 2**53])
def test_elect_rows_equals_elect_up_to_the_largest_window(values):
    """The int64 array election equals the scalar one row by row, up to
    W + 1 = 2**53 backoff values (NetworkParams' bound), ties included:
    the third column repeats the first."""
    u = RngStream(5, "contention").uniform_matrix(500, 4)
    u[:, 2] = u[:, 0]
    u[:7, 1] = 0.0
    channels = RngStream(6, "channels").uniform_matrix(500, 4) < 0.5
    winners = elect_rows(u, values, contenders(channels)).tolist()
    assert winners == [
        -1 if (w := elect(row, transmitters(c), values)) is IDLE else w
        for row, c in zip(u.tolist(), channels.astype(int).tolist())]


@pytest.mark.parametrize("values", [1, 2, 33, 2**53, 3, 2**53 - 1])
def test_elect_clamp_at_the_largest_stream_uniform(values):
    """At 1 - 2**-53, the largest uniform a stream serves, the backoff draw
    int(u * values) is values - 1 for every values up to 2**53, so elect
    and elect_rows, which take that draw as it is, pick the winner of the
    clamped min(int(u * values), values - 1) form, row by row."""
    top = 1.0 - 2.0**-53
    assert int(top * values) == values - 1
    u = RngStream(7, "contention").uniform_matrix(300, 4)
    u[::2, 0] = top
    u[1::3, 1] = top
    u[::5, 2:] = top
    channels = RngStream(8, "channels").uniform_matrix(300, 4) < 0.5

    def min_form(row, nodes):
        draws = {i: min(int(row[i] * values), values - 1) for i in nodes}
        best = min(draws.values())
        winners = [i for i in nodes if draws[i] == best]
        return winners[0] if len(winners) == 1 else -1

    expected = [min_form(row, transmitters(c))
                for row, c in zip(u.tolist(), channels.astype(int).tolist())]
    assert elect_rows(u, values, contenders(channels)).tolist() == expected
    assert [-1 if (w := elect(row, transmitters(c), values)) is IDLE else w
            for row, c in zip(u.tolist(),
                              channels.astype(int).tolist())] == expected


@pytest.mark.parametrize("count", range(1, 13))
def test_sample_option_stays_in_range_at_the_stream_extremes(count):
    """sample_option takes int(u * count) as its index: the last option at
    the largest uniform a stream serves, 1 - 2**-53, the first at 0.0."""
    options = tuple(range(100, 100 + count))
    stream = FakeStream([1.0 - 2.0**-53, 0.0])
    assert sample_option(options, stream) == options[-1]
    assert sample_option(options, stream) == options[0]
