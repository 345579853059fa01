import numpy as np
import pytest

from relaysim import (ExperimentConfig, NetworkParams, RngStream, run_once,
                      sample_arrivals, sample_channels)
from relaysim.lanes import run_lanes
from relaysim.rng import sample_arrival_matrix, sample_channel_matrix


def params_for(rho, lam=None, **kw):
    n = len(rho) - 1
    return NetworkParams(n_relays=n, rho=rho,
                         lam=lam if lam is not None else (0.0,) * (n + 1),
                         **kw)


class TestChannels:
    def test_degenerate_on(self):
        p = params_for((1.0, 1.0))
        rng = RngStream(0, "channels")
        assert all(sample_channels(p, rng) == (1, 1) for _ in range(50))

    def test_degenerate_off(self):
        p = params_for((0.0,) * 4)
        rng = RngStream(0, "channels")
        assert all(sample_channels(p, rng) == (0, 0, 0, 0) for _ in range(50))

    def test_law_of_large_numbers(self):
        p = params_for((0.4, 0.7))
        rng = RngStream(7, "channels")
        bits = sample_channel_matrix(p, rng, 1_000_000)
        freq = bits.mean(axis=0)
        assert abs(freq[0] - 0.4) < 0.002
        assert abs(freq[1] - 0.7) < 0.002

    def test_lag1_autocorrelation_vanishes(self):
        p = params_for((0.4, 0.7))
        rng = RngStream(3, "channels")
        bits = sample_channel_matrix(p, rng, 1_000_000).astype(float)
        for i in range(2):
            x = bits[:, i] - bits[:, i].mean()
            corr = (x[:-1] * x[1:]).mean() / x.var()
            assert abs(corr) < 0.005


class TestArrivals:
    def test_zero_rate(self):
        p = params_for((0.5, 0.5), lam=(0.0, 0.0))
        rng = RngStream(0, "arrivals")
        assert all(sample_arrivals(p, rng) == (0, 0) for _ in range(50))

    def test_saturated_bernoulli(self):
        p = params_for((0.5, 0.5), lam=(1.0, 0.0))
        rng = RngStream(0, "arrivals")
        assert all(sample_arrivals(p, rng)[0] == 1 for _ in range(50))

    def test_sample_means(self):
        p = params_for((0.5, 0.5), lam=(0.6, 0.05))
        rng = RngStream(11, "arrivals")
        counts = sample_arrival_matrix(p, rng, 1_000_000)
        means = counts.mean(axis=0)
        assert abs(means[0] - 0.6) < 0.002
        assert abs(means[1] - 0.05) < 0.001

    def test_binomial_mean_and_support(self):
        p = params_for((0.5, 0.5), lam=(1.4, 0.3), a_max=3)
        rng = RngStream(2, "arrivals")
        counts = sample_arrival_matrix(p, rng, 200_000)
        assert counts.max() <= 3
        assert abs(counts[:, 0].mean() - 1.4) < 0.01
        assert abs(counts[:, 1].mean() - 0.3) < 0.005


class TestStreams:
    def test_replay_is_identical(self):
        a = RngStream(99, "contention")
        b = RngStream(99, "contention")
        assert a.uniform_row(1000) == b.uniform_row(1000)

    def test_stream_ids_are_independent(self):
        a = RngStream(99, "channels")
        b = RngStream(99, "arrivals")
        xa = np.array(a.uniform_row(100_000))
        xb = np.array(b.uniform_row(100_000))
        assert not np.array_equal(xa[:100], xb[:100])
        corr = np.corrcoef(xa, xb)[0, 1]
        assert abs(corr) < 0.01

    def test_block_equals_single_draws(self):
        p = params_for((0.4, 0.7, 0.2))
        one = RngStream(5, "channels")
        block = RngStream(5, "channels")
        singles = [sample_channels(p, one) for _ in range(777)]
        mat = sample_channel_matrix(p, block, 777)
        assert [tuple(r) for r in mat.tolist()] == singles

        p2 = params_for((0.4, 0.7), lam=(0.5, 0.25), a_max=2)
        one = RngStream(5, "arrivals")
        block = RngStream(5, "arrivals")
        singles = [sample_arrivals(p2, one) for _ in range(777)]
        mat = sample_arrival_matrix(p2, block, 777)
        assert [tuple(r) for r in mat.tolist()] == singles

    def test_position_counts_values(self):
        rng = RngStream(0, "scheduler")
        rng.uniform()
        rng.uniform_row(9)
        rng.uniform_matrix(4, 5)
        assert rng.position == 30

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0, "nope")

    def test_row_spanning_chunk_boundary(self):
        a = RngStream(1, "channels")
        b = RngStream(1, "channels")
        a.uniform_row(16_380)  # chunk is 16384
        b.uniform_row(16_380)
        assert a.uniform_row(10) == b.uniform_row(10)

    def test_interleaved_calls_equal_one_flat_draw(self):
        """Single values, rows and matrices, interleaved so that reads cross
        the 16384-value chunk in every order, serve one flat Philox stream."""
        rng = RngStream(9, "scheduler")
        ss = np.random.SeedSequence(entropy=9, spawn_key=(4,))
        flat = np.random.Generator(np.random.Philox(ss)).random(60_000)
        calls = [("uniform", 1), ("row", 16_380), ("matrix", (3, 5)),
                 ("uniform", 1), ("row", 7), ("matrix", (1, 16_384)),
                 ("uniform", 1), ("row", 16_383), ("row", 4),
                 ("matrix", (0, 3)), ("matrix", (2, 2)), ("uniform", 1)]
        served = []
        for kind, size in calls:
            if kind == "uniform":
                served.append(rng.uniform())
            elif kind == "row":
                served.extend(rng.uniform_row(size))
            else:
                served.extend(rng.uniform_matrix(*size).ravel().tolist())
            assert rng.position == len(served)
        assert served == flat[:len(served)].tolist()


# A seed must be a non-negative integer wherever a run is handed one: a float
# or a string is rejected by name, not by numpy's SeedSequence or a failed
# comparison.
NOT_INTEGER_SEEDS = [2.5, 1.0, "3"]


@pytest.mark.parametrize("seed", NOT_INTEGER_SEEDS)
def test_stream_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError,
                       match=rf"^seed must be an integer, got {seed!r}$"):
        RngStream(seed, "channels")


def test_stream_takes_an_integer_seed_of_any_integer_type():
    want = RngStream(7, "arrivals").uniform_row(5)
    assert RngStream(np.int64(7), "arrivals").uniform_row(5) == want
    assert type(RngStream(np.int64(7), "arrivals").seed) is int


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma", "qcsma", "ub"])
@pytest.mark.parametrize("seed", NOT_INTEGER_SEEDS)
def test_runs_reject_a_seed_that_is_not_an_integer(scheduler, seed):
    params = params_for((0.4, 0.7), lam=(0.2, 0.1))
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=20, n_seeds=1)
    message = rf"^seed must be an integer, got {seed!r}$"
    with pytest.raises(ValueError, match=message):
        run_once(config, seed)
    with pytest.raises(ValueError, match=message):
        list(run_lanes(config, [(params.lam, seed)]))
    # The value a lane's seed equals decides nothing: 1.0 is rejected
    # beside a lane with the integer seed 1 as well.
    with pytest.raises(ValueError, match=message):
        list(run_lanes(config, [(params.lam, 1), (params.lam, seed)]))
