"""The lane engine against run_once, and sweep rows against per-point runs.

Every lane of run_lanes must equal run_once of its (lam, seed) field by
field; sweep_grid, which runs its points as lanes, must give the rows that
per-point run_seeds aggregation gives, whatever the worker count.
"""

from dataclasses import replace

import numpy as np
import pytest

from relaysim import ExperimentConfig, NetworkParams, run_once, run_seeds
from relaysim import harness
from relaysim.harness import (BLOCK_SLOTS, aggregate_ci, stable_fraction,
                              sweep_grid)
from relaysim.lanes import MAX_TABLE_RELAYS, activation_table, run_lanes
from relaysim.scheduling import activation_probability

SCHEDULERS = ("mws", "rqcsma", "qcsma", "ub")
MODES = ("contention", "sampler")
FIELDS = ("seed", "q_avg", "slots", "totals", "final_total", "stable",
          "slope", "memory_entries", "distinct_channels")
# Relay channels from always OFF to always ON.
RHO_CYCLE = (0.4, 0.7, 0.0, 0.9, 1.0, 0.2, 0.55, 0.3, 0.8, 0.6, 0.5, 0.45)


def lane_rates(n_relays, a_max):
    """Idle, light, near-boundary and saturated rate vectors."""
    n = n_relays + 1
    return [(0.0,) * n,
            (0.2 * a_max,) + (0.05 * a_max / n_relays,) * n_relays,
            (0.45 * a_max,) + (0.3 * a_max / n_relays,) * n_relays,
            (float(a_max),) * n]


def assert_lanes_equal_run_once(config, lanes):
    results = list(run_lanes(config, lanes))
    assert len(results) == len(lanes)
    for (lam, seed), lane in zip(lanes, results):
        params = replace(config.params, lam=lam)
        ref = run_once(replace(config, params=params), seed)
        for name in FIELDS:
            assert getattr(lane, name) == getattr(ref, name), (lam, seed,
                                                               name)
        assert lane.records == []


@pytest.mark.parametrize("a_max", [1, 3])
@pytest.mark.parametrize("n_relays", [1, 3, 8])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_lanes_equal_run_once(scheduler, mode, n_relays, a_max):
    n = n_relays + 1
    cases = [(32, h) for h in (1, 99, BLOCK_SLOTS + 1, 2 * BLOCK_SLOTS + 17)]
    cases.append((1, BLOCK_SLOTS + 1))  # W=1: ties in every election
    for window, horizon in cases:
        params = NetworkParams(n_relays=n_relays, rho=RHO_CYCLE[:n],
                               lam=(0.0,) * n, a_max=a_max,
                               contention_window=window)
        config = ExperimentConfig(params=params, scheduler=scheduler,
                                  horizon=horizon, n_seeds=1,
                                  decision_mode=mode)
        lanes = [(lam, 100 * n_relays + 7 * k + window)
                 for k, lam in enumerate(lane_rates(n_relays, a_max))]
        assert_lanes_equal_run_once(config, lanes)


@pytest.mark.parametrize("scheduler,mode", [
    ("rqcsma", "contention"), ("rqcsma", "sampler"), ("mws", "contention"),
    ("qcsma", "sampler"), ("ub", "contention")])
def test_many_relays(scheduler, mode):
    """Above MAX_TABLE_RELAYS relays every lane runs through run_once."""
    n_relays = MAX_TABLE_RELAYS + 1
    n = n_relays + 1
    params = NetworkParams(n_relays=n_relays, rho=RHO_CYCLE[:n],
                           lam=(0.0,) * n)
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=BLOCK_SLOTS + 30, n_seeds=1,
                              decision_mode=mode)
    lanes = [(lam, k) for k, lam in enumerate(lane_rates(n_relays, 1)[1:3])]
    assert_lanes_equal_run_once(config, lanes)


@pytest.mark.parametrize("scheduler", ["rqcsma", "qcsma"])
def test_small_gain_grows_the_activation_table(scheduler):
    """With a small activation gain no backlog reached here saturates the
    table, so it grows block by block with the backlog."""
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0),
                           a_max=3, activation_gain=1e-3)
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=3 * BLOCK_SLOTS + 5, n_seeds=1)
    assert_lanes_equal_run_once(config, [((2.5, 2.0), 4), ((0.3, 0.1), 5)])


def test_activation_table_saturates_at_exact_one():
    table = activation_table(0.2, 10_000)
    assert table[-1] == 1.0 and table[-2] < 1.0
    assert [float(p) for p in table] == [activation_probability(0.2 * b)
                                         for b in range(len(table))]
    assert len(activation_table(1e-3, 50)) == 50


def test_no_lanes():
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0))
    assert list(run_lanes(ExperimentConfig(params=params), [])) == []


def per_point_rows(config, grid):
    """Sweep rows as per-point run_seeds aggregation computes them."""
    rows = []
    for index, lam in enumerate(grid):
        try:
            params = replace(config.params, lam=tuple(lam))
        except ValueError as exc:
            rows.append({"index": index, "lam": tuple(lam),
                         "error": str(exc)})
            continue
        results = run_seeds(replace(config, params=params, trace=False))
        q_avgs = [r.q_avg for r in results]
        rows.append({
            "index": index,
            "lam": tuple(lam),
            "mean_q_avg": float(np.mean(q_avgs)),
            "mean_final": float(np.mean([r.final_total for r in results])),
            "stable_fraction": stable_fraction(results),
            "ci_half": (aggregate_ci(q_avgs)[1] if len(results) >= 2
                        else 0.0),
        })
    return rows


@pytest.mark.parametrize("scheduler,n_seeds", [("rqcsma", 3), ("ub", 1)])
def test_sweep_rows_equal_per_point_runs(scheduler, n_seeds):
    """Seven valid points (two and three workers do not divide them) around
    an invalid one in the middle."""
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0),
                           seed=11)
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=400, n_seeds=n_seeds)
    grid = [(0.0, 0.0), (0.1, 0.2), (0.3, 0.1), (0.5, 0.3), (1.5, 0.0),
            (0.2, 0.6), (0.7, 0.2), (0.05, 0.05)]
    expected = per_point_rows(config, grid)
    assert "error" in expected[4]
    for workers in (1, 2, 3):
        assert sweep_grid(config, grid, workers=workers) == expected, workers


@pytest.mark.parametrize("max_lanes", [1, 4, 5])
def test_sweep_batch_split_into_calls(monkeypatch, max_lanes):
    """A batch longer than MAX_BATCH_LANES runs as several run_lanes calls,
    split inside a point's seeds where the cap falls there."""
    monkeypatch.setattr(harness, "MAX_BATCH_LANES", max_lanes)
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0),
                           seed=3)
    config = ExperimentConfig(params=params, scheduler="rqcsma",
                              horizon=300, n_seeds=3)
    grid = [(0.1, 0.2), (0.3, 0.1), (1.5, 0.0), (0.5, 0.3), (0.2, 0.6)]
    assert sweep_grid(config, grid) == per_point_rows(config, grid)


def test_sweep_of_invalid_points_only():
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0))
    config = ExperimentConfig(params=params, horizon=50, n_seeds=2)
    rows = sweep_grid(config, [(1.5, 0.0), (0.0, -1.0)])
    assert [("error" in row) for row in rows] == [True, True]
