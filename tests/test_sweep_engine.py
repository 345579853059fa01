"""Sweep rows against per-point runs: the lane-engine paths (mws and
rqcsma's contention mode, at one and three relays) and rqcsma's sampler
mode, which the lane engine leaves to run_once.

sweep_grid runs mws lanes and rqcsma's contention-mode lanes through the
lane engine (lanes.lane_outcomes), which reads each lane's mean backlog,
final backlog and verdict from its arrays, and rqcsma's sampler-mode lanes
through run_once; per-point run_seeds runs each seed on run_once. The rows
must be equal at a horizon whose trajectories are too short to classify
and at one that spans two blocks, for one and two workers. Each lane-engine
call also builds one activation table, long enough for every backlog its
lanes can reach.
"""

import pytest

from relaysim import ExperimentConfig, NetworkParams, lanes
from relaysim.harness import BLOCK_SLOTS, box_grid, gamma_grid, sweep_grid
from relaysim.lanes import _on_engine, lane_outcomes, run_lanes
from test_lanes import assert_lanes_equal_run_once, per_point_rows

RHO2 = (0.4, 0.7)
# Criterion 5a's three-relay fixture.
RHO4 = (0.4, 0.7, 0.8, 0.7)
LAM4 = (0.4, 0.05, 0.05, 0.05)

CASES = {
    "mws-contention-box": (RHO2, "mws", "contention", box_grid(3, 0.6, 0.7)),
    "rqcsma-sampler-box": (RHO2, "rqcsma", "sampler", box_grid(3, 0.6, 0.7)),
    "mws-contention-n3": (RHO4, "mws", "contention",
                          gamma_grid(LAM4, (0.0, 0.1, 0.3))),
    "rqcsma-contention-n3": (RHO4, "rqcsma", "contention",
                             gamma_grid(LAM4, (0.0, 0.1, 0.3))),
}


@pytest.mark.parametrize("horizon", [99, BLOCK_SLOTS + 17])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_equal_per_point_runs(case, horizon):
    rho, scheduler, mode, grid = CASES[case]
    n = len(rho)
    params = NetworkParams(n_relays=n - 1, rho=rho, lam=(0.0,) * n, seed=21)
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=horizon, n_seeds=3,
                              decision_mode=mode)
    assert _on_engine(config) == (mode == "contention")
    expected = per_point_rows(config, grid)
    # Every row is unclassified at 99 slots and classified past a block.
    assert {row["stable_fraction"] is None for row in expected} == {
        horizon == 99}
    for workers in (1, 2):
        assert sweep_grid(config, grid, workers=workers) == expected, workers


@pytest.mark.parametrize("gain, size", [(1e-3, 9_232), (0.2, 185)])
def test_one_activation_table_covers_every_reachable_backlog(
        monkeypatch, gain, size):
    """Each lane-engine call builds one activation table, before its block
    loop. An action backlog is at most one queue's backlog, which gains at
    most a_max packets per slot (a Q_0i at most one forward), so the table
    holds an entry for every backlog a lane can reach in the horizon, or
    ends at the exact 1.0 that every larger backlog also reads."""
    activation_table, simulate = lanes.activation_table, lanes._simulate
    tables, calls = [], []

    def recording_table(*args):
        tables.append(activation_table(*args))
        return tables[-1]

    def counting_simulate(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(lanes, "activation_table", recording_table)
    monkeypatch.setattr(lanes, "_simulate", counting_simulate)
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.0, 0.0),
                           a_max=3, activation_gain=gain)
    config = ExperimentConfig(params=params, scheduler="rqcsma",
                              horizon=3 * BLOCK_SLOTS + 5, n_seeds=1)
    lane_list = [((2.5, 2.0), 4), ((0.3, 0.1), 5)]
    list(run_lanes(config, lane_list))
    lane_outcomes(config, lane_list)
    assert len(calls) == len(tables) == 2
    reach = params.a_max * config.horizon + 1
    for table in tables:
        assert len(table) == size
        assert table[-1] == 1.0 or len(table) >= reach
    assert (tables[0][-1] == 1.0) == (gain == 0.2)


@pytest.mark.parametrize("n_relays, a_max", [(1, 3), (3, 2)])
def test_lanes_at_full_load_read_deep_into_the_table(n_relays, a_max):
    """A source receiving a_max packets every slot, and serving at most
    one, reaches backlogs beyond a third of the table's a_max * horizon
    entries at a gain whose table never reaches 1.0; such lanes still equal
    run_once field by field (a table a third as long fails here)."""
    n = n_relays + 1
    params = NetworkParams(n_relays=n_relays, rho=RHO4[:n], lam=(0.0,) * n,
                           a_max=a_max, activation_gain=1e-3)
    config = ExperimentConfig(params=params, scheduler="rqcsma",
                              horizon=2 * BLOCK_SLOTS + 7, n_seeds=1)
    lane_list = [((float(a_max),) * n, 4),
                 ((float(a_max),) + (0.1,) * n_relays, 5)]
    assert_lanes_equal_run_once(config, lane_list)
