"""Sweep rows against per-point runs: the lane-engine paths (mws and
rqcsma's contention mode, at one and three relays) and rqcsma's sampler
mode, which the lane engine leaves to run_once.

sweep_grid runs mws lanes and rqcsma's contention-mode lanes through the
lane engine (lanes.lane_outcomes), which reads each lane's mean backlog,
final backlog and verdict from its arrays, and rqcsma's sampler-mode lanes
through run_once; per-point run_seeds runs each seed on run_once. The rows
must be equal at a horizon whose trajectories are too short to classify
and at one that spans two blocks, for one and two workers.
"""

import pytest

from relaysim import ExperimentConfig, NetworkParams
from relaysim.harness import BLOCK_SLOTS, box_grid, gamma_grid, sweep_grid
from relaysim.lanes import _on_engine
from test_lanes import per_point_rows

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
