"""run_once's shared channel realizations, and its data-plane check.

run_once keys each channel realization by its bitmask while N + 1 bits fit
an int64 (up to 62 relays) and by the tuple itself above that. Both sides
of that limit must reproduce the per-slot reference loop of
test_block_draws exactly. Only the channel-blind schedulers (qcsma, ub)
may hold a relay whose channel is OFF; a channel-aware scheduler that
schedules one is a bug, and apply_slot's ValueError must reach the caller.
"""

import pytest

from relaysim import ExperimentConfig, NetworkParams, harness, run_once
from relaysim.harness import BLOCK_SLOTS

from test_block_draws import RHO_CYCLE, reference_run_once

FIELDS = ("seed", "q_avg", "slots", "totals", "final_total", "stable",
          "slope", "memory_entries", "distinct_channels")


def wide_network(n_relays):
    """n_relays relays with channels from always OFF to always ON."""
    n = n_relays + 1
    rho = tuple(RHO_CYCLE[i % len(RHO_CYCLE)] for i in range(n))
    lam = (0.3,) + (0.2 / n_relays,) * n_relays
    return NetworkParams(n_relays=n_relays, rho=rho, lam=lam)


# 62: the largest bitmask key; 63 and 64: tuple keys. At 63 an int64 mask
# would still tell all 64 bits apart (the top one wraps to a negative key);
# at 64 it would drop the last node's bit and merge realizations.
@pytest.mark.parametrize("n_relays", [62, 63, 64])
@pytest.mark.parametrize("scheduler", ["rqcsma", "mws"])
def test_run_once_equals_per_slot_loop_at_the_key_limit(scheduler,
                                                         n_relays):
    config = ExperimentConfig(params=wide_network(n_relays),
                              scheduler=scheduler,
                              horizon=BLOCK_SLOTS + 17, n_seeds=1,
                              decision_mode="contention", trace=True)
    fast = run_once(config, n_relays)
    ref = reference_run_once(config, n_relays)
    for name in FIELDS:
        assert getattr(fast, name) == getattr(ref, name), name
    assert ([r.to_json() for r in fast.records]
            == [r.to_json() for r in ref.records])


def test_each_realization_is_one_shared_tuple():
    params = NetworkParams(n_relays=3, rho=(0.4, 0.7, 0.5, 0.9),
                           lam=(0.3, 0.05, 0.05, 0.05))
    config = ExperimentConfig(params=params, scheduler="mws",
                              horizon=3 * BLOCK_SLOTS, n_seeds=1, trace=True)
    r = run_once(config, 5)
    shared = {id(rec.channel) for rec in r.records}
    assert len(shared) == len({rec.channel for rec in r.records})
    assert len(shared) == r.distinct_channels


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma"])
def test_an_infeasible_aware_schedule_raises(scheduler, monkeypatch):
    """Scheduling relay 1 with its channel OFF is not idled away."""
    name = f"{scheduler}_step"
    step = getattr(harness, name)

    def off_relay(row, channel, *args):
        return 1 if channel[1] == 0 else step(row, channel, *args)

    monkeypatch.setattr(harness, name, off_relay)
    params = NetworkParams(n_relays=1, rho=(0.4, 0.7), lam=(0.3, 0.1))
    config = ExperimentConfig(params=params, scheduler=scheduler,
                              horizon=200, n_seeds=1)
    with pytest.raises(ValueError, match="channel OFF"):
        run_once(config, 1)
