import json
import math
from dataclasses import replace

import pytest

from relaysim import (ExperimentConfig, NetworkParams, aggregate_ci,
                      classify_stability, parse_config, run_once, run_seeds,
                      sweep_grid)
from relaysim.harness import (MAX_TRAJECTORY_POINTS, boundary_oracle,
                              box_grid, config_to_dict, gamma_grid,
                              header_lines, sample_slots, stable_fraction)


def make_config(lam=(0.0, 0.0), rho=(0.4, 0.7), **kw):
    n = len(rho) - 1
    params = NetworkParams(n_relays=n, rho=rho, lam=lam,
                           seed=kw.pop("seed", 0))
    return ExperimentConfig(params=params, **kw)


class TestClassifyStability:
    def test_constant_trajectory(self):
        slots = tuple(range(1000))
        stable, slope = classify_stability(slots, (7,) * 1000)
        assert stable and slope == 0.0

    def test_linear_growth_unstable(self):
        slots = tuple(range(10_000))
        totals = tuple(0.02 * t for t in slots)
        stable, slope = classify_stability(slots, totals)
        assert not stable
        assert slope == pytest.approx(0.02, rel=1e-6)

    def test_sublinear_growth_stable(self):
        slots = tuple(range(10_000))
        totals = tuple(0.5 * math.sqrt(t) for t in slots)
        stable, slope = classify_stability(slots, totals)
        assert stable and 0 < slope < 5e-3

    def test_huge_final_backlog_unstable(self):
        # flat tail but the backlog already swallowed half the offered load
        slots = tuple(range(10_000))
        totals = (0.0,) * 5000 + (4000.0,) * 5000
        stable, _ = classify_stability(slots, totals, total_rate=0.5,
                                       horizon=10_000)
        assert not stable

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            classify_stability(tuple(range(50)), (0.0,) * 50)


class TestAggregateCi:
    def test_identical_values(self):
        assert aggregate_ci([3.0, 3.0, 3.0]) == (3.0, 0.0)

    def test_two_values_closed_form(self):
        mean, half = aggregate_ci([0.0, 2.0])
        # t quantile at 0.95 with one degree of freedom, times s/sqrt(n) = 1
        assert mean == pytest.approx(1.0)
        assert half == pytest.approx(6.313751514675, rel=1e-9)

    def test_deterministic(self):
        values = [1.0, 2.5, 2.0, 4.0]
        assert aggregate_ci(values) == aggregate_ci(values)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            aggregate_ci([1.0])


class TestRunOnce:
    def test_empty_offered_load(self):
        cfg = make_config(horizon=500, n_seeds=1)
        r = run_once(cfg, 0)
        assert r.q_avg == 0.0 and r.final_total == 0 and r.stable

    def test_reproducible_results_and_traces(self):
        cfg = make_config(lam=(0.3, 0.2), horizon=800, n_seeds=1, trace=True)
        a = run_once(cfg, 42)
        b = run_once(cfg, 42)
        assert a.q_avg == b.q_avg
        assert a.totals == b.totals
        ser_a = "\n".join(r.to_json() for r in a.records)
        ser_b = "\n".join(r.to_json() for r in b.records)
        assert ser_a == ser_b

    def test_different_seeds_differ(self):
        cfg = make_config(lam=(0.3, 0.2), horizon=800, n_seeds=1)
        assert run_once(cfg, 1).totals != run_once(cfg, 2).totals

    @pytest.mark.parametrize("scheduler", ["mws", "rqcsma", "qcsma", "ub"])
    def test_all_schedulers_run(self, scheduler):
        cfg = make_config(lam=(0.2, 0.1), horizon=400, n_seeds=1,
                          scheduler=scheduler, trace=True)
        r = run_once(cfg, 3)
        assert len(r.records) == 400
        served = [rec for rec in r.records if rec.served_queue != "none"]
        assert served, "scheduler never served anything"

    def test_sampler_mode_runs(self):
        cfg = make_config(lam=(0.2, 0.1), horizon=400, n_seeds=1,
                          decision_mode="sampler")
        assert run_once(cfg, 3).final_total < 100

    def test_stable_point_classifies_stable(self):
        cfg = make_config(lam=(0.59, 0.19), horizon=10_000, n_seeds=1)
        r = run_once(cfg, 0)
        assert r.stable

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_once(make_config(horizon=10, n_seeds=1), -1)

    def test_short_horizon_left_unclassified(self):
        cfg = make_config(lam=(0.9, 0.5), horizon=50, n_seeds=3)
        results = run_seeds(cfg)
        assert all(r.stable is None and r.slope is None for r in results)
        assert stable_fraction(results) is None
        row, = sweep_grid(cfg, [(0.9, 0.5)])
        assert row["stable_fraction"] is None

    def test_classification_starts_at_100_samples(self):
        cfg = make_config(lam=(0.3, 0.2), horizon=100, n_seeds=1)
        r = run_once(cfg, 0)
        assert r.stable is not None and r.slope is not None
        assert run_once(replace(cfg, horizon=99), 0).stable is None

    def test_trace_records_consistent(self):
        cfg = make_config(lam=(0.4, 0.3), horizon=300, n_seeds=1, trace=True)
        r = run_once(cfg, 7)
        for rec in r.records:
            if rec.served_queue.startswith("relay"):
                assert rec.transmission == int(rec.served_queue.split("-")[1])
                assert rec.channel[rec.transmission] == 1
            if rec.transmission is None:
                assert rec.served_queue == "none"


class TestSweep:
    def test_serial_equals_parallel(self):
        cfg = make_config(horizon=400, n_seeds=2)
        grid = box_grid(3, 0.4, 0.4)
        serial = sweep_grid(cfg, grid, workers=1)
        parallel = sweep_grid(cfg, grid, workers=2)
        assert serial == parallel

    def test_zero_load_grid_all_stable(self):
        cfg = make_config(horizon=400, n_seeds=2)
        rows = sweep_grid(cfg, [(0.0, 0.0), (0.0, 0.0)])
        assert all(row["stable_fraction"] == 1.0 for row in rows)

    def test_invalid_point_reported_not_fatal(self):
        cfg = make_config(horizon=400, n_seeds=1)
        rows = sweep_grid(cfg, [(0.1, 0.1), (2.0, 0.0)])
        assert "error" in rows[1] and "mean_q_avg" in rows[0]

    def test_non_finite_point_reported_not_fatal(self):
        cfg = make_config(horizon=400, n_seeds=1)
        rows = sweep_grid(cfg, [(math.nan, 0.1), (0.1, 0.1), (0.1, math.inf)])
        assert "error" in rows[0] and "error" in rows[2]
        assert "mean_q_avg" in rows[1]

    def test_gamma_grid(self):
        grid = gamma_grid((0.4, 0.05, 0.05, 0.05), [0.0, 0.1, 0.2])
        assert grid[2] == pytest.approx((0.6, 0.05, 0.05, 0.05))
        assert grid[0] == (0.4, 0.05, 0.05, 0.05)

    def test_box_grid_shape(self):
        grid = box_grid(17, 0.8, 0.8)
        assert len(grid) == 289
        assert grid[0] == (0.0, 0.0) and grid[-1] == (0.8, 0.8)


class TestConfigFile:
    def test_round_trip(self):
        cfg = make_config(lam=(0.59, 0.19), horizon=5000, n_seeds=4,
                          scheduler="mws", seed=17)
        text = "\n".join(f"{k} = {v}" for k, v in config_to_dict(cfg).items())
        parsed = parse_config(text)
        assert parsed == cfg

    def test_defaults(self):
        cfg = parse_config("n_relays = 1\nrho = 0.4, 0.7\nlambda = 0.1, 0.1\n")
        assert cfg.scheduler == "rqcsma"
        assert cfg.horizon == 10_000
        assert cfg.params.beta == 0.1

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nn_relays = 1\nrho = 1, 1\n"
                           "lambda = 0, 0\n")
        assert cfg.params.rho == (1.0, 1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config("bogus = 3\n")

    def test_empty_config_is_dataclass_defaults(self):
        assert parse_config("") == ExperimentConfig(
            NetworkParams(1, (0.4, 0.7), (0.0, 0.0)))

    def test_relay_count_follows_rho(self):
        cfg = parse_config("rho = 0.4, 0.7, 0.8, 0.7\n")
        assert cfg.params.n_relays == 3
        assert cfg.params.lam == (0.0,) * 4

    def test_n_relays_without_rho_rejected(self):
        with pytest.raises(ValueError, match=r"length N\+1 = 3, got 2"):
            parse_config("n_relays = 2\n")

    def test_overriding_rho_brings_its_relay_count(self):
        cfg = parse_config("n_relays = 1\nrho = 0.4, 0.7\nseed = 4\n",
                           {"rho": "0.4,0.7,0.8"})
        assert cfg.params.n_relays == 2 and cfg.params.seed == 4

    def test_lambda_of_other_length_than_rho_rejected(self):
        with pytest.raises(ValueError, match=r"length N\+1 = 3, got 3 and 2"):
            parse_config("lambda = 0.1, 0.1\n", {"rho": "0.4,0.7,0.8"})

    def test_bad_value_names_its_key(self):
        with pytest.raises(ValueError, match="^horizon: "):
            parse_config("horizon = x\n")

    def test_header_lines_carry_seed(self):
        cfg = make_config(seed=123)
        header = "\n".join(header_lines(cfg))
        assert "# seed = 123" in header
        assert "# scheduler = rqcsma" in header


def test_run_seeds_uses_base_seed():
    cfg = make_config(lam=(0.2, 0.1), horizon=400, n_seeds=3, seed=50)
    results = run_seeds(cfg)
    assert [r.seed for r in results] == [50, 51, 52]


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma"])
def test_channel_aware_schedulers_only_emit_feasible(scheduler):
    from relaysim import feasible_schedules

    cfg = make_config(lam=(0.4, 0.3), rho=(0.3, 0.5), horizon=2000,
                      n_seeds=1, scheduler=scheduler, trace=True)
    r = run_once(cfg, 9)
    for rec in r.records:
        assert rec.transmission in feasible_schedules(cfg.params, rec.channel)


def test_oracle_monotonicity_beyond_boundary():
    # once a ray scale is unstable, larger scales stay unstable
    from relaysim.harness import _majority_stable

    cfg = make_config(horizon=50_000, n_seeds=3, scheduler="mws")
    u = 2 ** -0.5
    votes = [_majority_stable(cfg, (c * u, c * u)) for c in (0.70, 0.80)]
    assert votes == [False, False]


@pytest.mark.parametrize("angle", [100.0, -5.0, 180.0])
def test_oracle_rejects_off_quadrant_angle(angle):
    cfg = make_config(horizon=100, n_seeds=1, scheduler="mws")
    with pytest.raises(ValueError, match=r"angle must lie in \[0, 90\]"):
        boundary_oracle(0.4, 0.7, angle, cfg)


def test_oracle_runs_its_oracle_config(monkeypatch):
    from relaysim import harness

    cfg = make_config(lam=(0.2, 0.2), horizon=100, n_seeds=1)
    oracle = harness.oracle_config(0.3, 0.6, cfg)
    assert oracle.params.rho == (0.3, 0.6)
    assert oracle.params.lam == (0.0, 0.0)
    assert oracle.horizon == 50_000
    seen = []
    monkeypatch.setattr(harness, "_majority_stable",
                        lambda config, lam: seen.append(config) or True)
    assert boundary_oracle(0.3, 0.6, 45.0, cfg)["capped"]
    assert seen == [oracle]


@pytest.mark.parametrize("horizon", [1, 2, 99, 10_000, 10_001, 50_001])
def test_sample_slots_stride(horizon):
    slots = sample_slots(horizon)
    assert slots[0] == 0 and slots[-1] == horizon - 1
    assert len(slots) <= MAX_TRAJECTORY_POINTS + 1
    stride = math.ceil(horizon / MAX_TRAJECTORY_POINTS)
    gaps = [b - a for a, b in zip(slots, slots[1:])]
    assert gaps[:-1] == [stride] * (len(gaps) - 1)
    assert all(0 < g <= stride for g in gaps)
