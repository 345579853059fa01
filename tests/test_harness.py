import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relaysim
from relaysim import (ExperimentConfig, NetworkParams, aggregate_ci,
                      classify_stability, parse_config, run_once, run_seeds,
                      sweep_grid)
from relaysim import harness
from relaysim.harness import (DECISION_MODES, MAX_TRAJECTORY_POINTS,
                              STABLE_SLOPE, boundary_oracle, box_grid,
                              config_to_dict, gamma_grid, header_lines,
                              parse_floats, sample_slots, stable_fraction)
from relaysim.lanes import run_lanes
from relaysim.scheduling import SCHEDULER_KINDS


def make_config(lam=(0.0, 0.0), rho=(0.4, 0.7), **kw):
    n = len(rho) - 1
    params = NetworkParams(n_relays=n, rho=rho, lam=lam,
                           seed=kw.pop("seed", 0))
    return ExperimentConfig(params=params, **kw)


def run_probe(*args):
    """Run a fresh interpreter with `args`, importing relaysim from this
    source tree."""
    src = Path(relaysim.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))


class TestClassifyStability:
    def test_constant_trajectory(self):
        slots = tuple(range(1000))
        stable, slope = classify_stability(slots, (7,) * 1000, 0.0, 1000)
        assert stable and slope == 0.0

    def test_linear_growth_unstable(self):
        slots = tuple(range(10_000))
        totals = tuple(0.02 * t for t in slots)
        stable, slope = classify_stability(slots, totals, 0.0, 10_000)
        assert not stable
        assert slope == pytest.approx(0.02, rel=1e-6)

    def test_sublinear_growth_stable(self):
        slots = tuple(range(10_000))
        totals = tuple(0.5 * math.sqrt(t) for t in slots)
        stable, slope = classify_stability(slots, totals, 0.0, 10_000)
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
            classify_stability(tuple(range(50)), (0.0,) * 50, 0.0, 50)

    @pytest.mark.parametrize("n_totals", [149, 300])
    def test_rejects_a_length_mismatch(self, n_totals):
        """Too few or too many totals for the slots is an error naming both
        lengths, for a plain sequence and for the shared index alike."""
        for slots in (tuple(range(150)), sample_slots(150)):
            with pytest.raises(ValueError,
                               match=f"{n_totals} totals for 150 sampled"):
                classify_stability(slots, (0,) * n_totals, 0.0, 150)

    @pytest.mark.parametrize("horizon", [100, 1_061, 10_000, 50_001])
    @pytest.mark.parametrize("drift", [0.0, 0.004, 0.3])
    def test_same_bits_for_any_slots_and_totals(self, horizon, drift):
        """The shared sample_slots tuple (whose fit is cached) and an equal
        list, with totals as a tuple of ints or an int64 array, give the
        bits the fit gives when computed from scratch."""
        slots = sample_slots(horizon)
        walk = np.random.default_rng(horizon).integers(-3, 4, len(slots))
        totals = np.maximum(np.cumsum(walk) + np.round(
            drift * np.asarray(slots)).astype(np.int64), 0)
        rate = 0.3
        xs = np.asarray(list(slots), dtype=float)
        ys = totals.astype(float)
        tail = xs >= horizon / 2.0
        x, y = xs[tail], ys[tail]
        xm = x - x.mean()
        denom = (xm * xm).sum()
        slope = float((xm * (y - y.mean())).sum() / denom)
        expected = (bool(slope < STABLE_SLOPE
                         and ys[-1] < 0.5 * horizon * rate), slope.hex())
        for s in (slots, list(slots)):
            for t in (tuple(totals.tolist()), totals):
                stable, got = classify_stability(s, t, rate, horizon)
                assert (stable, got.hex()) == expected

    def test_one_cached_fit_per_horizon(self):
        """Every result at one horizon, from either engine, classifies
        with the one fit of that horizon's sampled slots."""
        harness._sampled_tail_fit.cache_clear()
        cfg = make_config(lam=(0.3, 0.2), horizon=1_234, n_seeds=2)
        results = [*run_seeds(cfg),
                   *run_lanes(cfg, [((0.3, 0.2), 0), ((0.1, 0.1), 5)])]
        assert all(r.stable is not None for r in results)
        info = harness._sampled_tail_fit.cache_info()
        assert (info.misses, info.hits) == (1, 3)


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

    def test_equals_scipy_stats_interval(self):
        from scipy import stats

        rng = np.random.default_rng(2017)
        for n in range(2, 501):
            values = rng.exponential(3.0, n).tolist()
            sd = float(np.std(values, ddof=1))
            t = float(stats.t.ppf(0.5 + 0.90 / 2.0, n - 1))
            half = t * sd / math.sqrt(n)
            assert aggregate_ci(values) == (float(np.mean(values)), half)

    def test_quantile_table_is_stdtrit_bit_for_bit(self):
        # A scipy whose stdtrit rounds differently fails here, naming each
        # count with the table's value and scipy's.
        from scipy.special import stdtrit

        level = 0.5 + harness.CI_LEVEL / 2
        table = harness._T_QUANTILES
        assert harness.MAX_TABLED_SEEDS == 64 and len(table) == 63
        pairs = [(n, t, float(stdtrit(n - 1, level)))
                 for n, t in enumerate(table, start=2)]
        differ = [(n, t, s) for n, t, s in pairs if t != s]
        assert differ == [], "(n, table, stdtrit): " + repr(differ)
        above = harness.MAX_TABLED_SEEDS + 1
        assert harness._t_quantile(above) == float(stdtrit(above - 1, level))


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

    def test_pooled_workers_inherit_the_quantile(self, tmp_path):
        # A fresh process, so the quantile is not cached yet; each stdtrit
        # call logs its process id, and the pooled sweep runs first. 65
        # seeds is the first count above harness.MAX_TABLED_SEEDS, so the
        # quantile comes from scipy.
        probe = """
import json, os, sys
import scipy.special
from relaysim import ExperimentConfig, NetworkParams, sweep_grid
from relaysim.harness import box_grid
stdtrit = scipy.special.stdtrit
def logged(df, p):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return stdtrit(df, p)
scipy.special.stdtrit = logged
cfg = ExperimentConfig(params=NetworkParams(n_relays=1, rho=(0.4, 0.7),
                                            lam=(0.0, 0.0), seed=5),
                       horizon=400, n_seeds=65)
grid = box_grid(3, 0.4, 0.4)
pooled = sweep_grid(cfg, grid, workers=2)
serial = sweep_grid(cfg, grid, workers=1)
print(json.dumps({"pid": os.getpid(), "equal": pooled == serial,
                  "ci_half": [row["ci_half"] for row in pooled]}))
"""
        log = tmp_path / "stdtrit.log"
        src = Path(relaysim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(log)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        out = json.loads(proc.stdout)
        assert out["equal"]
        assert len(out["ci_half"]) == 9 and any(out["ci_half"])
        assert log.read_text().split() == [str(out["pid"])]

    def test_pooled_workers_build_no_row(self, tmp_path):
        # Under fork the workers inherit the logging wrapper, so a worker
        # that built a row would log its own process id.
        probe = """
import multiprocessing, os, sys
multiprocessing.set_start_method("fork")
from relaysim import ExperimentConfig, NetworkParams, harness
from relaysim.harness import box_grid, sweep_grid
aggregate_ci = harness.aggregate_ci
def logged(values):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    return aggregate_ci(values)
harness.aggregate_ci = logged
cfg = ExperimentConfig(params=NetworkParams(n_relays=1, rho=(0.4, 0.7),
                                            lam=(0.0, 0.0), seed=5),
                       horizon=400, n_seeds=3)
sweep_grid(cfg, box_grid(3, 0.4, 0.4), workers=2)
print(os.getpid())
"""
        log = tmp_path / "aggregate_ci.log"
        proc = run_probe("-c", probe, log)
        assert log.read_text().split() == [proc.stdout.strip()] * 9

    def test_spawned_pool_rows_equal_serial_rows(self, tmp_path):
        # spawn starts fresh interpreters that inherit nothing of the
        # parent, as on macOS and Windows.
        probe = """
import json, multiprocessing
from relaysim import ExperimentConfig, NetworkParams
from relaysim.harness import box_grid, sweep_grid
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    cfg = ExperimentConfig(params=NetworkParams(n_relays=1, rho=(0.4, 0.7),
                                                lam=(0.0, 0.0), seed=5),
                           horizon=400, n_seeds=3)
    grid = box_grid(3, 0.4, 0.4) + [(1.5, 0.0)]
    pooled = sweep_grid(cfg, grid, workers=2)
    print(json.dumps({"equal": pooled == sweep_grid(cfg, grid),
                      "errors": ["error" in row for row in pooled]}))
"""
        script = tmp_path / "spawned.py"
        script.write_text(probe)
        out = json.loads(run_probe(script).stdout)
        assert out == {"equal": True, "errors": [False] * 9 + [True]}

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # A stand-in pool runs the parts in this process and records the
        # size asked for; no real process is started.
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg = make_config(horizon=400, n_seeds=2)
        grid = box_grid(3, 0.4, 0.4)
        serial = sweep_grid(cfg, grid, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep_grid(cfg, grid, workers=1000) == serial
        assert sweep_grid(cfg, grid, workers=2) == serial
        assert asked == [3, 2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_rejected(self, monkeypatch, workers):
        import relaysim.lanes

        ran = []
        monkeypatch.setattr(relaysim.lanes, "lane_outcomes",
                            lambda *args: ran.append(args) or [])
        cfg = make_config(horizon=400, n_seeds=2)
        with pytest.raises(ValueError,
                           match=f"^workers must be >= 1, got {workers}$"):
            sweep_grid(cfg, box_grid(3, 0.4, 0.4), workers=workers)
        assert ran == []

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

    @pytest.mark.parametrize("text,lineno", [("horizon 5\n", 1),
                                             ("seed = 2\n# c\nrho\n", 3)])
    def test_line_without_equals_rejected(self, text, lineno):
        with pytest.raises(ValueError,
                           match=f"^line {lineno}: expected key = value$"):
            parse_config(text)

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

    @pytest.mark.parametrize("text", ["0.4,0.7", "0.4, 0.7", "0.4 0.7",
                                      " 0.4 ,0.7 "])
    def test_list_separators(self, text):
        assert parse_floats(text) == (0.4, 0.7)

    @pytest.mark.parametrize("text", ["0.4,,0.7", ",0.4,0.7", "0.4,0.7,",
                                      "0.4, ,0.7"])
    def test_empty_list_entry_rejected(self, text):
        with pytest.raises(ValueError,
                           match=f"^empty entry in the list '{text}'$"):
            parse_floats(text)

    def test_bad_value_names_its_key(self):
        with pytest.raises(ValueError, match="^horizon: "):
            parse_config("horizon = x\n")

    @pytest.mark.parametrize("a_max,law", [(1, "bernoulli"),
                                           (2, "binomial"), (3, "binomial")])
    def test_arrival_law_follows_a_max(self, a_max, law):
        cfg = make_config(lam=(0.5, 0.5))
        cfg = replace(cfg, params=replace(cfg.params, a_max=a_max))
        assert f"# arrival_law = {law}" in header_lines(cfg)
        assert parse_config("\n".join(line.removeprefix("# ")
                                      for line in header_lines(cfg))) == cfg
        text = f"a_max = {a_max}\nlambda = 0.5, 0.5\narrival_law = {law}\n"
        assert parse_config(text) == cfg
        other = "binomial" if law == "bernoulli" else "bernoulli"
        with pytest.raises(ValueError, match=f"^arrival_law: a_max = {a_max} "
                                             f"gives {law}, got '{other}'$"):
            parse_config(text.replace(law, other))

    def test_header_lines_carry_seed(self):
        cfg = make_config(seed=123)
        header = "\n".join(header_lines(cfg))
        assert "# seed = 123" in header
        assert "# scheduler = rqcsma" in header


RESULT_FIELDS = ("seed", "q_avg", "slots", "totals", "final_total", "stable",
                 "slope", "memory_entries", "distinct_channels")


@pytest.mark.parametrize("kw,message", [
    ({"horizon": 100.0}, "horizon must be an integer, got 100.0"),
    ({"horizon": 2.5}, "horizon must be an integer, got 2.5"),
    ({"n_seeds": 2.0}, "n_seeds must be an integer, got 2.0"),
    ({"n_seeds": 2.5}, "n_seeds must be an integer, got 2.5")])
def test_non_integer_run_counts_rejected(kw, message):
    with pytest.raises(ValueError, match=message):
        make_config(**kw)


def test_integer_like_run_counts_become_ints():
    cfg = make_config(horizon=np.int64(300), n_seeds=np.int32(2))
    assert (cfg.horizon, cfg.n_seeds) == (300, 2)
    assert type(cfg.horizon) is int and type(cfg.n_seeds) is int


def test_sink_without_trace_rejected():
    # an untraced run makes no record, so the sink would never be called
    cfg = make_config(lam=(0.3, 0.2), horizon=50, n_seeds=2)
    records = []
    with pytest.raises(ValueError, match="a sink needs config.trace"):
        run_once(cfg, 0, sink=records.append)
    with pytest.raises(ValueError, match="a sink needs config.trace"):
        run_seeds(cfg, sink=records.append)
    assert records == []


@pytest.mark.parametrize("rho,lam", [
    ((0.4, 0.7), (0.45, 0.2)),
    ((0.4, 0.7, 0.8, 0.7), (0.4, 0.05, 0.05, 0.05))])
@pytest.mark.parametrize("mode", DECISION_MODES)
@pytest.mark.parametrize("scheduler", SCHEDULER_KINDS)
def test_sink_gets_the_records_run_once_keeps(scheduler, mode, rho, lam):
    cfg = make_config(lam=lam, rho=rho, horizon=1500, n_seeds=2, seed=11,
                      scheduler=scheduler, decision_mode=mode, trace=True)
    kept = run_once(cfg, 11)
    lines = []
    sunk = run_once(cfg, 11, sink=lambda record: lines.append(
        record.to_json()))
    assert lines == [r.to_json() for r in kept.records]
    assert len(lines) == cfg.horizon and sunk.records == []
    for name in RESULT_FIELDS:
        assert getattr(sunk, name) == getattr(kept, name), name

    streamed = []
    results = run_seeds(cfg, sink=streamed.append)
    assert [r.to_json() for r in streamed] == lines
    assert [r.records for r in results] == [[], []]
    for name in RESULT_FIELDS:
        assert getattr(results[0], name) == getattr(kept, name), name


@pytest.mark.parametrize("rho,lam", [
    ((0.4, 0.7), (0.45, 0.2)),
    ((0.4, 0.7, 0.8, 0.7), (0.4, 0.05, 0.05, 0.05))])
@pytest.mark.parametrize("scheduler", SCHEDULER_KINDS)
def test_only_the_csma_schedulers_read_the_decision_mode(scheduler, rho, lam):
    from relaysim.lanes import run_lanes

    runs = []
    for mode in DECISION_MODES:
        cfg = make_config(lam=lam, rho=rho, horizon=1500, seed=11,
                          scheduler=scheduler, decision_mode=mode, trace=True)
        assert f"# decision_mode = {mode}" in header_lines(cfg)
        (lane,) = run_lanes(replace(cfg, trace=False), [(lam, 11)])
        runs.append((run_once(cfg, 11), lane))
    (traced, lane), (traced_sampler, lane_sampler) = runs
    same = ([r.to_json() for r in traced.records]
            == [r.to_json() for r in traced_sampler.records])
    assert same == (scheduler in ("mws", "ub"))
    if same:
        for name in RESULT_FIELDS:
            assert getattr(traced, name) == getattr(traced_sampler, name)
            assert getattr(lane, name) == getattr(lane_sampler, name)


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


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"), 0.0,
                                        -0.01])
def test_oracle_rejects_bad_resolution(resolution, monkeypatch):
    from relaysim import harness

    def probe(config, lam):
        raise AssertionError("no run before the resolution is checked")

    monkeypatch.setattr(harness, "_majority_stable", probe)
    cfg = make_config(horizon=100, n_seeds=1, scheduler="mws")
    with pytest.raises(ValueError, match="resolution must be a positive "
                                         "finite number"):
        boundary_oracle(0.4, 0.7, 30.0, cfg, resolution=resolution)


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


def scripted_runs(monkeypatch, verdict):
    """Replace harness.run_seeds and harness.run_once by runs whose stable
    verdict is verdict(lam, seed). Returns the log of (entry point, seeds)
    calls they receive, in call order."""
    from types import SimpleNamespace

    from relaysim import harness

    log = []

    def result(config, seed):
        return SimpleNamespace(seed=seed,
                               stable=verdict(config.params.lam, seed))

    def fake_run_seeds(config):
        assert not config.trace
        seeds = [config.params.seed + k for k in range(config.n_seeds)]
        log.append(("run_seeds", seeds))
        return [result(config, s) for s in seeds]

    def fake_run_once(config, seed):
        assert not config.trace
        log.append(("run_once", [seed]))
        return result(config, seed)

    monkeypatch.setattr(harness, "run_seeds", fake_run_seeds)
    monkeypatch.setattr(harness, "run_once", fake_run_once)
    return log


def deciding_prefix(votes):
    """Length of the shortest prefix of the seed votes after which the
    majority of all of them is known."""
    n = len(votes)
    for k in range(1, n + 1):
        stable = sum(votes[:k])
        if stable > n / 2 or k - stable >= n / 2:
            return k
    raise AssertionError("the full vote is always decided")


@pytest.mark.parametrize("n_seeds", [1, 2, 3, 4, 5])
def test_majority_stops_once_decided(monkeypatch, n_seeds):
    from itertools import product

    from relaysim.harness import _majority_stable

    base = 40
    cfg = make_config(horizon=100, n_seeds=n_seeds, scheduler="mws",
                      seed=base, trace=True)
    first = n_seeds // 2 + 1
    for votes in product([True, False], repeat=n_seeds):
        log = scripted_runs(monkeypatch,
                            lambda lam, seed: votes[seed - base])
        verdict = _majority_stable(cfg, (0.1, 0.2))
        assert verdict == (sum(votes) > n_seeds / 2), votes

        assert log[0] == ("run_seeds", list(range(base, base + first)))
        assert all(entry == "run_once" for entry, _ in log[1:])
        seeds = [s for _, run in log for s in run]
        runs = max(first, deciding_prefix(votes))
        assert seeds == list(range(base, base + runs)), votes


@pytest.mark.parametrize("n_seeds", [3, 4])
def test_majority_equals_all_seeds_on_real_runs(monkeypatch, n_seeds):
    """At points inside, outside and near the one-relay boundary, the early
    stop gives the majority of all seeds, and it both stops early and runs
    past n // 2 + 1 seeds somewhere on this set of points."""
    from relaysim import RateRegion2, harness

    region = RateRegion2(0.4, 0.7)
    cfg = make_config(horizon=2000, n_seeds=n_seeds, scheduler="mws")
    runs = []
    real_run_once = harness.run_once

    def counted(config, seed, **kwargs):
        runs[-1] += 1
        return real_run_once(config, seed, **kwargs)

    for angle in (0.0, 60.0, 90.0):
        bx, by = region.boundary(angle)
        for scale in (0.5, 0.97, 1.0, 1.03, 1.3):
            lam = (scale * bx, scale * by)
            everyone = run_seeds(replace(cfg, params=replace(cfg.params,
                                                             lam=lam)))
            runs.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "run_once", counted)
                verdict = harness._majority_stable(cfg, lam)
            assert verdict == (sum(r.stable for r in everyone)
                               > n_seeds / 2), (angle, scale)
    first = n_seeds // 2 + 1
    assert all(first <= k <= n_seeds for k in runs)
    assert first in runs and max(runs) > first


def test_oracle_makes_one_run_seeds_call_per_probe(monkeypatch):
    from relaysim import harness

    # Seed-dependent verdicts, so that some probes split their votes.
    log = scripted_runs(monkeypatch,
                        lambda lam, seed: sum(lam) < 0.6 + 0.1 * (seed % 3))
    probes = []
    majority = harness._majority_stable

    def probe(config, lam):
        probes.append(len(log))
        return majority(config, lam)

    monkeypatch.setattr(harness, "_majority_stable", probe)
    cfg = make_config(horizon=100, n_seeds=3, scheduler="mws")
    boundary_oracle(0.4, 0.7, 30.0, cfg, resolution=0.04)
    calls = [k for k, (entry, _) in enumerate(log) if entry == "run_seeds"]
    assert calls == probes
    assert len(log) > len(probes)  # some probe ran its third seed


@pytest.mark.parametrize("horizon", [1, 2, 99, 100, 101, 10_000, 10_001,
                                     50_001, 99_999])
def test_sample_slots_stride(horizon):
    slots = sample_slots(horizon)
    assert sample_slots(horizon) is slots  # one shared tuple per horizon
    assert slots[0] == 0 and slots[-1] == horizon - 1
    assert len(slots) <= MAX_TRAJECTORY_POINTS + 1
    stride = math.ceil(horizon / MAX_TRAJECTORY_POINTS)
    gaps = [b - a for a, b in zip(slots, slots[1:])]
    assert gaps[:-1] == [stride] * (len(gaps) - 1)
    assert all(0 < g <= stride for g in gaps)


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma"])
def test_results_at_one_horizon_share_their_slots(scheduler):
    cfg = make_config(lam=(0.3, 0.2), horizon=1_500, n_seeds=3,
                      scheduler=scheduler)
    shared = sample_slots(cfg.horizon)
    results = [*run_seeds(cfg), run_once(cfg, 9),
               *run_lanes(cfg, [((0.3, 0.2), 0), ((0.1, 0.1), 5)])]
    assert all(r.slots is shared for r in results)


def assert_one_object_per_value(result):
    # backlogs above 256 repeat, and Python caches no int that large
    big = [v for v in result.totals if v > 256]
    assert len(set(big)) < len(big)
    assert len({id(v) for v in result.totals}) == len(set(result.totals))


@pytest.mark.parametrize("scheduler", ["qcsma", "ub"])
def test_run_once_totals_hold_one_object_per_value(scheduler):
    cfg = make_config(lam=(0.6, 0.05, 0.05, 0.05), rho=(0.4, 0.7, 0.8, 0.7),
                      horizon=10_000, scheduler=scheduler)
    assert_one_object_per_value(run_once(cfg, 0))


@pytest.mark.parametrize("scheduler", ["mws", "rqcsma"])
def test_lane_totals_hold_one_object_per_value(scheduler):
    cfg = make_config(horizon=10_000, scheduler=scheduler)
    results = list(run_lanes(cfg, [((0.9, 0.5), 0), ((0.8, 0.3), 1)]))
    assert [r.stable for r in results] == [False, False]
    for result in results:
        assert_one_object_per_value(result)


def test_each_extra_seed_keeps_only_its_own_trajectory():
    """A result at horizon 1e4 keeps its totals (one tuple of 10 001
    entries, about 80 KB), not a copy of the 10 001 sampled slots as well
    (about 0.36 MB more)."""
    cfg = make_config(lam=(0.3, 0.2), horizon=10_000, scheduler="mws")
    # warm up, so that neither the shared index nor any other cache
    # filled by a first run counts as a seed's cost
    run_seeds(replace(cfg, n_seeds=1))

    def held(n_seeds):
        """Traced bytes while the results of n_seeds seeds are alive."""
        tracemalloc.start()
        try:
            results = run_seeds(replace(cfg, n_seeds=n_seeds))
            assert len(results) == n_seeds
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert (held(6) - held(2)) / 4 < 150_000
