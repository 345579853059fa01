import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaysim
from relaysim import ExperimentConfig, NetworkParams, analysis, cli, harness
from relaysim.cli import main
from relaysim.harness import DECISION_MODES, parse_config
from relaysim.scheduling import SCHEDULER_KINDS


def read_lines(path):
    return path.read_text().splitlines()


def test_run_summary_and_trace(tmp_path):
    out = tmp_path / "summary.json"
    trace = tmp_path / "trace.jsonl"
    main(["run", "--rho", "0.4,0.7", "--lambda", "0.3,0.2",
          "--horizon", "400", "--seeds", "2", "--seed", "11",
          "--out", str(out), "--trace", str(trace)])

    summary = json.loads(out.read_text())
    assert summary["config"]["seed"] == 11
    assert len(summary["per_seed"]) == 2
    assert "q_avg_ci90_half" in summary

    lines = read_lines(trace)
    header = json.loads(lines[0])
    assert header["config"]["scheduler"] == "rqcsma"
    assert len(lines) == 401
    row = json.loads(lines[1])
    assert set(row) == {"t", "channel", "decision", "transmission",
                        "served_queue", "arrivals", "queues_after"}


def test_sweep_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--rho", "0.4,0.7", "--horizon", "300", "--seeds", "2",
            "--grid", "3", "--l0-max", "0.4", "--l1-max", "0.4"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    lines = read_lines(a)
    assert lines[0].startswith("# n_relays")
    header_idx = next(i for i, l in enumerate(lines)
                      if l.startswith("lambda0,"))
    assert len(lines) - header_idx - 1 == 9


def test_region_csv_matches_closed_form(tmp_path):
    out = tmp_path / "region.csv"
    main(["region", "--rho", "0.4,0.7", "--n-angles", "5",
          "--out", str(out)])
    lines = [l for l in read_lines(out) if not l.startswith("#")]
    assert lines[0] == "angle_deg,lambda0,lambda1"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.7, abs=1e-4)
    assert float(first[2]) == 0.0


def test_dtmc_check_passes(tmp_path):
    out = tmp_path / "dtmc.json"
    main(["dtmc-check", "--trials", "5", "--seed", "3", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["pass"]
    assert report["max_product_form_gap"] < 1e-8
    assert report["max_detailed_balance_violation"] < 1e-10


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_dtmc_check_without_trials_rejected(tmp_path, trials):
    out = tmp_path / "dtmc.json"
    with pytest.raises(SystemExit) as info:
        main(["dtmc-check", "--trials", trials, "--out", str(out)])
    assert info.value.code == (f"relaysim dtmc-check: trials must be >= 1, "
                               f"got {trials}")
    assert not out.exists()


def test_failing_dtmc_check_exits_1_after_writing_its_report(tmp_path,
                                                              monkeypatch):
    report = {"chains_checked": 1, "max_product_form_gap": 0.5,
              "max_detailed_balance_violation": 0.0, "pass": False}
    monkeypatch.setattr(analysis, "dtmc_check", lambda trials, seed: report)
    out = tmp_path / "dtmc.json"
    with pytest.raises(SystemExit) as info:
        main(["dtmc-check", "--out", str(out)])
    assert info.value.code == 1
    assert json.loads(out.read_text()) == report


def test_dtmc_check_without_trials_exit_status(tmp_path):
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "dtmc-check", "--trials", "0"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim dtmc-check: trials must be >= 1, got 0"]


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_relays = 1\nrho = 0.4, 0.7\nlambda = 0.2, 0.1\n"
                   "horizon = 300\nn_seeds = 2\nscheduler = mws\n")
    out = tmp_path / "summary.json"
    main(["run", "-c", str(cfg), "--out", str(out)])
    summary = json.loads(out.read_text())
    assert summary["config"]["scheduler"] == "mws"
    assert summary["stable_fraction"] == 1.0


# sha256 of each output, recorded from the per-slot engine that drew every
# stream one slot at a time. Outputs must not change by a byte.
PINNED = {
    "run-rqcsma-n1": (
        ["run", "--rho", "0.4,0.7", "--lambda", "0.45,0.2", "--scheduler",
         "rqcsma", "--horizon", "2500", "--seeds", "2", "--seed", "5"],
        "c40bd45229facfe9a9fbfe0504c0c3955580822cd132d3c2671c75e8c85f2ce3",
        "6f5d93e2c23e848462d3d609a3d4e72c1919e6a53630969cff843b3b7fc66ea0"),
    "run-rqcsma-sampler-n1": (
        ["run", "--rho", "0.4,0.7", "--lambda", "0.5,0.15", "--scheduler",
         "rqcsma", "--decision-mode", "sampler", "--horizon", "1500",
         "--seeds", "2", "--seed", "8"],
        "df21adf21d1066aa6dc2523f1395142278c9457878537a63beb9adbc392fc01e",
        "c4b554b06542f981e83b9da2d12ee635e34fb03b454db0c93eed2ff120c003aa"),
    "run-qcsma-n3": (
        ["run", "--rho", "0.4,0.7,0.8,0.7", "--lambda", "0.4,0.05,0.05,0.05",
         "--scheduler", "qcsma", "--horizon", "2500", "--seeds", "2",
         "--seed", "9"],
        "0bbe8e646c20f577a85f21a5b64e365389acb637863290d86ec3753c6a774361",
        "80dc130bb46bc15d086284c162f51bccb00df5ba814f0a3165accd3be973076f"),
    "run-mws-n3": (
        ["run", "--rho", "0.4,0.7,0.8,0.7", "--lambda", "0.6,0.05,0.05,0.05",
         "--scheduler", "mws", "--horizon", "2500", "--seeds", "2",
         "--seed", "4"],
        "78f188dadcbfcc2ae87e003afa3f932ab770c0749f6a05ed3610a776f4303bb9",
        "4a1dab89258d9cb2e3cb84c244852b7e0916057513dac4f47f0d08c3569a9f7e"),
    "run-ub-n3": (
        ["run", "--rho", "0.4,0.7,0.8,0.7", "--lambda", "0.3,0.05,0.05,0.05",
         "--scheduler", "ub", "--horizon", "2500", "--seeds", "2",
         "--seed", "6"],
        "1d88e248e0ef8508b956f4fe0e9588571c6fd53cf0b1db708afc3fb1c9c1e51c",
        "87dfff82ebc7383f346d64356441e987317b602d9ac07e1bd8e0616dc720f520"),
    "sweep-box-n1": (
        ["sweep", "--rho", "0.4,0.7", "--grid", "3", "--l0-max", "0.6",
         "--l1-max", "0.6", "--horizon", "1500", "--seeds", "2", "--seed",
         "3"],
        "c723b9f2f21c70a60c149b1b5b28d1a0052eeb2ec1ea7eabedf5bb37e562e533",
        None),
    "sweep-box-error-n1": (
        ["sweep", "--rho", "0.4,0.7", "--grid", "2", "--l0-max", "1.2",
         "--l1-max", "0.3", "--horizon", "500", "--seeds", "2", "--seed",
         "2"],
        "ca997e07d470c7d5a35c17c8d897882455ccf3e23fab356d5904fad8364ad9a7",
        None),
    "sweep-gamma-n1": (
        ["sweep", "--rho", "0.4,0.7", "--lambda", "0.2,0.1", "--gamma",
         "0.0,0.2,0.4", "--horizon", "1500", "--seeds", "2", "--seed", "7"],
        "fb6a0e6609200e783218c3b771543af115ce3146f030ef232de9144c61905a73",
        None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_output_digests(tmp_path, name):
    argv, out_sha, trace_sha = PINNED[name]
    out, trace = tmp_path / "out", tmp_path / "trace.jsonl"
    main(argv + ["--out", str(out)]
         + (["--trace", str(trace)] if trace_sha else []))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha
    if trace_sha:
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha


def exit_message(argv):
    """The one-line message of a CLI call that must exit with an error."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    message = str(info.value.code)
    assert "\n" not in message
    return message


@pytest.mark.parametrize("command", ["run", "sweep", "boundary-oracle",
                                     "dtmc-check"])
def test_negative_seed_flag_rejected(tmp_path, command):
    argv = [command, "--seed", "-3", "--out", str(tmp_path / "out")]
    if command == "boundary-oracle":
        argv += ["--rho", "0.4,0.7"]
    assert "seed must be non-negative" in exit_message(argv)
    assert not (tmp_path / "out").exists()


def test_negative_seed_in_config_file_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_relays = 1\nrho = 0.4, 0.7\nseed = -3\n")
    assert "seed must be non-negative" in exit_message(["run", "-c", str(cfg)])


def test_negative_seed_exit_status_and_stderr(tmp_path):
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "run", "--seed", "-3"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim run: seed must be non-negative, got -3"]


def test_box_sweep_with_several_relays_rejected(tmp_path):
    out = tmp_path / "out.csv"
    message = exit_message(["sweep", "--rho", "0.4,0.7,0.8", "--grid", "2",
                            "--horizon", "100", "--out", str(out)])
    assert "--gamma" in message
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--grid", "0"), ("--grid", "5"),
                                        ("--l0-max", "0.5"),
                                        ("--l1-max", "0.5")])
def test_gamma_sweep_rejects_box_flags(tmp_path, monkeypatch, flag, value):
    monkeypatch.setattr(cli, "sweep_grid", lambda *a, **k: pytest.fail(
        "no sweep runs on rejected input"))
    out = tmp_path / "gamma.csv"
    assert exit_message(["sweep", "--gamma", "0.1", flag, value, "--out",
                         str(out)]) == (
        f"relaysim sweep: {flag} shapes a box sweep; a --gamma sweep does "
        f"not take it")
    assert not out.exists()


def test_box_flag_on_gamma_sweep_exit_status(tmp_path):
    src = Path(relaysim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "sweep", "--gamma", "0.1",
         "--grid", "0"], capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim sweep: --grid shapes a box sweep; a --gamma sweep does not "
        "take it"]


def test_box_sweep_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "sweep_grid",
                        lambda config, grid, workers: seen.append(grid) or [])
    main(["sweep", "--horizon", "100"])
    main(["sweep", "--horizon", "100", "--grid", "3", "--l1-max", "0.4"])
    assert seen == [harness.box_grid(17, 0.8, 0.8),
                    harness.box_grid(3, 0.8, 0.4)]


def test_gamma_sweep_writes_every_rate(tmp_path):
    out = tmp_path / "gamma.csv"
    main(["sweep", "--rho", "0.4,0.7,0.8,0.7", "--lambda",
          "0.4,0.05,0.05,0.05", "--gamma", "0.0,0.1", "--horizon", "200",
          "--seeds", "2", "--out", str(out)])
    lines = [l for l in read_lines(out) if not l.startswith("#")]
    assert lines[0] == ("lambda0,lambda1,lambda2,lambda3,mean_q_avg,"
                        "stable_fraction,mean_final,ci_half")
    assert [l.split(",")[:4] for l in lines[1:]] == [
        ["0.4", "0.05", "0.05", "0.05"], ["0.5", "0.05", "0.05", "0.05"]]


def test_short_horizon_reports_unclassified(tmp_path):
    out = tmp_path / "summary.json"
    main(["run", "--rho", "0.4,0.7", "--lambda", "0.9,0.5", "--horizon",
          "50", "--seeds", "3", "--out", str(out)])
    summary = json.loads(out.read_text())
    assert all(r["stable"] is None and r["slope"] is None
               for r in summary["per_seed"])
    assert summary["stable_fraction"] is None

    csv = tmp_path / "sweep.csv"
    main(["sweep", "--rho", "0.4,0.7", "--lambda", "0.9,0.5", "--gamma",
          "0.0", "--horizon", "50", "--seeds", "2", "--out", str(csv)])
    row = read_lines(csv)[-1].split(",")
    assert row[0] == "0.9" and row[3] == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag,message", [
    ("--horizon", "horizon must be >= 1"), ("--seeds", "n_seeds must be >= 1")])
def test_zero_horizon_or_seeds_rejected(tmp_path, command, flag, message):
    out = tmp_path / "out"
    assert (exit_message([command, flag, "0", "--out", str(out)])
            == f"relaysim {command}: {message}")
    assert not out.exists()


def test_run_traces_only_the_first_seed(tmp_path, monkeypatch):
    calls = []
    run_once = harness.run_once

    def spy(config, seed, **kwargs):
        calls.append((seed, config.trace))
        return run_once(config, seed, **kwargs)

    monkeypatch.setattr(harness, "run_once", spy)
    trace = tmp_path / "trace.jsonl"
    main(["run", "--horizon", "200", "--seeds", "3", "--seed", "4",
          "--trace", str(trace), "--out", str(tmp_path / "summary.json")])
    assert calls == [(4, True), (5, False), (6, False)]
    assert len(read_lines(trace)) == 201


@pytest.mark.parametrize("out,trace", [
    ("x", "x"), ("x", "sub/../x"), ("symlink", "x"), ("hardlink", "x")])
def test_out_and_trace_naming_one_file_rejected(tmp_path, monkeypatch, out,
                                                trace):
    monkeypatch.setattr(cli, "run_seeds", lambda *args, **kwargs: (
        pytest.fail("simulated before rejecting the paths")))
    (tmp_path / "sub").mkdir()
    (tmp_path / "x").write_text("kept\n")
    (tmp_path / "symlink").symlink_to(tmp_path / "x")
    (tmp_path / "hardlink").hardlink_to(tmp_path / "x")
    out, trace = tmp_path / out, tmp_path / trace
    assert exit_message(["run", "--out", str(out), "--trace", str(trace)]) \
        == f"relaysim run: --out and --trace name the same file: {out}"
    assert (tmp_path / "x").read_text() == "kept\n"


def test_out_and_trace_naming_one_file_exit_status(tmp_path):
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "run", "--horizon", "300",
         "--seeds", "1", "--out", "x", "--trace", "./x"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim run: --out and --trace name the same file: x"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config,output", [
    ("x", "x"), ("x", "sub/../x"), ("symlink", "x"), ("hardlink", "x")])
@pytest.mark.parametrize("command,flag,entry", [
    ("run", "--out", "run_seeds"), ("run", "--trace", "run_seeds"),
    ("sweep", "--out", "sweep_grid"),
    ("boundary-oracle", "--out", "boundary_oracle")])
def test_output_naming_the_config_file_rejected(tmp_path, monkeypatch,
                                                command, flag, entry,
                                                config, output):
    monkeypatch.setattr(cli, entry, lambda *args, **kwargs: (
        pytest.fail("simulated before rejecting the paths")))
    (tmp_path / "sub").mkdir()
    (tmp_path / "x").write_text("horizon = 300\nn_seeds = 1\n")
    (tmp_path / "symlink").symlink_to(tmp_path / "x")
    (tmp_path / "hardlink").hardlink_to(tmp_path / "x")
    config, output = tmp_path / config, tmp_path / output
    argv = [command, "--config", str(config), flag, str(output)]
    if command == "boundary-oracle":
        argv += ["--rho", "0.4,0.7"]
    assert exit_message(argv) == (f"relaysim {command}: --config and {flag} "
                                  f"name the same file: {config}")
    assert (tmp_path / "x").read_text() == "horizon = 300\nn_seeds = 1\n"


@pytest.mark.parametrize("command,entry", [
    ("run", "run_seeds"), ("sweep", "sweep_grid"),
    ("boundary-oracle", "boundary_oracle")])
def test_empty_config_path_rejected(tmp_path, monkeypatch, command, entry):
    # an empty path used to count as no --config and ran the defaults
    monkeypatch.setattr(cli, entry, lambda *args, **kwargs: (
        pytest.fail("simulated with an empty --config")))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", "", "--out", "out"]
    if command == "boundary-oracle":
        argv += ["--rho", "0.4,0.7"]
    assert exit_message(argv) == (f"relaysim {command}: [Errno 2] No such "
                                  f"file or directory: ''")
    assert list(tmp_path.iterdir()) == []


def test_output_naming_the_config_file_exit_status(tmp_path):
    src = Path(relaysim.__file__).resolve().parents[1]
    (tmp_path / "c.txt").write_text("horizon = 300\nn_seeds = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "run", "--config", "c.txt",
         "--trace", "c.txt"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim run: --config and --trace name the same file: c.txt"]
    assert (tmp_path / "c.txt").read_text() == "horizon = 300\nn_seeds = 1\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "c.txt"]


def traced_run_peak(tmp_path, horizon):
    """tracemalloc's peak, in bytes, over one `relaysim run --trace` call."""
    argv = ["run", "--horizon", str(horizon), "--seeds", "1",
            "--trace", str(tmp_path / "trace.jsonl"),
            "--out", str(tmp_path / "summary.json")]
    tracemalloc.start()
    try:
        main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_memory_does_not_grow_with_the_horizon(tmp_path):
    # Both horizons sample the same number of slots (strides 2 and 8), so
    # the trajectory is the same size and only slot records held in memory
    # could grow with the horizon.
    short, long = 20_000, 80_000
    assert (len(harness.sample_slots(short))
            == len(harness.sample_slots(long)))
    peaks = [traced_run_peak(tmp_path, horizon) for horizon in (short, long)]
    assert len(read_lines(tmp_path / "trace.jsonl")) == long + 1
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_interrupted_trace_keeps_the_lines_written(tmp_path, monkeypatch):
    apply_slot, slots = harness.apply_slot, []

    def interrupted(*args):
        if len(slots) == 150:
            raise KeyboardInterrupt
        slots.append(None)
        return apply_slot(*args)

    monkeypatch.setattr(harness, "apply_slot", interrupted)
    trace = tmp_path / "trace.jsonl"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--horizon", "400", "--seeds", "1",
              "--trace", str(trace), "--out", str(tmp_path / "summary.json")])
    lines = read_lines(trace)
    assert len(lines) == 151
    assert set(json.loads(lines[0])) == {"config"}
    assert json.loads(lines[-1])["t"] == 149
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--workers", "-3", "--grid", "2"],
     "relaysim sweep: workers must be >= 1, got -3"),
    (["sweep", "--workers", "0", "--grid", "2"],
     "relaysim sweep: workers must be >= 1, got 0"),
    (["sweep", "--grid", "0"], "relaysim sweep: grid must be >= 1, got 0"),
    (["region", "--rho", "0.4,0.7", "--n-angles", "0"],
     "relaysim region: n-angles must be >= 1, got 0"),
])
def test_counts_below_one_rejected(tmp_path, argv, message):
    out = tmp_path / "out.csv"
    assert exit_message(argv + ["--out", str(out)]) == message
    assert not out.exists()


@pytest.mark.parametrize("angle", ["100", "-5"])
def test_boundary_oracle_off_quadrant_angle_rejected(tmp_path, angle):
    out = tmp_path / "oracle.csv"
    assert exit_message(["boundary-oracle", "--rho", "0.4,0.7",
                         f"--angles=0,{angle}", "--horizon", "100",
                         "--out", str(out)]) == (
        f"relaysim boundary-oracle: angle must lie in [0, 90] degrees, "
        f"got {angle}")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["region", "--rho", "1.5,0.7"],
     "relaysim region: rho0 and rho1 must lie in [0, 1]"),
    (["boundary-oracle", "--rho", "1.5,0.7"],
     "relaysim boundary-oracle: channel ON probabilities must lie in [0, 1]"),
    (["sweep", "--gamma", "0.1,x"],
     "relaysim sweep: could not convert string to float: 'x'"),
    (["boundary-oracle", "--rho", "0.4,0.7", "--angles",
      "30,x"],
     "relaysim boundary-oracle: could not convert string to float: 'x'"),
    (["boundary-oracle", "--rho", "0.4,0.7", "--angles",
      "nan"], "relaysim boundary-oracle: angle must be finite, got nan"),
    (["run", "--lambda", "0.1"],
     "relaysim run: rho and lam must have length N+1 = 2, got 2 and 1"),
    (["run", "--lambda", "nan,0.1"],
     "relaysim run: arrival rates must be non-negative numbers"),
    (["run", "--horizon", "x"],
     "relaysim run: horizon: invalid literal for int() with base 10: 'x'"),
    (["sweep", "--l0-max", "nan"],
     "relaysim sweep: l0-max must be finite and >= 0, got nan"),
    (["sweep", "--l0-max", "inf"],
     "relaysim sweep: l0-max must be finite and >= 0, got inf"),
    (["sweep", "--l1-max", "inf"],
     "relaysim sweep: l1-max must be finite and >= 0, got inf"),
    (["sweep", "--l1-max=-0.5"],
     "relaysim sweep: l1-max must be finite and >= 0, got -0.5"),
])
def test_bad_input_exits_before_output(tmp_path, argv, message):
    out = tmp_path / "out"
    assert exit_message(argv + ["--out", str(out)]) == message
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("arrival_law = binomial\n",
     "arrival_law: a_max = 1 gives bernoulli, got 'binomial'"),
    ("a_max = 2\nlambda = 0.5, 0.5\narrival_law = bernoulli\n",
     "arrival_law: a_max = 2 gives binomial, got 'bernoulli'"),
    ("arrival_law = poisson\n",
     "arrival_law: a_max = 1 gives bernoulli, got 'poisson'"),
])
def test_arrival_law_other_than_a_max_implies_rejected(tmp_path, monkeypatch,
                                                       text, message):
    monkeypatch.setattr(cli, "run_seeds", lambda config: pytest.fail(
        "no run on rejected input"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    out = tmp_path / "summary.json"
    assert exit_message(["run", "-c", str(cfg), "--out", str(out)]) == (
        f"relaysim run: {message}")
    assert not out.exists()


def test_n_relays_without_rho_in_config_file_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_relays = 2\n")
    assert exit_message(["run", "-c", str(cfg)]) == (
        "relaysim run: rho and lam must have length N+1 = 3, got 2 and 2")


def test_config_file_lambda_must_match_rho_flag(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rho = 0.4, 0.7\nlambda = 0.2, 0.1\n")
    assert exit_message(["run", "-c", str(cfg), "--rho", "0.4,0.7,0.8"]) == (
        "relaysim run: rho and lam must have length N+1 = 3, got 3 and 2")


def test_undrawable_window_in_config_file_rejected(tmp_path):
    """A contention window whose W + 1 backoff values a double cannot draw
    exits 1 with one line and writes nothing (it ran on wrong elections,
    or ended in a traceback)."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"contention_window = {2**63 - 1}\n")
    out = tmp_path / "out.json"
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "run", "-c", str(cfg),
         "--horizon", "50", "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim run: contention window must be <= 2**53 - 1, so that a "
        "double can draw each of its W + 1 backoff values, got "
        f"{2**63 - 1}"]
    assert not out.exists()


def test_missing_config_file_rejected(tmp_path):
    message = exit_message(["run", "-c", str(tmp_path / "absent.cfg")])
    assert message.startswith("relaysim run: ")
    assert "absent.cfg" in message


def test_errors_after_validation_keep_their_traceback(tmp_path, monkeypatch):
    def defect(config):
        raise ValueError("defect")

    monkeypatch.setattr(cli, "run_seeds", defect)
    with pytest.raises(ValueError, match="defect"):
        main(["run", "--out", str(tmp_path / "out")])


def test_nan_gamma_sweep_writes_error_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--gamma", "nan,0,inf", "--horizon", "100", "--seeds", "1",
          "--out", str(out)])
    rows = [l for l in read_lines(out) if not l.startswith("#")][1:]
    assert [row.split(",")[2] == "error" for row in rows] == [True, False,
                                                             True]



def test_boundary_oracle_header_is_the_config_it_ran(tmp_path, monkeypatch):
    seen = []

    def oracle(rho0, rho1, angle, config):
        seen.append(config)
        return {"scale": 1.0, "lambda0": 0.0, "lambda1": 1.0, "capped": True}

    monkeypatch.setattr(cli, "boundary_oracle", oracle)
    out = tmp_path / "oracle.csv"
    main(["boundary-oracle", "--rho", "0.3,0.6", "--horizon",
          "100", "--angles", "90", "--out", str(out)])
    header = [l for l in read_lines(out) if l.startswith("#")]
    assert "# rho = 0.3, 0.6" in header
    assert "# lambda = 0.0, 0.0" in header
    assert "# horizon = 50000" in header
    assert header == harness.header_lines(seen[0])


def test_boundary_oracle_takes_no_lambda_flag():
    with pytest.raises(SystemExit) as info:
        main(["boundary-oracle", "--rho", "0.3,0.6", "--lambda", "0.2,0.2"])
    assert info.value.code == 2


def fake_oracle(rho0, rho1, angle, config):
    """A boundary_oracle stand-in whose point shows the network it got."""
    return {"scale": rho0, "lambda0": rho1, "lambda1": config.horizon / 1e5,
            "capped": False}


def test_boundary_oracle_takes_the_rho_flag(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "boundary_oracle", fake_oracle)
    out = tmp_path / "oracle.csv"
    main(["boundary-oracle", "--rho", "0.2,0.2", "--angles", "90",
          "--out", str(out)])
    assert "# rho = 0.2, 0.2" in read_lines(out)
    assert read_lines(out)[-1] == "90.0000,0.2000,0.2000,0.5000,0"


def test_boundary_oracle_runs_the_config_files_rho(tmp_path, monkeypatch):
    # the config file's rho used to be replaced by --rho0/--rho1 unseen
    monkeypatch.setattr(cli, "boundary_oracle", fake_oracle)
    cfg, out = tmp_path / "exp.cfg", tmp_path / "oracle.csv"
    cfg.write_text("rho = 0.3, 0.6\nhorizon = 100\n")
    main(["boundary-oracle", "-c", str(cfg), "--angles", "90",
          "--out", str(out)])
    assert "# rho = 0.3, 0.6" in read_lines(out)
    assert read_lines(out)[-1] == "90.0000,0.3000,0.6000,0.5000,0"


def test_boundary_oracle_rho_flag_and_config_file_write_one_output(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "boundary_oracle", fake_oracle)
    (tmp_path / "one.cfg").write_text("rho = 0.4, 0.7\n")
    # --rho replaces a file's rho, three relays' included
    (tmp_path / "n3.cfg").write_text("rho = 0.4, 0.7, 0.8, 0.7\n")
    outputs = []
    for argv in (["--rho", "0.4,0.7"], ["-c", str(tmp_path / "one.cfg")],
                 ["-c", str(tmp_path / "n3.cfg"), "--rho", "0.4 0.7"]):
        out = tmp_path / f"oracle-{len(outputs)}.csv"
        main(["boundary-oracle", "--scheduler", "mws", "--seeds", "3",
              "--angles", "0,45,90", "--out", str(out)] + argv)
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert b"# rho = 0.4, 0.7\n" in outputs[0]


@pytest.mark.parametrize("rho,relays", [("0.4", 0), ("0.4,0.7,0.8,0.7", 3)])
@pytest.mark.parametrize("command,source", [
    ("region", "flag"), ("boundary-oracle", "flag"),
    ("boundary-oracle", "config")])
def test_rho_of_other_than_one_relay_rejected(tmp_path, monkeypatch,
                                             command, source, rho, relays):
    monkeypatch.setattr(cli, "boundary_oracle", lambda *args: (
        pytest.fail("simulated a network of other than one relay")))
    out, cfg = tmp_path / "out.csv", tmp_path / "exp.cfg"
    cfg.write_text(f"rho = {rho}\n")
    argv = [command, "--out", str(out)]
    argv += ["--rho", rho] if source == "flag" else ["-c", str(cfg)]
    message = exit_message(argv)
    assert message.startswith(f"relaysim {command}: need ")
    assert message.endswith(f" one relay, got {relays}")
    assert list(tmp_path.iterdir()) == [cfg]


def test_region_reads_rho_as_any_list(tmp_path):
    outputs = []
    for rho in ("0.4,0.7", "0.4 0.7", "0.4, 0.7"):
        out = tmp_path / f"region-{len(outputs)}.csv"
        main(["region", "--rho", rho, "--n-angles", "5", "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs == [outputs[0]] * 3
    assert outputs[0].startswith(b"# rho0 = 0.4\n# rho1 = 0.7\n")


# ---------------------------------------------------------------------------
# Flags and config files build configs through one parser.

FLAG_OF_KEY = {"rho": "--rho", "lambda": "--lambda", "seed": "--seed",
               "scheduler": "--scheduler", "horizon": "--horizon",
               "n_seeds": "--seeds", "decision_mode": "--decision-mode"}


@st.composite
def configs(draw):
    n_nodes = draw(st.integers(2, 4))
    a_max = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    positive = st.floats(1e-6, 10.0)
    params = NetworkParams(
        n_relays=n_nodes - 1,
        rho=draw(st.tuples(*[unit] * n_nodes)),
        lam=draw(st.tuples(*[st.floats(0.0, a_max)] * n_nodes)),
        a_max=a_max, beta=draw(positive),
        contention_window=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2 ** 32)),
        activation_gain=draw(positive))
    return ExperimentConfig(
        params, scheduler=draw(st.sampled_from(SCHEDULER_KINDS)),
        horizon=draw(st.integers(1, 10 ** 6)),
        n_seeds=draw(st.integers(1, 50)),
        decision_mode=draw(st.sampled_from(DECISION_MODES)))


def cli_config(argv):
    """The config `relaysim run` builds from argv, without running it."""
    class Built(Exception):
        pass

    def capture(config):
        raise Built(config)

    with mock.patch.object(cli, "run_seeds", capture), \
            pytest.raises(Built) as info:
        main(["run"] + argv)
    return replace(info.value.args[0], trace=False)


@settings(max_examples=60, deadline=None)
@given(configs(), st.sets(st.sampled_from(sorted(FLAG_OF_KEY))))
def test_header_round_trip_and_flags_equal_file_keys(config, flag_keys):
    assert parse_config("\n".join(line.removeprefix("# ") for line
                                  in harness.header_lines(config))) == config

    items = harness.config_to_dict(config)
    flags = []
    for key in sorted(flag_keys):
        flags += [f"{FLAG_OF_KEY[key]}={items.pop(key)}".replace(", ", ",")]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
        assert cli_config(["-c", str(path)] + flags) == config


@pytest.mark.parametrize("command,flag,entry", [
    ("run", "--out", "run_seeds"), ("run", "--trace", "run_seeds"),
    ("sweep", "--out", "sweep_grid"),
    ("boundary-oracle", "--out", "boundary_oracle")])
def test_unwritable_output_rejected_before_simulating(tmp_path, monkeypatch,
                                                      command, flag, entry):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before checking its output path")

    monkeypatch.setattr(cli, entry, simulate)
    argv = [command, flag, str(tmp_path / "nodir" / "x")]
    if command == "boundary-oracle":
        argv += ["--rho", "0.4,0.7"]
    assert exit_message(argv) == (
        f"relaysim {command}: {flag} {tmp_path / 'nodir' / 'x'}: directory "
        f"{tmp_path / 'nodir'} does not exist")
    assert exit_message([command, flag, str(tmp_path)] + argv[3:]) == (
        f"relaysim {command}: {flag} {tmp_path}: is a directory")
    assert list(tmp_path.iterdir()) == []
    # root passes the real check, so the denial is simulated
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert exit_message([command, flag, str(tmp_path / "x")] + argv[3:]) == (
        f"relaysim {command}: {flag} {tmp_path / 'x'}: permission denied")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exit_status(tmp_path):
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "relaysim.cli", "run", "--horizon", "20000",
         "--seeds", "3", "--out", "nodir/x.json"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "relaysim run: --out nodir/x.json: directory nodir does not exist"]
    assert list(tmp_path.iterdir()) == []


START_UP_PROBE = """
import json, sys
from dataclasses import replace

def late():
    return sorted(m for m in sys.modules if m.startswith("scipy")
                  or m == "concurrent.futures.process")

import relaysim, relaysim.cli
seen = {"import": late()}
from relaysim import ExperimentConfig, NetworkParams, cli, harness
cfg = ExperimentConfig(params=NetworkParams(n_relays=1, rho=(0.4, 0.7),
                                            lam=(0.1, 0.1), seed=3),
                       horizon=300, n_seeds=2)
harness.run_seeds(cfg)
seen["run_seeds"] = late()
harness.boundary_oracle(0.4, 0.7, 45.0, replace(cfg, n_seeds=1), 2.0)
seen["boundary_oracle"] = late()
cli.main(["run", "--seeds", "1", "--horizon", "300", "--out", sys.argv[1]])
seen["run --seeds 1"] = late()
ci = harness.aggregate_ci([0.0, 2.0])
special = {"2 values": "scipy.special" in sys.modules}
harness.aggregate_ci(range(65))
special["65 values"] = "scipy.special" in sys.modules
print(json.dumps({"seen": seen, "ci": ci, "special": special}))
"""


def test_start_up_imports_no_scipy_or_process_pool(tmp_path):
    # scipy.special is most of start-up; only an interval of more than
    # harness.MAX_TABLED_SEEDS values needs it
    src = Path(relaysim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, str(tmp_path / "run.json")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    probe = json.loads(proc.stdout)
    assert probe["seen"] == {"import": [], "run_seeds": [],
                             "boundary_oracle": [], "run --seeds 1": []}
    from scipy.special import stdtrit
    assert probe["special"] == {"2 values": False, "65 values": True}
    assert probe["ci"] == [1.0, float(stdtrit(1, 0.95))]


MULTI_SEED_PROBE = """
import json, sys
from relaysim import ExperimentConfig, NetworkParams, cli, harness

def late():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

cfg = ExperimentConfig(params=NetworkParams(n_relays=1, rho=(0.4, 0.7),
                                            lam=(0.0, 0.0), seed=5),
                       horizon=400, n_seeds=3)
rows = harness.sweep_grid(cfg, harness.box_grid(3, 0.4, 0.4), workers=2)
seen = {"sweep_grid": late()}
cli.main(["run", "--seeds", "2", "--horizon", "300", "--out", sys.argv[1]])
seen["run --seeds 2"] = late()
cli.main(["sweep", "--grid", "2", "--seeds", "3", "--horizon", "300",
          "--workers", "2", "--out", sys.argv[2]])
seen["sweep --seeds 3"] = late()
harness.aggregate_ci(range(harness.MAX_TABLED_SEEDS))
seen["aggregate_ci"] = late()
print(json.dumps({"seen": seen, "ci_half": [r["ci_half"] for r in rows]}))
"""


def test_multi_seed_runs_and_sweeps_import_no_scipy(tmp_path):
    # intervals of up to harness.MAX_TABLED_SEEDS values read the quantile
    # table, so multi-seed runs and sweeps never load scipy
    src = Path(relaysim.__file__).resolve().parents[1]
    run, sweep = tmp_path / "run.json", tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-c", MULTI_SEED_PROBE, str(run), str(sweep)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    probe = json.loads(proc.stdout)
    assert probe["seen"] == {"sweep_grid": [], "run --seeds 2": [],
                             "sweep --seeds 3": [], "aggregate_ci": []}
    assert len(probe["ci_half"]) == 9 and any(probe["ci_half"])
    assert json.loads(run.read_text())["q_avg_ci90_half"] >= 0.0
    table = [line.split(",") for line in read_lines(sweep)
             if not line.startswith("#")]
    assert table[0][-1] == "ci_half" and len(table) == 5
    assert any(float(row[-1]) for row in table[1:])


@pytest.mark.parametrize("text", [",", ""])
@pytest.mark.parametrize("argv", [
    ["sweep", "--horizon", "100", "--gamma"],
    ["boundary-oracle", "--rho", "0.4,0.7", "--angles"]])
def test_empty_rate_or_angle_list_rejected(tmp_path, argv, text):
    out = tmp_path / "out.csv"
    assert exit_message(argv + [text, "--out", str(out)]) == (
        f"relaysim {argv[0]}: expected a list of numbers, got {text!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["0.4,,0.7,0.8", ",0.4,0.7,0.8",
                                  "0.4,0.7,0.8,"])
@pytest.mark.parametrize("argv", [
    ["run", "--horizon", "200", "--seeds", "1", "--rho"],
    ["run", "--horizon", "200", "--seeds", "1", "--lambda"],
    ["sweep", "--horizon", "100", "--seeds", "1", "--rho", "0.4,0.7",
     "--gamma"],
    ["boundary-oracle", "--rho", "0.4,0.7", "--angles"]])
def test_empty_list_entry_rejected(tmp_path, argv, text):
    # an empty entry used to vanish: --rho 0.4,,0.7,0.8 ran two relays
    out = tmp_path / "out"
    message = exit_message(argv + [text, "--out", str(out)])
    assert message.startswith(f"relaysim {argv[0]}: ")
    assert message.endswith(f"empty entry in the list {text!r}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["rho", "lambda"])
def test_empty_list_entry_in_config_file_rejected(tmp_path, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = 0.4,,0.7,0.8\n")
    out, trace = tmp_path / "out.json", tmp_path / "trace.jsonl"
    assert exit_message(["run", "-c", str(cfg), "--out", str(out),
                         "--trace", str(trace)]) == (
        f"relaysim run: {key}: empty entry in the list '0.4,,0.7,0.8'")
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_key_given_twice_rejected(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 1\nseed = 2\n")
    out = tmp_path / "out.json"
    assert exit_message(["run", "-c", str(cfg), "--out", str(out)]) == (
        "relaysim run: line 2: seed is given twice")
    assert not out.exists()
    # a flag still replaces the file's key
    assert parse_config("seed = 1\n", {"seed": "2"}).params.seed == 2


@pytest.mark.parametrize("command", ["run", "sweep", "boundary-oracle"])
@pytest.mark.parametrize("flag,key,value,message", [
    ("--scheduler", "scheduler", "foo",
     "scheduler must be one of ('mws', 'rqcsma', 'qcsma', 'ub')"),
    ("--decision-mode", "decision_mode", "x",
     "decision_mode must be one of ('contention', 'sampler')")])
def test_bad_scheduler_or_decision_mode_rejected_like_a_config_key(
        tmp_path, command, flag, key, value, message):
    argv = [command, "--out", str(tmp_path / "out")]
    if command == "boundary-oracle":
        argv += ["--rho", "0.4,0.7"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {value}\n")
    expected = f"relaysim {command}: {message}"
    assert exit_message(argv + [flag, value]) == expected
    assert exit_message(argv + ["-c", str(cfg)]) == expected
    assert list(tmp_path.iterdir()) == [cfg]


def test_help_lists_schedulers_and_decision_modes(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(SCHEDULER_KINDS) in text
    assert ", ".join(DECISION_MODES) in text
