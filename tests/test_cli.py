import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaysim
from relaysim import harness
from relaysim.cli import main


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
    main(["region", "--rho0", "0.4", "--rho1", "0.7", "--n-angles", "5",
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
        argv += ["--rho0", "0.4", "--rho1", "0.7"]
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

    def spy(config, seed):
        calls.append((seed, config.trace))
        return run_once(config, seed)

    monkeypatch.setattr(harness, "run_once", spy)
    trace = tmp_path / "trace.jsonl"
    main(["run", "--horizon", "200", "--seeds", "3", "--seed", "4",
          "--trace", str(trace), "--out", str(tmp_path / "summary.json")])
    assert calls == [(4, True), (5, False), (6, False)]
    assert len(read_lines(trace)) == 201
