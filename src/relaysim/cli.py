"""Command-line surface: run, sweep, region, boundary-oracle, dtmc-check."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .harness import (DECISION_MODES, ExperimentConfig, aggregate_ci,
                      boundary_oracle, box_grid, config_to_dict, gamma_grid,
                      header_lines, oracle_config, parse_config, parse_floats,
                      run_seeds, stable_fraction, sweep_grid)
from .scheduling import SCHEDULER_KINDS


# The common flags, each replacing a config key: flag -> (key, options).
_CONFIG_FLAGS = {
    "--scheduler": ("scheduler", {"help": ", ".join(SCHEDULER_KINDS)}),
    "--rho": ("rho", {"help": "comma-separated ON probabilities"}),
    "--lambda": ("lambda", {"help": "comma-separated arrival rates"}),
    "--horizon": ("horizon", {}),
    "--seed": ("seed", {}),
    "--seeds": ("n_seeds", {"help": "number of sample paths"}),
    "--decision-mode": ("decision_mode", {"help": ", ".join(DECISION_MODES)}),
}


def _load_config(args) -> ExperimentConfig:
    """The experiment config from --config, with the flags' keys replaced."""
    flags = {key: getattr(args, key) for key, _ in _CONFIG_FLAGS.values()
             if getattr(args, key, None) is not None}
    if args.config is None:
        return parse_config("", flags)
    with open(args.config) as fh:
        return parse_config(fh.read(), flags)


def _add_common(parser, rates=True):
    """--config, the config-key flags (--lambda only with `rates`) and
    --out."""
    parser.add_argument("--config", "-c", help="flat key=value config file")
    for flag, (key, options) in _CONFIG_FLAGS.items():
        if rates or key != "lambda":
            parser.add_argument(flag, dest=key, **options)
    parser.add_argument("--out", "-o", help="output file (default stdout)")


def _output(args):
    """The --out file, or stdout (left open), as a context manager."""
    if args.out:
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


@contextlib.contextmanager
def _input_errors(args):
    """Turn bad input (ValueError or OSError) into a one-line exit. The
    file flags (--config, --out, --trace) are checked first: each output
    must be writable and no two flags may name one file, so a command that
    cannot write its output, or would overwrite its config, fails before it
    reads or computes anything."""
    try:
        files = [(f, getattr(args, f)) for f in ("config", "out", "trace")
                 if getattr(args, f, None) is not None]
        for i, (flag, path) in enumerate(files):
            if flag != "config":
                _require_writable(flag, path)
            for other, other_path in files[i + 1:]:
                if _same_file(path, other_path):
                    raise ValueError(f"--{flag} and --{other} name the same "
                                     f"file: {path}")
        yield
    except (ValueError, OSError) as exc:
        raise SystemExit(f"relaysim {args.command}: {exc}") from None


def _require_writable(flag, path):
    """Reject the --`flag` output path unless it names a file that can be
    created or overwritten; creates nothing."""
    target = Path(path)
    directory = target.parent
    if not directory.is_dir():
        raise ValueError(f"--{flag} {path}: directory {directory} does not "
                         f"exist")
    if target.is_dir():
        raise ValueError(f"--{flag} {path}: is a directory")
    if not os.access(target if target.exists() else directory, os.W_OK):
        raise ValueError(f"--{flag} {path}: permission denied")


def _same_file(a, b):
    """Whether paths `a` and `b` name one file: they resolve to one path,
    or both exist as links to one file."""
    return Path(a).resolve() == Path(b).resolve() or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _require_count(name, value):
    """Reject the count `value` unless it is >= 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _one_relay(rho):
    """`rho` if it holds one relay's two ON probabilities."""
    if len(rho) != 2:
        raise ValueError(f"need exactly one relay, got {len(rho) - 1}")
    return rho


def _require_bound(name, value):
    """Reject the box bound `value` unless it is finite and >= 0."""
    if not 0.0 <= value < np.inf:  # NaN fails both comparisons
        raise ValueError(f"{name} must be finite and >= 0, got {value:g}")


def cmd_run(args):
    with _input_errors(args):
        config = replace(_load_config(args), trace=bool(args.trace))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(json.dumps({"config": config_to_dict(config)}) + "\n")
            results = run_seeds(config, sink=lambda record: fh.write(
                record.to_json() + "\n"))
    else:
        results = run_seeds(config)

    summary = {
        "config": config_to_dict(config),
        "per_seed": [{
            "seed": r.seed, "q_avg": r.q_avg, "final_total": r.final_total,
            "stable": r.stable, "slope": r.slope,
        } for r in results],
    }
    q_avgs = [r.q_avg for r in results]
    if len(q_avgs) >= 2:
        mean, half = aggregate_ci(q_avgs)
        summary["q_avg_mean"] = mean
        summary["q_avg_ci90_half"] = half
    summary["stable_fraction"] = stable_fraction(results)
    with _output(args) as out:
        json.dump(summary, out, indent=2)
        out.write("\n")


# The flags that shape a box sweep, by argparse dest, with their defaults.
_BOX_FLAGS = {"grid": 17, "l0_max": 0.8, "l1_max": 0.8}


def cmd_sweep(args):
    with _input_errors(args):
        config = _load_config(args)
        _require_count("workers", args.workers)
        n_nodes = config.params.n_nodes
        box = {dest: getattr(args, dest) for dest in _BOX_FLAGS}
        if args.gamma is not None:
            for dest, value in box.items():
                if value is not None:
                    raise ValueError(f"--{dest.replace('_', '-')} shapes a "
                                     f"box sweep; a --gamma sweep does not "
                                     f"take it")
            grid = gamma_grid(config.params.lam, parse_floats(args.gamma))
        elif n_nodes > 2:
            raise ValueError(f"a box sweep needs 2 rates (one relay), not "
                             f"{n_nodes}; use --gamma to sweep a network "
                             f"with more relays")
        else:
            box = {dest: _BOX_FLAGS[dest] if value is None else value
                   for dest, value in box.items()}
            _require_count("grid", box["grid"])
            _require_bound("l0-max", box["l0_max"])
            _require_bound("l1-max", box["l1_max"])
            grid = box_grid(*box.values())
    rows = sweep_grid(config, grid, workers=args.workers)
    lambdas = ",".join(f"lambda{i}" for i in range(n_nodes))
    with _output(args) as out:
        for line in header_lines(config):
            out.write(line + "\n")
        out.write(f"{lambdas},mean_q_avg,stable_fraction,mean_final,"
                  f"ci_half\n")
        for row in rows:
            lam = ",".join(f"{a:.10g}" for a in row["lam"])
            if "error" in row:
                out.write(f"{lam},error,,,\n")
                continue
            fraction = row["stable_fraction"]
            fraction = "" if fraction is None else f"{fraction:.3f}"
            out.write(f"{lam},{row['mean_q_avg']:.6g},{fraction},"
                      f"{row['mean_final']:.6g},{row['ci_half']:.6g}\n")


def cmd_region(args):
    with _input_errors(args):
        _require_count("n-angles", args.n_angles)
        rho0, rho1 = _one_relay(parse_floats(args.rho))
        region = analysis.RateRegion2(rho0, rho1)
    with _output(args) as out:
        out.write(f"# rho0 = {rho0}\n# rho1 = {rho1}\n")
        out.write("angle_deg,lambda0,lambda1\n")
        for angle in np.linspace(0.0, 90.0, args.n_angles):
            l0, l1 = region.boundary(float(angle))
            out.write(f"{angle:.4f},{l0:.6f},{l1:.6f}\n")


def cmd_boundary_oracle(args):
    with _input_errors(args):
        config = _load_config(args)
        config = oracle_config(*_one_relay(config.params.rho), config)
        angles = parse_floats(args.angles)
        for angle in angles:
            analysis.ray_direction(angle)
    with _output(args) as out:
        for line in header_lines(config):
            out.write(line + "\n")
        out.write("angle_deg,scale,lambda0,lambda1,capped\n")
        for angle in angles:
            point = boundary_oracle(*config.params.rho, angle, config)
            out.write(f"{angle:.4f},{point['scale']:.4f},"
                      f"{point['lambda0']:.4f},{point['lambda1']:.4f},"
                      f"{int(point['capped'])}\n")


def cmd_dtmc_check(args):
    with _input_errors(args):
        report = analysis.dtmc_check(args.trials, args.seed)
    with _output(args) as out:
        json.dump(report, out, indent=2)
        out.write("\n")
    if not report["pass"]:
        raise SystemExit(1)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Two-hop relay network simulator with ON-OFF channels")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single experiment, JSON summary")
    _add_common(p_run)
    p_run.add_argument("--trace", help="write a JSON-lines slot trace here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of arrival rates, CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", type=int, help="points per axis of the "
                                                  "rate box (default 17)")
    p_sweep.add_argument("--l0-max", type=float,
                         help="node 0's largest box rate (default 0.8)")
    p_sweep.add_argument("--l1-max", type=float,
                         help="the relay's largest box rate (default 0.8)")
    p_sweep.add_argument("--gamma", help="comma list: sweep node-0 rate "
                                         "offsets instead of a box")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_region = sub.add_parser("region",
                              help="closed-form rate-region boundary, CSV")
    p_region.add_argument("--rho", required=True, **_CONFIG_FLAGS["--rho"][1])
    p_region.add_argument("--n-angles", type=int, default=91)
    p_region.add_argument("--out", "-o")
    p_region.set_defaults(func=cmd_region)

    p_oracle = sub.add_parser("boundary-oracle",
                              help="empirical stability boundary, CSV")
    _add_common(p_oracle, rates=False)
    p_oracle.add_argument("--angles", default="0,30,45,60,90",
                          help="comma list of ray angles in degrees")
    p_oracle.set_defaults(func=cmd_boundary_oracle)

    p_dtmc = sub.add_parser("dtmc-check",
                            help="verify product-form stationary laws, JSON")
    p_dtmc.add_argument("--trials", type=int, default=50)
    p_dtmc.add_argument("--seed", type=int, default=0)
    p_dtmc.add_argument("--out", "-o")
    p_dtmc.set_defaults(func=cmd_dtmc_check)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
