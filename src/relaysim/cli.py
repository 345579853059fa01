"""Command-line surface: run, sweep, region, boundary-oracle, dtmc-check."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .core import IDLE
from .harness import (DECISION_MODES, ExperimentConfig, aggregate_ci,
                      boundary_oracle, box_grid, config_to_dict, gamma_grid,
                      header_lines, oracle_config, parse_config, parse_floats,
                      run_seeds, stable_fraction, sweep_grid)
from .scheduling import SCHEDULER_KINDS


# The common flags, each replacing a config key: flag -> (key, options).
_CONFIG_FLAGS = {
    "--scheduler": ("scheduler", {"choices": SCHEDULER_KINDS}),
    "--rho": ("rho", {"help": "comma-separated ON probabilities"}),
    "--lambda": ("lambda", {"help": "comma-separated arrival rates"}),
    "--horizon": ("horizon", {}),
    "--seed": ("seed", {}),
    "--seeds": ("n_seeds", {"help": "number of sample paths"}),
    "--decision-mode": ("decision_mode", {"choices": DECISION_MODES}),
}


def _load_config(args) -> ExperimentConfig:
    """The experiment config from --config, with the flags' keys replaced."""
    flags = {key: getattr(args, key) for key, _ in _CONFIG_FLAGS.values()
             if getattr(args, key, None) is not None}
    return parse_config(Path(args.config).read_text() if args.config
                        else "", flags)


def _add_common(parser, network=True):
    """--config, the config-key flags (--rho and --lambda only with
    `network`) and --out."""
    parser.add_argument("--config", "-c", help="flat key=value config file")
    for flag, (key, options) in _CONFIG_FLAGS.items():
        if network or key not in ("rho", "lambda"):
            parser.add_argument(flag, dest=key, **options)
    parser.add_argument("--out", "-o", help="output file (default stdout)")


def _output(args):
    """The --out file, or stdout (left open), as a context manager."""
    if args.out:
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


@contextlib.contextmanager
def _input_errors(args):
    """Turn bad input (ValueError or OSError) into a one-line exit."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise SystemExit(f"relaysim {args.command}: {exc}") from None


def _require_count(name, value):
    """Reject the count `value` unless it is >= 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def cmd_run(args):
    with _input_errors(args):
        config = replace(_load_config(args), trace=bool(args.trace))
    results = run_seeds(config)

    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(json.dumps({"config": config_to_dict(config)}) + "\n")
            for record in results[0].records:
                fh.write(record.to_json() + "\n")

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


def cmd_sweep(args):
    with _input_errors(args):
        config = _load_config(args)
        _require_count("workers", args.workers)
        _require_count("grid", args.grid)
        n_nodes = config.params.n_nodes
        if args.gamma:
            grid = gamma_grid(config.params.lam, parse_floats(args.gamma))
        elif n_nodes > 2:
            raise ValueError(f"a box sweep needs 2 rates (one relay), not "
                             f"{n_nodes}; use --gamma to sweep a network "
                             f"with more relays")
        else:
            grid = box_grid(args.grid, args.l0_max, args.l1_max)
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
        region = analysis.RateRegion2(args.rho0, args.rho1)
    with _output(args) as out:
        out.write(f"# rho0 = {args.rho0}\n# rho1 = {args.rho1}\n")
        out.write("angle_deg,lambda0,lambda1\n")
        for angle in np.linspace(0.0, 90.0, args.n_angles):
            l0, l1 = region.boundary(float(angle))
            out.write(f"{angle:.4f},{l0:.6f},{l1:.6f}\n")


def cmd_boundary_oracle(args):
    with _input_errors(args):
        config = oracle_config(args.rho0, args.rho1, _load_config(args))
        angles = parse_floats(args.angles)
        for angle in angles:
            analysis.ray_direction(angle)
    with _output(args) as out:
        for line in header_lines(config):
            out.write(line + "\n")
        out.write("angle_deg,scale,lambda0,lambda1,capped\n")
        for angle in angles:
            point = boundary_oracle(args.rho0, args.rho1, angle, config)
            out.write(f"{angle:.4f},{point['scale']:.4f},"
                      f"{point['lambda0']:.4f},{point['lambda1']:.4f},"
                      f"{int(point['capped'])}\n")


def cmd_dtmc_check(args):
    with _input_errors(args):
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
        _require_count("trials", args.trials)
    rng = np.random.default_rng(args.seed)
    worst_gap = 0.0
    worst_balance = 0.0
    checks = 0
    for n_relays in (1, 2):
        n_nodes = n_relays + 1
        for code in range(2 ** n_nodes):
            channel = tuple((code >> i) & 1 for i in range(n_nodes))
            nodes = analysis.chain_states(channel)[1:]
            for _ in range(args.trials):
                probs = {y: float(rng.uniform(0.05, 0.95)) for y in nodes}
                weights = rng.uniform(0.1, 1.0, len(nodes) + 1)
                weights /= weights.sum()
                alpha = {IDLE: float(weights[0])}
                alpha.update({y: float(w) for y, w in zip(nodes, weights[1:])})
                tm = analysis.build_dtmc(channel, probs, alpha)
                pi_hat = analysis.solve_stationary(tm)
                pi = analysis.product_form(probs)
                worst_gap = max(worst_gap,
                                float(np.abs(pi_hat.pi - pi.pi).max()))
                worst_balance = max(
                    worst_balance, analysis.check_detailed_balance(tm, pi_hat))
                checks += 1
    report = {
        "chains_checked": checks,
        "max_product_form_gap": worst_gap,
        "max_detailed_balance_violation": worst_balance,
        "pass": bool(worst_gap < 1e-8 and worst_balance < 1e-10),
    }
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
    p_sweep.add_argument("--grid", type=int, default=17,
                         help="points per axis of the rate box")
    p_sweep.add_argument("--l0-max", type=float, default=0.8)
    p_sweep.add_argument("--l1-max", type=float, default=0.8)
    p_sweep.add_argument("--gamma", help="comma list: sweep node-0 rate "
                                         "offsets instead of a box")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_region = sub.add_parser("region",
                              help="closed-form rate-region boundary, CSV")
    p_region.add_argument("--rho0", type=float, required=True)
    p_region.add_argument("--rho1", type=float, required=True)
    p_region.add_argument("--n-angles", type=int, default=91)
    p_region.add_argument("--out", "-o")
    p_region.set_defaults(func=cmd_region)

    p_oracle = sub.add_parser("boundary-oracle",
                              help="empirical stability boundary, CSV")
    _add_common(p_oracle, network=False)
    p_oracle.add_argument("--rho0", type=float, required=True)
    p_oracle.add_argument("--rho1", type=float, required=True)
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
