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
                      header_lines, parse_config, run_seeds, stable_fraction,
                      sweep_grid)
from .scheduling import SCHEDULER_KINDS


def _load_config(args) -> ExperimentConfig:
    """The experiment config from --config and the flags; bad input exits
    with a one-line message."""
    try:
        return _build_config(args)
    except ValueError as exc:
        raise SystemExit(f"relaysim {args.command}: {exc}") from None


def _build_config(args) -> ExperimentConfig:
    config = parse_config(Path(args.config).read_text() if args.config
                          else "")
    params = config.params
    if args.rho is not None:
        values = tuple(float(v) for v in args.rho.split(","))
        params = replace(params, n_relays=len(values) - 1, rho=values,
                         lam=params.lam if len(params.lam) == len(values)
                         else (0.0,) * len(values))
    if getattr(args, "lam", None) is not None:
        values = tuple(float(v) for v in args.lam.split(","))
        if len(values) != params.n_nodes:
            raise SystemExit("--lambda length must match rho length")
        params = replace(params, lam=values)
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    config = replace(config, params=params)
    if args.scheduler:
        config = replace(config, scheduler=args.scheduler)
    if args.horizon is not None:
        config = replace(config, horizon=args.horizon)
    if args.seeds is not None:
        config = replace(config, n_seeds=args.seeds)
    if getattr(args, "decision_mode", None):
        config = replace(config, decision_mode=args.decision_mode)
    return config


def _add_common(parser):
    parser.add_argument("--config", "-c", help="flat key=value config file")
    parser.add_argument("--scheduler", choices=SCHEDULER_KINDS)
    parser.add_argument("--rho", help="comma-separated ON probabilities")
    parser.add_argument("--lambda", dest="lam",
                        help="comma-separated arrival rates")
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", type=int, help="number of sample paths")
    parser.add_argument("--decision-mode", choices=DECISION_MODES)
    parser.add_argument("--out", "-o", help="output file (default stdout)")


def _output(args):
    """The --out file, or stdout (left open), as a context manager."""
    if args.out:
        return open(args.out, "w")
    return contextlib.nullcontext(sys.stdout)


def _require_count(args, name, value):
    """Exit with a one-line message unless the count `value` is >= 1."""
    if value < 1:
        raise SystemExit(f"relaysim {args.command}: {name} must be >= 1, "
                         f"got {value}")


def cmd_run(args):
    config = _load_config(args)
    config = replace(config, trace=bool(args.trace))
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
    config = _load_config(args)
    _require_count(args, "workers", args.workers)
    _require_count(args, "grid", args.grid)
    n_nodes = config.params.n_nodes
    if args.gamma:
        gammas = [float(g) for g in args.gamma.split(",")]
        grid = gamma_grid(config.params.lam, gammas)
    elif n_nodes > 2:
        raise SystemExit(f"relaysim sweep: a box sweep needs 2 rates (one "
                         f"relay), not {n_nodes}; use --gamma to sweep a "
                         f"network with more relays")
    else:
        n = args.grid
        grid = box_grid(n, args.l0_max, args.l1_max)
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
    _require_count(args, "n-angles", args.n_angles)
    region = analysis.RateRegion2(args.rho0, args.rho1)
    with _output(args) as out:
        out.write(f"# rho0 = {args.rho0}\n# rho1 = {args.rho1}\n")
        out.write("angle_deg,lambda0,lambda1\n")
        for angle in np.linspace(0.0, 90.0, args.n_angles):
            l0, l1 = region.boundary(float(angle))
            out.write(f"{angle:.4f},{l0:.6f},{l1:.6f}\n")


def cmd_boundary_oracle(args):
    config = _load_config(args)
    angles = [float(a) for a in args.angles.split(",")]
    try:
        for angle in angles:
            analysis.ray_direction(angle)
    except ValueError as exc:
        raise SystemExit(f"relaysim {args.command}: {exc}") from None
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
    if args.seed is not None and args.seed < 0:
        raise SystemExit(f"relaysim dtmc-check: seed must be non-negative, "
                         f"got {args.seed}")
    _require_count(args, "trials", args.trials)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
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
    _add_common(p_oracle)
    p_oracle.add_argument("--rho0", type=float, required=True)
    p_oracle.add_argument("--rho1", type=float, required=True)
    p_oracle.add_argument("--angles", default="0,30,45,60,90",
                          help="comma list of ray angles in degrees")
    p_oracle.set_defaults(func=cmd_boundary_oracle)

    p_dtmc = sub.add_parser("dtmc-check",
                            help="verify product-form stationary laws, JSON")
    p_dtmc.add_argument("--trials", type=int, default=50)
    p_dtmc.add_argument("--seed", type=int)
    p_dtmc.add_argument("--out", "-o")
    p_dtmc.set_defaults(func=cmd_dtmc_check)

    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
