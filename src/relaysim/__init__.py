"""Slotted-time simulator and exact-analysis toolkit for two-hop relay
networks with ON-OFF channels."""

from .analysis import (RateRegion2, StationaryDistribution, TransitionMatrix,
                       build_dtmc, build_joint_channel_chain,
                       check_detailed_balance, expected_service_rates,
                       kolmogorov_mismatch, product_form, solve_stationary)
from .contention import (ContentionOutcome, decision_distribution,
                         run_contention)
from .core import (IDLE, ChannelStateVector, NetworkParams, QueueState,
                   Schedule, SlotRecord, apply_slot, feasible_schedules,
                   relay_target)
from .harness import (ExperimentConfig, RunResult, aggregate_ci,
                      boundary_oracle, classify_stability, parse_config,
                      run_once, run_seeds, sweep_grid)
from .rng import RngStream, RunStreams, sample_arrivals, sample_channels
from .scheduling import (activation_probability, differential_backlog,
                         mws_step, qcsma_step, rqcsma_step, ub_step)

__all__ = [
    "IDLE", "ChannelStateVector", "NetworkParams", "QueueState", "Schedule",
    "SlotRecord", "apply_slot", "feasible_schedules", "relay_target",
    "RngStream", "RunStreams", "sample_arrivals", "sample_channels",
    "activation_probability", "differential_backlog", "mws_step",
    "qcsma_step", "rqcsma_step", "ub_step",
    "ContentionOutcome", "decision_distribution", "run_contention",
    "RateRegion2", "StationaryDistribution", "TransitionMatrix",
    "build_dtmc", "build_joint_channel_chain", "check_detailed_balance",
    "expected_service_rates", "kolmogorov_mismatch", "product_form",
    "solve_stationary",
    "ExperimentConfig", "RunResult", "aggregate_ci", "boundary_oracle",
    "classify_stability", "parse_config", "run_once", "run_seeds",
    "sweep_grid",
]

__version__ = "0.1.0"
