"""The four schedulers behind one per-slot interface.

MWS picks the feasible node with the largest action backlog each slot from
full state. The CSMA schedulers turn a randomly elected decision schedule
into a transmission schedule with carrier-sense memory: the channel-aware
variant keeps one memory cell per channel realization (only the chain of the
realized vector evolves in a slot); the baseline keys on the previous slot's
schedule and is the same rule evaluated under an all-ON channel, so it is
blind to channel state. Uniform backoff ignores queue lengths entirely
except for staying silent when empty.

Action backlogs follow the two-term source rule (own backlog when its
channel is ON, differential relayed backlog when OFF) and the larger-queue
rule at relays. The *activation* probability a CSMA node uses to seize the
slot is the logistic of a linear weight (activation_gain * action backlog),
and a node whose action backlog is zero never newly activates. Linear
activation gives exponential activation odds, which the near-boundary share
allocations require; a log(1 + beta*x) weight's polynomial odds cannot
realize them (see README). No scheduler reads NetworkParams.beta: mws is an
argmax, which a monotone weight function such as log(1 + beta*x) leaves
unchanged.
"""

from __future__ import annotations

import math

from .contention import elect
from .core import (IDLE, NetworkParams, QueueState, transmitters,
                   validate_channel)

SCHEDULER_KINDS = ("mws", "rqcsma", "qcsma", "ub")


def differential_backlog(queues: QueueState) -> int:
    """Max over relays of Q_0 - Q_0i, floored at zero."""
    return max(queues.q0 - min(queues.q0i), 0)


def action_backlog(queues: QueueState, channel, node) -> int:
    """The backlog behind the action `node` would perform under `channel`.

    Node 0 transmits its own queue when ON and forwards against the
    differential backlog when OFF; a relay serves the larger of its queues.
    """
    if node == 0:
        return queues.q0 if channel[0] else differential_backlog(queues)
    j = node - 1
    return max(queues.q[j], queues.q0i[j])


def activation_probability(omega):
    """Logistic of the weight: p/(1-p) = exp(omega) exactly."""
    return 1.0 / (1.0 + math.exp(-omega))


def mws_step(queues: QueueState, channel, params: NetworkParams):
    """Max-weight scheduling: the feasible node with the largest action
    backlog, lowest index on ties, Idle when every backlog is zero."""
    validate_channel(params, channel)
    best, best_backlog = IDLE, 0
    for i in transmitters(channel):
        backlog = action_backlog(queues, channel, i)
        if backlog > best_backlog:
            best, best_backlog = i, backlog
    return best


def _csma_step(queues: QueueState, channel, held, decision,
               params: NetworkParams, rng):
    """Carrier-sense transition shared by both CSMA schedulers.

    `held` is the schedule being maintained (per-realization memory for the
    channel-aware variant, previous transmission for the baseline). With an
    Idle decision everyone keeps state, and a decision node defers to a
    different held node. Otherwise the decision node draws its activation
    coin, unless its action backlog is zero: a dummy packet cannot seize the
    slot.
    """
    if decision is IDLE or (held is not IDLE and held != decision):
        return held
    backlog = action_backlog(queues, channel, decision)
    if backlog > 0 and rng.uniform() < activation_probability(
            params.activation_gain * backlog):
        return decision
    return IDLE


def rqcsma_step(queues: QueueState, channel, memory: dict, decision,
                params: NetworkParams, rng):
    """One channel-aware CSMA step; returns the schedule.

    `memory` maps each channel realization to the schedule of its most
    recent slot; a realization never seen reads as Idle (IDLE is None). Only
    the cell of the realized channel vector is touched.
    """
    if decision is not IDLE and decision != 0 and not channel[decision]:
        raise ValueError(f"infeasible decision {decision} under {channel}")
    x = _csma_step(queues, channel, memory.get(channel), decision, params,
                   rng)
    memory[channel] = x
    return x


def qcsma_step(queues: QueueState, channel, previous_x, decision,
               params: NetworkParams, rng):
    """One channel-blind CSMA step, keyed on the previous transmission.

    rqcsma's rule under an all-ON channel: the returned schedule may name a
    relay whose channel is OFF, in which case the data slot is wasted (the
    caller serves Idle).
    """
    return _csma_step(queues, params.all_on, previous_x, decision, params,
                      rng)


def ub_step(queues: QueueState, channel, params: NetworkParams, rng):
    """Uniform backoff: backlogged nodes draw from W values, unique minimum
    wins, ties collide into an idle slot.

    Backlogs are read under an all-ON channel, so a winning relay with an
    OFF channel wastes the slot (caller serves Idle).
    """
    n, on = params.n_nodes, params.all_on
    row = rng.uniform_row(n)
    backlogged = [i for i in range(n) if action_backlog(queues, on, i) > 0]
    return elect(row, backlogged, params.contention_window)
