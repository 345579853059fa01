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

Every rule reads the backlogs by index from a flat row [Q_0, Q_1..Q_N,
Q_01..Q_0N]: a QueueState, or the list of ints run_once keeps, so the rule
a test calls is the rule a run executes.

action_backlog and differential_backlog define the action-backlog rule,
and activation_probability the activation law; tests, analysis and
lanes.activation_table read them. The four steps evaluate them inline,
with no helper call per slot or per node: mws_step all of the rule,
ub_step its "backlog > 0" test under an all-ON channel, rqcsma_step the
decision node's action backlog under the realized channel and qcsma_step
it under an all-ON channel, each CSMA step then its activation coin
against the logistic expression activation_probability evaluates.
tests/test_rule_equivalence.py pins each to the rule: mws_step to the
argmax of action_backlog over core.transmitters(channel) for N in
{1, 2, 3, 8}, and rqcsma_step, qcsma_step and ub_step to the old rules in
tests/legacy_rules.py (which call action_backlog and
activation_probability), decision for decision and coin for coin.
tests/test_scheduling.py pins rqcsma_step's edges: an infeasible decision
raises whatever its cell holds, an Idle decision writes its cell, and a
CSMA step whose activation probability is exactly 1.0 still draws one
coin.
"""

from __future__ import annotations

import math

from .contention import elect
from .core import IDLE, NetworkParams, validate_channel

SCHEDULER_KINDS = ("mws", "rqcsma", "qcsma", "ub")


def differential_backlog(queues) -> int:
    """Max over relays of Q_0 - Q_0i, floored at zero."""
    backlog = queues[0] - min(queues[(len(queues) >> 1) + 1:])
    return backlog if backlog > 0 else 0


def action_backlog(queues, channel, node) -> int:
    """The backlog behind the action `node` would perform under `channel`.

    Node 0 transmits its own queue when ON and forwards against the
    differential backlog when OFF; a relay serves the larger of its queues.
    `queues` is a QueueState or a flat row in its layout.
    """
    if node == 0:
        return queues[0] if channel[0] else differential_backlog(queues)
    own, relayed = queues[node], queues[node + (len(queues) >> 1)]
    return own if own >= relayed else relayed


def activation_probability(omega):
    """Logistic of the weight: p/(1-p) = exp(omega) exactly."""
    return 1.0 / (1.0 + math.exp(-omega))


def mws_step(queues, channel, params: NetworkParams):
    """Max-weight scheduling: the feasible node with the largest action
    backlog, lowest index on ties, Idle when every backlog is zero.

    The feasible nodes are core.transmitters(channel): node 0 and the ON
    relays, visited in index order.
    """
    m = params.n_relays
    if len(channel) != m + 1:
        validate_channel(params, channel)
    q0 = queues[0]
    # Node 0's action backlog; at or below zero (differential_backlog's
    # floor) it leaves the slot Idle.
    best_backlog = q0 if channel[0] else q0 - min(queues[m + 1:])
    if best_backlog > 0:
        best = 0
    else:
        best, best_backlog = IDLE, 0
    i = 1
    while i <= m:  # no range object per slot
        if channel[i]:
            own, relayed = queues[i], queues[i + m]
            backlog = own if own >= relayed else relayed
            if backlog > best_backlog:
                best, best_backlog = i, backlog
        i += 1
    return best


def rqcsma_step(queues, channel, memory: dict, decision,
                params: NetworkParams, rng):
    """One channel-aware CSMA step; returns the schedule.

    `memory` maps each channel realization to the schedule of its most
    recent slot; a realization never seen reads as Idle (IDLE is None). Only
    the cell of the realized channel vector is touched, and every step
    writes it, an Idle decision's too. With an Idle decision the cell keeps
    its schedule, and a decision node defers to a different held node.
    Otherwise the decision node draws its activation coin, unless its
    action backlog is zero: a dummy packet cannot seize the slot. A
    decision node whose channel is OFF raises ValueError, whatever the cell
    holds, and leaves `memory` unchanged.
    """
    if decision is not IDLE and decision != 0 and not channel[decision]:
        raise ValueError(f"infeasible decision {decision} under {channel}")
    x = memory.get(channel)
    if decision is not IDLE and (x is IDLE or x == decision):
        # action_backlog of the decision node; at or below zero (its floor)
        # no coin is drawn.
        m = params.n_relays
        if decision != 0:
            own, relayed = queues[decision], queues[decision + m]
            backlog = own if own >= relayed else relayed
        elif channel[0]:
            backlog = queues[0]
        else:
            backlog = queues[0] - min(queues[m + 1:])
        x = IDLE
        # activation_probability(activation_gain * backlog), inline
        if backlog > 0 and rng.uniform() < 1.0 / (1.0 + math.exp(
                -(params.activation_gain * backlog))):
            x = decision
    memory[channel] = x
    return x


def qcsma_step(queues, channel, previous_x, decision,
               params: NetworkParams, rng):
    """One channel-blind CSMA step, keyed on the previous transmission.

    rqcsma's rule under an all-ON channel, with `previous_x` for the memory
    cell: the returned schedule may name a relay whose channel is OFF, in
    which case the data slot is wasted (the caller serves Idle).
    """
    if decision is IDLE or (previous_x is not IDLE
                            and previous_x != decision):
        return previous_x
    # action_backlog of the decision node under params.all_on
    if decision != 0:
        own, relayed = queues[decision], queues[decision + params.n_relays]
        backlog = own if own >= relayed else relayed
    else:
        backlog = queues[0]
    # activation_probability(activation_gain * backlog), inline
    if backlog > 0 and rng.uniform() < 1.0 / (1.0 + math.exp(
            -(params.activation_gain * backlog))):
        return decision
    return IDLE


def ub_step(queues, channel, params: NetworkParams, rng):
    """Uniform backoff: backlogged nodes draw from W values, unique minimum
    wins, ties collide into an idle slot.

    Backlogs are read under an all-ON channel, so a winning relay with an
    OFF channel wastes the slot (caller serves Idle).
    """
    m = params.n_relays
    row = rng.uniform_row(m + 1)
    backlogged = [0] if queues[0] > 0 else []
    i = 1
    while i <= m:  # no range object per slot
        if queues[i] > 0 or queues[i + m] > 0:
            backlogged.append(i)
        i += 1
    return elect(row, backlogged, params.contention_window)
