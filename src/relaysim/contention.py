"""The contention slot: channel-state broadcast plus randomized INTENT backoff.

A contention slot has N+1+W mini-slots. In the first N+1, each node with an
ON channel to the destination broadcasts in its registered mini-slot, so
every node learns the full channel-state vector (detection is perfect here,
matching the regime the chain analysis covers). Contenders then draw an
integer backoff uniformly on [N+1, N+1+W]; the unique earliest INTENT wins
and forms the single-member decision schedule, and any tie at the minimum is
a collision that yields an idle decision. Node 0 always contends (it can
always reach a relay); relay i contends only when its channel is ON.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IDLE, NetworkParams, QueueState, validate_channel


@dataclass
class ContentionOutcome:
    """What every node knows after the contention slot."""

    inferred_channels: tuple  # per node, what it believes the channel vector is
    decision: object
    winner_minislot: object  # mini-slot index of the winning INTENT, or None
    collision: bool


def contenders_for(params: NetworkParams, channel):
    """Nodes that send an INTENT under this channel realization."""
    return [0] + [i for i in range(1, params.n_nodes) if channel[i]]


def run_contention(true_channels, queues: QueueState, params: NetworkParams,
                   rng) -> ContentionOutcome:
    """Emulate one contention slot and produce the decision schedule."""
    validate_channel(params, true_channels)
    n = params.n_nodes
    w = params.contention_window
    row = rng.uniform_row(n)

    draws = {}
    for i in contenders_for(params, true_channels):
        draws[i] = n + min(int(row[i] * (w + 1)), w)

    best = min(draws.values())
    winners = [i for i, d in draws.items() if d == best]
    collision = len(winners) > 1
    decision = IDLE if collision else winners[0]

    inferred = tuple(tuple(true_channels) for _ in range(n))
    return ContentionOutcome(
        inferred_channels=inferred,
        decision=decision,
        winner_minislot=None if collision else best,
        collision=collision,
    )


def blind_decision(params: NetworkParams, rng):
    """Backoff election with no channel knowledge: every node contends.

    Used by the channel-blind CSMA baseline, where a node may be elected
    with its channel OFF.
    """
    n = params.n_nodes
    w = params.contention_window
    row = rng.uniform_row(n)
    best = w + 1
    winner = IDLE
    collided = False
    for i in range(n):
        draw = min(int(row[i] * (w + 1)), w)
        if draw < best:
            winner, best, collided = i, draw, False
        elif draw == best:
            collided = True
    return IDLE if collided else winner


def elect_block(params: NetworkParams, rng, n_slots, channels=None) -> list:
    """n_slots successive backoff elections, drawn as one block.

    With `channels`, an (n_slots, N+1) array of 0/1 channel states, slot t is
    run_contention's election under row t: node 0 and the ON relays contend.
    Without it every node contends, as in blind_decision. Each slot takes one
    row of N+1 uniforms, so the decisions, and the stream position left
    behind, equal those of n_slots successive single-slot calls.
    """
    n = params.n_nodes
    w = params.contention_window
    u = rng.uniform_matrix(n_slots, n)
    draws = np.minimum((u * (w + 1)).astype(np.int64), w)
    if channels is not None:
        contends = np.asarray(channels) != 0
        contends[:, 0] = True
        draws = np.where(contends, draws, w + 1)  # above every real draw
    unique = (draws == draws.min(axis=1, keepdims=True)).sum(axis=1) == 1
    winners = np.where(unique, draws.argmin(axis=1), -1).tolist()
    return [IDLE if i < 0 else i for i in winners]


def sampled_decision(params: NetworkParams, channel, rng):
    """Analysis-mode decision: uniform over feasible nodes plus Idle."""
    options = sorted(
        (i for i in range(1, params.n_nodes) if channel[i]))
    options = [IDLE, 0] + options
    k = min(int(rng.uniform() * len(options)), len(options) - 1)
    return options[k]


def sampled_decision_blind(params: NetworkParams, rng):
    """Analysis-mode decision with no channel knowledge: all nodes plus Idle."""
    n = params.n_nodes
    k = min(int(rng.uniform() * (n + 1)), n)
    return IDLE if k == 0 else k - 1


def decision_distribution(params: NetworkParams, channel) -> dict:
    """Exact law of run_contention's decision under this realization.

    With m contenders drawing uniformly over V = W+1 values, a contender
    wins iff its draw is strictly smaller than everyone else's:
      P(win) = sum_d (1/V) * ((V-1-d)/V)^(m-1),
    identical for all contenders; the rest of the mass is the collision
    (Idle) outcome. Strictly positive on every feasible node.
    """
    validate_channel(params, channel)
    nodes = contenders_for(params, channel)
    m = len(nodes)
    v = params.contention_window + 1
    p_win = sum((1.0 / v) * ((v - 1 - d) / v) ** (m - 1) for d in range(v))
    dist = {i: p_win for i in nodes}
    dist[IDLE] = max(0.0, 1.0 - m * p_win)
    return dist
