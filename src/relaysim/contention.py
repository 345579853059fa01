"""The contention slot: channel-state broadcast plus randomized INTENT backoff.

A contention slot has N+1+W mini-slots. In the first N+1, each node with an
ON channel to the destination broadcasts in its registered mini-slot, so
every node learns the full channel-state vector (detection is perfect here,
matching the regime the chain analysis covers). Contenders then draw an
integer backoff uniformly on [N+1, N+1+W]; the unique earliest INTENT wins
and forms the single-member decision schedule, and any tie at the minimum is
a collision that yields an idle decision. Node 0 always contends (it can
always reach a relay); relay i contends only when its channel is ON
(core.transmitters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (IDLE, NetworkParams, QueueState, transmitters,
                   validate_channel)


@dataclass
class ContentionOutcome:
    """What every node knows after the contention slot."""

    inferred_channels: tuple  # per node, what it believes the channel vector is
    decision: object
    collision: bool


def elect(row, contenders, values):
    """One backoff election over a row of uniforms.

    Contender i draws the backoff min(int(row[i] * values), values - 1), one
    of `values` equally likely integers; the clamp is a comparison, not a
    min() call per contender. It never binds for stream uniforms, which are
    multiples of 2**-53 below 1, while values <= 2**53 (the contention
    window's bound), and tests/test_contention.py pins it to elect_rows at
    the largest of them. The unique minimum wins; a tie at the minimum, or
    no contender at all, gives Idle.
    """
    winner, best, collided, top = IDLE, values, False, values - 1
    for i in contenders:
        draw = int(row[i] * values)
        if draw > top:
            draw = top
        if draw < best:
            winner, best, collided = i, draw, False
        elif draw == best:
            collided = True
    return IDLE if collided else winner


def _decide(params: NetworkParams, channel, rng):
    """The contention slot's election: the transmitters of `channel` contend
    over W+1 backoff values, one uniform per node drawn either way."""
    return elect(rng.uniform_row(params.n_nodes), transmitters(channel),
                 params.contention_window + 1)


def run_contention(true_channels, queues: QueueState, params: NetworkParams,
                   rng) -> ContentionOutcome:
    """Emulate one contention slot and produce the decision schedule.

    The election reads no backlog, so `queues` is unused; it stays part of
    the public signature.
    """
    validate_channel(params, true_channels)
    decision = _decide(params, true_channels, rng)
    # Node 0 always contends, so an Idle decision is always a collision.
    return ContentionOutcome(
        inferred_channels=(tuple(true_channels),) * params.n_nodes,
        decision=decision,
        collision=decision is IDLE,
    )


def blind_decision(params: NetworkParams, rng):
    """run_contention's election under an all-ON channel: every node contends.

    Used by the channel-blind CSMA baseline, where a node may be elected
    with its channel OFF.
    """
    return _decide(params, params.all_on, rng)


def elect_rows(u, values, contends):
    """elect over every row of an array of uniforms (last axis: nodes).

    Returns the winner per row as an int64 array, -1 for Idle. `contends`,
    a boolean array that broadcasts to u's shape, names the contenders.
    """
    draws = (u * values).astype(np.int64)  # elect's backoff draws
    np.minimum(draws, values - 1, out=draws)
    draws = np.where(contends, draws, values)  # above every real draw
    unique = (draws == draws.min(axis=-1, keepdims=True)).sum(axis=-1) == 1
    return np.where(unique, draws.argmin(axis=-1), -1)


def contenders(channels):
    """Who contends under an array of channel rows: node 0 and the ON
    relays (core.transmitters)."""
    contends = np.asarray(channels) != 0
    contends[..., 0] = True
    return contends


def elect_block(params: NetworkParams, rng, n_slots, channels=None) -> list:
    """n_slots successive backoff elections, drawn as one block.

    With `channels`, an (n_slots, N+1) array of 0/1 channel states, slot t is
    run_contention's election under row t: node 0 and the ON relays contend.
    Without it every node contends, as under an all-ON channel
    (blind_decision). Each slot takes one row of N+1 uniforms, so the
    decisions, and the stream position left behind, equal those of n_slots
    successive single-slot calls.
    """
    u = rng.uniform_matrix(n_slots, params.n_nodes)
    contends = contenders(params.all_on if channels is None else channels)
    winners = elect_rows(u, params.contention_window + 1, contends).tolist()
    return [IDLE if i < 0 else i for i in winners]


def sampler_options(channel) -> tuple:
    """What sampled_decision draws from: Idle and the transmitters of
    `channel`, in that order; also the per-realization chain's states
    (analysis.chain_states)."""
    return (IDLE,) + transmitters(channel)


def sample_option(options, rng):
    """One of `options`, uniformly, from one uniform of `rng`."""
    k = min(int(rng.uniform() * len(options)), len(options) - 1)
    return options[k]


def sampled_decision(params: NetworkParams, channel, rng):
    """Analysis-mode decision: uniform over Idle and the feasible nodes.

    The channel-blind baseline passes params.all_on as the channel.
    """
    return sample_option(sampler_options(channel), rng)


def decision_distribution(params: NetworkParams, channel) -> dict:
    """Exact law of run_contention's decision under this realization.

    With m contenders drawing uniformly over V = W+1 values, a contender
    wins iff its draw is strictly smaller than everyone else's:
      P(win) = sum_d (1/V) * ((V-1-d)/V)^(m-1) = S / V^m,
    where S = sum_{k<V} k^(m-1), identical for all contenders; the rest of
    the mass, (V^m - m S) / V^m, is the collision (Idle) outcome. S is an
    exact integer (_power_sum), so the cost does not grow with W and both
    masses are int true divisions, each the double nearest the exact
    ratio. Strictly positive on every feasible node.
    """
    validate_channel(params, channel)
    nodes = transmitters(channel)
    m = len(nodes)
    v = params.contention_window + 1
    wins, total = _power_sum(v, m - 1), v ** m
    dist = dict.fromkeys(nodes, wins / total)
    dist[IDLE] = (total - m * wins) / total
    return dist


def _power_sum(n, p):
    """sum_{k<n} k**p (0**0 = 1) as an exact int, in O(p**2) steps: each
    S_q follows from n**(q+1) = sum_{j<=q} C(q+1, j) S_j, which telescopes
    (k+1)**(q+1) - k**(q+1) over k < n."""
    sums, binomials = [], [1]
    for q in range(p + 1):
        binomials = [1, *map(sum, zip(binomials, binomials[1:])), 1]
        rest = sum(c * s for c, s in zip(binomials, sums))
        sums.append((n ** (q + 1) - rest) // (q + 1))
    return sums[-1]
