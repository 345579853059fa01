"""The scheduling and election rules as written before they were merged.

relaysim now evaluates each channel-blind baseline as its channel-aware rule
under an all-ON channel, runs every backoff election through
contention.elect, and ranks mws candidates by action backlog instead of
log(1 + beta*x) weights. These copies of the separate implementations they
replaced are the references that tests/test_rule_equivalence.py holds the
merged rules to, decision for decision and uniform for uniform.
"""

import math

from relaysim import IDLE
from relaysim.core import feasible_schedules
from relaysim.scheduling import action_backlog, activation_probability


def weight_f(x, beta):
    """Queue-weight function log(1 + beta*x): non-decreasing, 0 at 0."""
    if x < 0:
        raise ValueError("backlog must be non-negative")
    return math.log1p(beta * x)


def compute_weights(queues, channel, params):
    """Per-node weights: f of the action backlog, zeroed for OFF relays."""
    beta = params.beta
    w = [weight_f(action_backlog(queues, channel, 0), beta)]
    for i in range(1, params.n_nodes):
        w.append(weight_f(action_backlog(queues, channel, i), beta)
                 if channel[i] else 0.0)
    return tuple(w)


def argmax_schedule(weights, candidates):
    """Lowest-index candidate with the strictly largest positive weight."""
    best, best_w = IDLE, 0.0
    for i in sorted(candidates):
        if weights[i] > best_w:
            best, best_w = i, weights[i]
    return best


def mws_step(queues, channel, params):
    """Max-weight scheduling: argmax over feasible nodes, Idle on all-zero."""
    weights = compute_weights(queues, channel, params)
    candidates = [s for s in feasible_schedules(params, channel)
                  if s is not IDLE]
    return argmax_schedule(weights, candidates)


def run_contention_decision(true_channels, params, rng):
    """The decision of a contention slot: node 0 and the ON relays draw from
    [N+1, N+1+W]; the unique earliest wins, a tie is a collision (Idle)."""
    n = params.n_nodes
    w = params.contention_window
    row = rng.uniform_row(n)
    draws = {}
    for i in [0] + [i for i in range(1, n) if true_channels[i]]:
        draws[i] = n + min(int(row[i] * (w + 1)), w)
    best = min(draws.values())
    winners = [i for i, d in draws.items() if d == best]
    return IDLE if len(winners) > 1 else winners[0]


def blind_decision(params, rng):
    """Backoff election with no channel knowledge: every node contends."""
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


def sampled_decision(params, channel, rng):
    """Analysis-mode decision: uniform over feasible nodes plus Idle."""
    options = sorted(
        (i for i in range(1, params.n_nodes) if channel[i]))
    options = [IDLE, 0] + options
    k = min(int(rng.uniform() * len(options)), len(options) - 1)
    return options[k]


def sampled_decision_blind(params, rng):
    """Analysis-mode decision with no channel knowledge: all nodes plus Idle."""
    n = params.n_nodes
    k = min(int(rng.uniform() * (n + 1)), n)
    return IDLE if k == 0 else k - 1


def _blind_backlog(queues, node):
    if node == 0:
        return queues.q0
    j = node - 1
    return max(queues.q[j], queues.q0i[j])


def _csma_resolve(decision, held, p_active, rng):
    if decision is IDLE:
        return held
    if held is not IDLE and held != decision:
        return held
    if p_active > 0.0 and rng.uniform() < p_active:
        return decision
    return IDLE


def qcsma_step(queues, channel, previous_x, decision, params, rng):
    """One channel-blind CSMA step, keyed on the previous transmission."""
    p = 0.0
    if decision is not IDLE and (previous_x is IDLE or previous_x == decision):
        backlog = _blind_backlog(queues, decision)
        if backlog > 0:
            p = activation_probability(params.activation_gain * backlog)
    return _csma_resolve(decision, previous_x, p, rng)


def rqcsma_step(queues, channel, memory, decision, params, rng):
    """One channel-aware CSMA step on a dict memory; returns the schedule."""
    if decision is not IDLE and decision != 0 and not channel[decision]:
        raise ValueError(f"infeasible decision {decision} under {channel}")
    held = memory.get(channel, IDLE)
    p = 0.0
    if decision is not IDLE and (held is IDLE or held == decision):
        if action_backlog(queues, channel, decision) > 0:
            p = activation_probability(
                params.activation_gain
                * action_backlog(queues, channel, decision))
    x = _csma_resolve(decision, held, p, rng)
    memory[channel] = x
    return x


def ub_step(queues, channel, params, rng):
    """Uniform backoff: backlogged nodes draw from {1..W}, unique minimum wins."""
    w = params.contention_window
    row = rng.uniform_row(params.n_nodes)
    winner = IDLE
    best = w + 1
    collided = False
    for i in range(params.n_nodes):
        if _blind_backlog(queues, i) == 0:
            continue
        draw = min(int(row[i] * w) + 1, w)
        if draw < best:
            winner, best, collided = i, draw, False
        elif draw == best:
            collided = True
    return IDLE if collided else winner
