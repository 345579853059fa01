"""The scheduling and election rules as written before they were merged.

relaysim now evaluates each channel-blind baseline as its channel-aware rule
under an all-ON channel, runs every backoff election through
contention.elect, and ranks mws candidates by action backlog instead of
log(1 + beta*x) weights. These copies of the separate implementations they
replaced are the references that tests/test_rule_equivalence.py holds the
merged rules to, decision for decision and uniform for uniform.

RateRegion2 is the one-relay rate region as written before it became one
polytope: two cases split at rho1 = 1/2 and a bisection for the boundary.
tests/test_rule_equivalence.py holds analysis.RateRegion2 to it.

build_joint_channel_chain is the schedule-channel chain with its carrier-sense
kernel written out entry by entry, as it was before analysis built it from
build_dtmc. tests/test_rule_equivalence.py holds the new chain to it.

relay_target and apply_slot are the queue update as written before its body
read each relay queue once: a loop over the relayed backlogs for the
forwarding target, and row reads by index in every branch.
tests/test_rule_equivalence.py holds core's two to them.
"""

import math
from dataclasses import dataclass

import numpy as np

from relaysim import IDLE, QueueState
from relaysim.core import feasible_schedules
from relaysim.analysis import TransitionMatrix, ray_direction
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


@dataclass(frozen=True)
class RateRegion2:
    """The one-relay rate region. For rho1 < 1/2 it is
        lambda1 < rho1  and  lambda0 + lambda1 < rho0 + rho1*(1 - rho0);
    for rho1 >= 1/2 it is the union of
        lambda1 < (1-rho0)*(2*rho1 - 1)  and  2*lambda0 + lambda1 < 1 + rho0
    with
        (1-rho0)*(2*rho1-1) <= lambda1 < rho1  and
        lambda0 + lambda1 < rho0 + (1-rho0)*rho1.
    """

    rho0: float
    rho1: float

    def contains(self, lambda0, lambda1) -> bool:
        r0, r1 = self.rho0, self.rho1
        if r1 < 0.5:
            return lambda1 < r1 and lambda0 + lambda1 < r0 + r1 * (1.0 - r0)
        knee = (1.0 - r0) * (2.0 * r1 - 1.0)
        low = lambda1 < knee and 2.0 * lambda0 + lambda1 < 1.0 + r0
        high = (knee <= lambda1 < r1
                and lambda0 + lambda1 < r0 + (1.0 - r0) * r1)
        return low or high

    def boundary(self, angle_deg):
        """Bisection on contains along the ray, to a scale width of 1e-6."""
        ux, uy = ray_direction(angle_deg)
        lo, hi = 0.0, 3.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if self.contains(mid * ux, mid * uy):
                lo = mid
            else:
                hi = mid
        scale = 0.5 * (lo + hi)
        return scale * ux, scale * uy


def build_joint_channel_chain(rho0, p0_on, p0_off, p1, alpha) -> TransitionMatrix:
    """The schedule-channel chain for two nodes with only node 0 time varying.

    States are (x, s0) with x in {Idle, 0, 1}. Carrier sense keys on the
    previous transmission only; node 0's activation probability follows the
    current channel state (p0_on / p0_off) because its weight argument jumps
    with it, node 1's stays p1. This is the chain that is NOT reversible:
    the Kolmogorov products around JOINT_CYCLE differ unless p0_on == p0_off.
    """
    a0, a1 = alpha
    if a0 < 0 or a1 < 0 or a0 + a1 > 1 + 1e-12:
        raise ValueError("election probabilities must satisfy a0+a1 <= 1")

    def kernel(s_new):
        p0 = p0_on if s_new else p0_off
        k = np.zeros((3, 3))  # order: Idle, 0, 1
        k[0, 1] = a0 * p0
        k[0, 2] = a1 * p1
        k[0, 0] = 1.0 - k[0, 1] - k[0, 2]
        k[1, 0] = a0 * (1.0 - p0)
        k[1, 1] = 1.0 - k[1, 0]
        k[2, 0] = a1 * (1.0 - p1)
        k[2, 2] = 1.0 - k[2, 0]
        return k

    xs = (IDLE, 0, 1)
    states = tuple((x, s) for x in xs for s in (0, 1))
    mat = np.zeros((6, 6))
    kern = {0: kernel(0), 1: kernel(1)}
    pr = {0: 1.0 - rho0, 1: rho0}
    for i, (x, _s) in enumerate(states):
        for j, (x_new, s_new) in enumerate(states):
            mat[i, j] = pr[s_new] * kern[s_new][xs.index(x), xs.index(x_new)]
    return TransitionMatrix(states, mat)


def relay_target(queues):
    """The relay i* node 0 forwards to: maximizes Q_0 - Q_0i (min backlog),
    lowest node index on ties."""
    n = len(queues) >> 1
    best = n + 1
    for k in range(n + 2, 2 * n + 1):
        if queues[k] < queues[best]:
            best = k
    return best - n


def apply_slot(queues, transmission, channel, arrivals):
    """Serve `transmission`, then add arrivals; (new state, served tag)."""
    row = list(queues)
    n = len(row) >> 1

    tag = "none"
    if transmission == 0:
        if row[0] > 0:
            row[0] -= 1
            if channel[0]:
                tag = "source-direct"
            else:
                target = relay_target(row)
                row[n + target] += 1
                tag = f"source-relayed-to-{target}"
    elif transmission is not IDLE:
        i = transmission
        if not channel[i]:
            raise ValueError(
                f"relay {i} scheduled with its channel OFF (scheduler bug)")
        if row[i] >= row[n + i]:
            if row[i] > 0:
                row[i] -= 1
                tag = f"relay-{i}-own"
        else:
            row[n + i] -= 1
            tag = f"relay-{i}-forwarding"

    for node, a in enumerate(arrivals):
        if a:
            row[node] += a
    if type(queues) is not list:
        row = QueueState.from_row(row)
    return row, tag
