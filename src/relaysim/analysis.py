"""Exact finite-chain verification and the closed-form two-node rate region.

For each channel realization the carrier-sense dynamics restricted to the
slots realizing it form a small reversible chain over the feasible schedules:
from Idle the elected node activates with its activation probability, an
active node only ever exits back to Idle, and everything else self-loops.
Its stationary law has the product form pi(y) proportional to p_y/(1-p_y)
regardless of the election distribution, which build_dtmc/solve_stationary
verify numerically against product_form. The joint schedule-channel chain
built without per-realization memory is the counterexample. Each slot it
draws node 0's new channel state and takes one step of the per-realization
chain (build_dtmc), with node 0's activation probability following the new
state; its Kolmogorov cycle products differ whenever that probability
depends on the channel state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contention import sampler_options as chain_states
from .core import IDLE, NetworkParams
from .scheduling import mws_step

_ROW_TOL = 1e-12


@dataclass
class TransitionMatrix:
    """Row-stochastic matrix over an ordered schedule (or state) list."""

    states: tuple
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.states), len(self.states)):
            raise ValueError("matrix shape does not match state count")
        if not np.isfinite(p).all():
            raise ValueError("transition probabilities must be finite")
        if (p < 0).any():
            raise ValueError("negative transition probability")
        if np.abs(p.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise ValueError("rows must sum to 1")
        self.probs = p

    def index(self, state):
        return self.states.index(state)


@dataclass
class StationaryDistribution:
    states: tuple
    pi: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.pi, dtype=float)
        if not np.isfinite(v).all():
            raise ValueError("stationary probabilities must be finite")
        if (v < -_ROW_TOL).any() or abs(v.sum() - 1.0) > _ROW_TOL:
            raise ValueError("not a probability vector")
        self.pi = v

    def prob(self, state):
        return float(self.pi[self.states.index(state)])


def build_dtmc(channel, activation_probs: dict, alpha: dict) -> TransitionMatrix:
    """Transition matrix of the per-realization carrier-sense chain.

    activation_probs maps each non-idle feasible schedule to its activation
    probability (must be strictly inside (0,1) for irreducibility); alpha is
    the election distribution over feasible schedules including Idle, with
    full support on the non-idle ones. From Idle the chain moves to y with
    probability alpha(y)*p_y; from y it falls back to Idle with probability
    alpha(y)*(1-p_y); all remaining mass self-loops (an election of another
    node freezes the holder, an idle election maintains state).
    """
    states = chain_states(channel)
    nodes = states[1:]
    if set(activation_probs) != set(nodes):
        raise ValueError("activation_probs must cover exactly the feasible nodes")
    for y, p in activation_probs.items():
        if not 0.0 < p < 1.0:
            raise ValueError(f"degenerate activation probability p[{y}]={p}")
    weights = [alpha.get(s, 0.0) for s in states]
    if not all(map(math.isfinite, weights)):
        raise ValueError("alpha values must be finite")
    for state, weight in zip(states, weights):
        if weight < 0.0:
            name = "Idle" if state is IDLE else state
            raise ValueError(f"alpha must not be negative on schedule {name}")
    total_alpha = sum(weights)
    if abs(total_alpha - 1.0) > 1e-9:
        raise ValueError("alpha must sum to 1 over the feasible schedules")
    for y in nodes:
        if alpha.get(y, 0.0) <= 0.0:
            raise ValueError(f"alpha must put positive mass on schedule {y}")

    n = len(states)
    mat = np.zeros((n, n))
    for k, y in enumerate(nodes, start=1):
        a, p = alpha[y], activation_probs[y]
        mat[0, k] = a * p
        mat[k, 0] = a * (1.0 - p)
        mat[k, k] = 1.0 - mat[k, 0]
    mat[0, 0] = 1.0 - mat[0, 1:].sum()
    return TransitionMatrix(states, mat)


def solve_stationary(tm: TransitionMatrix) -> StationaryDistribution:
    """Fixed point of pi P = pi by a direct linear solve (the chains here
    have at most a few dozen states). Verified to residual 1e-10."""
    p = tm.probs
    n = len(tm.states)
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if np.abs(pi @ p - pi).max() > 1e-10:
        raise RuntimeError("stationary residual above tolerance")
    return StationaryDistribution(tm.states, pi)


def product_form(activation_probs: dict) -> StationaryDistribution:
    """Closed-form stationary law: pi(y) = (p_y/(1-p_y))/Z, pi(Idle) = 1/Z.

    Each activation probability must lie in [0, 1): at 1 its odds are
    infinite.
    """
    for y, p in activation_probs.items():
        if not 0.0 <= p < 1.0:
            raise ValueError(f"activation probability p[{y}]={p} outside [0, 1)")
    nodes = tuple(sorted(activation_probs))
    odds = [activation_probs[y] / (1.0 - activation_probs[y]) for y in nodes]
    z = 1.0 + sum(odds)
    pi = np.array([1.0] + odds) / z
    return StationaryDistribution((IDLE,) + nodes, pi)


def check_detailed_balance(tm: TransitionMatrix, dist: StationaryDistribution) -> float:
    """Max over state pairs of |pi_a P(a,b) - pi_b P(b,a)|."""
    pi = dist.pi
    flow = pi[:, None] * tm.probs
    return float(np.abs(flow - flow.T).max())


def dtmc_check(trials, seed) -> dict:
    """Check the product-form law on random per-realization chains.

    For one and two relays and every channel realization, `trials` times:
    draw activation probabilities in [0.05, 0.95] and an election
    distribution with full support from numpy's default_rng(seed), solve the
    chain and compare with product_form. The report gives the number of
    chains, the worst stationary gap and detailed-balance residual, and
    whether they lie below 1e-8 and 1e-10. trials must be >= 1 and seed
    non-negative.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_balance = 0.0
    checks = 0
    for n_relays in (1, 2):
        n_nodes = n_relays + 1
        for code in range(2 ** n_nodes):
            channel = tuple((code >> i) & 1 for i in range(n_nodes))
            nodes = chain_states(channel)[1:]
            for _ in range(trials):
                probs = {y: float(rng.uniform(0.05, 0.95)) for y in nodes}
                weights = rng.uniform(0.1, 1.0, len(nodes) + 1)
                weights /= weights.sum()
                alpha = {IDLE: float(weights[0])}
                alpha.update({y: float(w) for y, w in zip(nodes, weights[1:])})
                tm = build_dtmc(channel, probs, alpha)
                pi_hat = solve_stationary(tm)
                pi = product_form(probs)
                worst_gap = max(worst_gap,
                                float(np.abs(pi_hat.pi - pi.pi).max()))
                worst_balance = max(worst_balance,
                                    check_detailed_balance(tm, pi_hat))
                checks += 1
    return {
        "chains_checked": checks,
        "max_product_form_gap": worst_gap,
        "max_detailed_balance_violation": worst_balance,
        "pass": bool(worst_gap < 1e-8 and worst_balance < 1e-10),
    }


def cycle_product(tm: TransitionMatrix, cycle) -> float:
    """Product of transition probabilities around a closed state cycle."""
    idx = [tm.index(s) for s in cycle]
    prod = 1.0
    for a, b in zip(idx, idx[1:] + idx[:1]):
        prod *= tm.probs[a, b]
    return prod


JOINT_CYCLE = ((IDLE, 0), (0, 0), (IDLE, 1))


def build_joint_channel_chain(rho0, p0_on, p0_off, p1, alpha) -> TransitionMatrix:
    """The schedule-channel chain for two nodes with only node 0 time varying.

    States are (x, s0) with x in {Idle, 0, 1}. Carrier sense keys on the
    previous transmission only, so each slot draws the new channel state s0'
    (ON with probability rho0) and takes one step of the per-realization
    chain, build_dtmc under the all-ON channel, in which node 0's activation
    probability follows s0' (p0_on / p0_off) because its weight argument
    jumps with it; node 1's stays p1. build_dtmc's preconditions apply:
    every activation probability must lie strictly inside (0, 1), and both
    a0 and a1 must be positive. This is the chain that is NOT reversible:
    the Kolmogorov products around JOINT_CYCLE differ unless p0_on == p0_off.
    """
    a0, a1 = alpha
    if a0 < 0 or a1 < 0 or a0 + a1 > 1 + 1e-12:
        raise ValueError("election probabilities must satisfy a0+a1 <= 1")
    # a0 + a1 may pass 1 by rounding; Idle's mass is never negative
    election = {IDLE: max(0.0, 1.0 - a0 - a1), 0: a0, 1: a1}
    # step[x, x', s0'] = P(s0') * K_{s0'}(x, x'), over x, x' in (Idle, 0, 1)
    step = np.stack([pr * build_dtmc((1, 1), {0: p0, 1: p1}, election).probs
                     for pr, p0 in ((1.0 - rho0, p0_off), (rho0, p0_on))],
                    axis=-1)
    states = tuple((x, s) for x in (IDLE, 0, 1) for s in (0, 1))
    # a row reads x only, so (x, 0) and (x, 1) share it
    return TransitionMatrix(states, np.repeat(step.reshape(3, 6), 2, axis=0))


def kolmogorov_mismatch(tm: TransitionMatrix) -> float:
    """Forward minus reverse product around JOINT_CYCLE; zero for a
    reversible chain."""
    return (cycle_product(tm, JOINT_CYCLE)
            - cycle_product(tm, JOINT_CYCLE[::-1]))


def ray_direction(angle_deg):
    """Unit direction of the ray at angle_deg from the lambda0 axis; the
    angle must lie in [0, 90] degrees, so the ray points into the first
    quadrant and both components are >= 0."""
    if not math.isfinite(angle_deg):
        raise ValueError(f"angle must be finite, got {angle_deg:g}")
    if not 0 <= angle_deg <= 90:
        raise ValueError(f"angle must lie in [0, 90] degrees, "
                         f"got {angle_deg:.15g}")
    return math.cos(math.radians(angle_deg)), math.sin(math.radians(angle_deg))


@dataclass(frozen=True)
class RateRegion2:
    """Closed-form achievable rate region of the one-relay network, the
    capacity region that max-weight scheduling stabilizes (Tassiulas &
    Ephremides 1992): three strict half-planes, `faces`, each (a0, a1, b)
    meaning a0*lambda0 + a1*lambda1 < b:
        lambda1 < rho1,
        lambda0 + lambda1 < c = rho0 + rho1*(1 - rho0),
        2*lambda0 + lambda1 < 1 + rho0.
    For rho1 < 1/2 the third face is implied by the others:
    2*lambda0 + lambda1 < 2c - lambda1 <= 2c <= 1 + rho0. For rho1 >= 1/2
    the second and third lines meet at the knee
    lambda1 = (1 - rho0)*(2*rho1 - 1) <= rho1. Below it the third face
    implies the others (lambda0 + lambda1 < (1 + rho0 + knee)/2 = c), and
    at or above it the second implies the third
    (2*lambda0 + lambda1 < 2c - knee = 1 + rho0).
    """

    rho0: float
    rho1: float

    def __post_init__(self):
        if not (0.0 <= self.rho0 <= 1.0 and 0.0 <= self.rho1 <= 1.0):
            raise ValueError("rho0 and rho1 must lie in [0, 1]")

    @property
    def faces(self):
        r0, r1 = self.rho0, self.rho1
        return ((0.0, 1.0, r1), (1.0, 1.0, r0 + r1 * (1.0 - r0)),
                (2.0, 1.0, 1.0 + r0))

    def contains(self, lambda0, lambda1) -> bool:
        if not (lambda0 >= 0 and lambda1 >= 0):  # NaN fails both
            raise ValueError("rates must be non-negative numbers")
        return all(a0 * lambda0 + a1 * lambda1 < b for a0, a1, b in self.faces)

    def boundary(self, angle_deg):
        """Boundary point on the ray u at angle_deg from the lambda0 axis, at
        scale min b / (a.u) over the faces with a.u > 0. A face parallel to
        the ray with b <= 0 (rho1 = 0, angle 0) makes the scale 0."""
        ux, uy = ray_direction(angle_deg)
        scale = math.inf
        for a0, a1, b in self.faces:
            slope = a0 * ux + a1 * uy
            if slope > 0:
                scale = min(scale, b / slope)
            elif b <= 0:
                scale = 0.0
        return scale * ux, scale * uy


def expected_service_rates(q0, q1, rho0, rho1):
    """Mean direct, forwarding and relay service of max-weight scheduling
    in the reduced two-queue model at backlogs (q0, q1).

    The relay folds its relayed backlog into its own queue, so mws_step
    runs on the row [q0, q1, q1] of a one-relay network with channel ON
    probabilities (rho0, rho1); each rate is the probability of the channel
    realizations on which it serves the source directly (source ON),
    forwards (source OFF) or picks the relay. rho0 and rho1 must lie in
    [0, 1].
    """
    params = NetworkParams(n_relays=1, rho=(rho0, rho1), lam=(0.0, 0.0))
    rates = [0.0, 0.0, 0.0]
    for channel in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x = mws_step([q0, q1, q1], channel, params)
        if x is not IDLE:
            mass = math.prod(r if on else 1.0 - r
                             for r, on in zip(params.rho, channel))
            rates[2 if x else 1 - channel[0]] += mass
    return tuple(rates)
