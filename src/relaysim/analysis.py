"""Exact finite-chain verification and the closed-form two-node rate region.

For each channel realization the carrier-sense dynamics restricted to the
slots realizing it form a small reversible chain over the feasible schedules:
from Idle the elected node activates with its activation probability, an
active node only ever exits back to Idle, and everything else self-loops.
Its stationary law has the product form pi(y) proportional to p_y/(1-p_y)
regardless of the election distribution, which build_dtmc/solve_stationary
verify numerically against product_form. The joint schedule-channel chain
built without per-realization memory is the counterexample: its Kolmogorov
cycle products differ whenever the source's activation probability depends
on its channel state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import IDLE, transmitters

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
        if (v < -_ROW_TOL).any() or abs(v.sum() - 1.0) > _ROW_TOL:
            raise ValueError("not a probability vector")
        self.pi = v

    def prob(self, state):
        return float(self.pi[self.states.index(state)])


def chain_states(channel):
    """State space of the per-realization chain: Idle, node 0, ON relays."""
    return (IDLE,) + transmitters(channel)


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
    total_alpha = sum(alpha.get(s, 0.0) for s in states)
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


def solve_stationary(tm: TransitionMatrix, max_iter=1_000_000) -> StationaryDistribution:
    """Fixed point of pi P = pi: direct solve for small chains, else power
    iteration. Verified to residual 1e-10."""
    p = tm.probs
    n = len(tm.states)
    if n <= 64:
        a = p.T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
    else:
        pi = np.full(n, 1.0 / n)
        for _ in range(max_iter):
            nxt = pi @ p
            if np.abs(nxt - pi).max() < 1e-14:
                pi = nxt
                break
            pi = nxt
        else:
            raise RuntimeError("stationary distribution did not converge")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    if np.abs(pi @ p - pi).max() > 1e-10:
        raise RuntimeError("stationary residual above tolerance")
    return StationaryDistribution(tm.states, pi)


def product_form(activation_probs: dict) -> StationaryDistribution:
    """Closed-form stationary law: pi(y) = (p_y/(1-p_y))/Z, pi(Idle) = 1/Z."""
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


def kolmogorov_mismatch(tm: TransitionMatrix, cycle=JOINT_CYCLE) -> float:
    """Forward minus reverse cycle product; zero for a reversible chain."""
    return cycle_product(tm, cycle) - cycle_product(tm, tuple(reversed(cycle)))


@dataclass(frozen=True)
class RateRegion2:
    """Closed-form achievable rate region of the one-relay network.

    For rho1 < 1/2 the region is
        lambda1 < rho1  and  lambda0 + lambda1 < rho0 + rho1*(1 - rho0);
    for rho1 >= 1/2 it is the union of
        lambda1 < (1-rho0)*(2*rho1 - 1)  and  2*lambda0 + lambda1 < 1 + rho0
    with
        (1-rho0)*(2*rho1-1) <= lambda1 < rho1  and
        lambda0 + lambda1 < rho0 + (1-rho0)*rho1.
    All inequalities strict on the outer boundary.
    """

    rho0: float
    rho1: float

    def __post_init__(self):
        if not (0.0 <= self.rho0 <= 1.0 and 0.0 <= self.rho1 <= 1.0):
            raise ValueError("rho0 and rho1 must lie in [0, 1]")

    def contains(self, lambda0, lambda1) -> bool:
        if lambda0 < 0 or lambda1 < 0:
            raise ValueError("rates must be non-negative")
        r0, r1 = self.rho0, self.rho1
        if r1 < 0.5:
            return lambda1 < r1 and lambda0 + lambda1 < r0 + r1 * (1.0 - r0)
        knee = (1.0 - r0) * (2.0 * r1 - 1.0)
        low = lambda1 < knee and 2.0 * lambda0 + lambda1 < 1.0 + r0
        high = (knee <= lambda1 < r1
                and lambda0 + lambda1 < r0 + (1.0 - r0) * r1)
        return low or high

    def boundary(self, angle_deg, tol=1e-6):
        """Boundary point on the ray at angle_deg from the lambda0 axis."""
        theta = math.radians(angle_deg)
        ux, uy = math.cos(theta), math.sin(theta)
        if ux < -1e-12 or uy < -1e-12:
            raise ValueError("direction must point into the first quadrant")
        ux, uy = max(ux, 0.0), max(uy, 0.0)
        lo, hi = 0.0, 3.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.contains(mid * ux, mid * uy):
                lo = mid
            else:
                hi = mid
        scale = 0.5 * (lo + hi)
        return scale * ux, scale * uy


def expected_service_rates(q0, q1, rho0, rho1):
    """Conditional mean service rates of the reduced two-queue model.

    The relay folds its relayed backlog into its own queue; under max-weight
    service the direct, forwarding, and relay rates are exact functions of
    the channel ON probabilities and the queue-comparison indicators.
    """
    direct = rho0 * (1.0 - rho1) + rho0 * rho1 * (1.0 if q0 >= q1 else 0.0)
    forward = ((1.0 - rho0) * (1.0 - rho1) * (1.0 if q0 - q1 > 0 else 0.0)
               + (1.0 - rho0) * rho1 * (1.0 if q0 - q1 > q1 else 0.0))
    relay = ((1.0 - rho0) * rho1 * (1.0 if q0 - q1 <= q1 else 0.0)
             + rho0 * rho1 * (1.0 if q0 < q1 else 0.0))
    return direct, forward, relay
