"""Domain types, feasible-schedule calculus, and the per-slot queue update.

A network is one source (node 0), N relays (nodes 1..N), and a destination.
Node 0's links to the relays are always up; every node's link to the
destination is an ON-OFF channel. Node 0 delivers directly when its channel
is ON, otherwise it hands its head-of-line packet to the relay with the
smallest relayed backlog. A relay serves the larger of its two queues (own
packets vs. packets relayed on behalf of node 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple, Optional, Sequence

# The idle schedule: nobody holds the data slot.
IDLE = None

Schedule = Optional[int]
ChannelStateVector = tuple  # (N+1) bits, entry i is node i's channel state


@dataclass(frozen=True)
class NetworkParams:
    """Static description of the network and algorithm constants.

    rho[i] is the probability node i's channel to the destination is ON in a
    slot (iid across slots and nodes). lam[i] is node i's mean arrival rate in
    packets/slot, bounded by a_max per slot. beta, the constant of the
    queue-weight function log(1 + beta*x), is validated and recorded in
    output headers but affects no scheduler: mws is an argmax, which no
    monotone weight function changes. activation_gain scales the action
    backlog fed to the logistic activation probability of the CSMA
    schedulers. contention_window is the number W of extra backoff mini-slots
    after the N+1 channel-broadcast mini-slots.
    seed is the non-negative base seed that run_seeds counts up from.
    """

    n_relays: int
    rho: tuple
    lam: tuple
    a_max: int = 1
    beta: float = 0.1
    contention_window: int = 32
    seed: int = 0
    activation_gain: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        object.__setattr__(self, "lam", tuple(float(a) for a in self.lam))
        n = self.n_relays
        if n < 1:
            raise ValueError("need at least one relay")
        if len(self.rho) != n + 1 or len(self.lam) != n + 1:
            raise ValueError(f"rho and lam must have length N+1 = {n + 1}, "
                             f"got {len(self.rho)} and {len(self.lam)}")
        if any(not 0.0 <= r <= 1.0 for r in self.rho):
            raise ValueError("channel ON probabilities must lie in [0, 1]")
        if any(not a >= 0.0 for a in self.lam):  # NaN included
            raise ValueError("arrival rates must be non-negative numbers")
        if self.a_max < 1:
            raise ValueError("a_max must be >= 1")
        if any(a > self.a_max for a in self.lam):
            raise ValueError("arrival rate above a_max is unsatisfiable")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 < self.activation_gain < math.inf:
            raise ValueError("activation_gain must be positive and finite")
        if self.contention_window < 1:
            raise ValueError("contention window must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_nodes(self):
        return self.n_relays + 1

    @cached_property
    def all_on(self) -> tuple:
        """Every channel ON: the channel-blind baselines are the channel-aware
        rules evaluated under it, so every node is feasible."""
        return (1,) * self.n_nodes


class QueueState(NamedTuple):
    """All backlogs at a slot boundary: Q_0, (Q_i), (Q_0i). Unit packets."""

    q0: int
    q: tuple
    q0i: tuple

    @classmethod
    def empty(cls, n_relays):
        return cls(0, (0,) * n_relays, (0,) * n_relays)

    def total(self):
        return self.q0 + sum(self.q) + sum(self.q0i)

    def as_dict(self):
        return {"q0": self.q0, "q": list(self.q), "q0i": list(self.q0i)}


def validate_channel(params: NetworkParams, channel) -> None:
    if len(channel) != params.n_nodes:
        raise ValueError(f"channel vector must have length {params.n_nodes}")


def transmitters(channel) -> tuple:
    """The feasibility rule: node 0 plus the ON relays, in index order.

    Node 0 is always feasible: with its channel OFF it still transmits to a
    relay over an always-ON link. These are also the nodes that contend in a
    backoff election and the non-idle states of a per-realization chain.
    """
    return (0, *compress(range(1, len(channel)), channel[1:]))


def feasible_schedules(params: NetworkParams, channel) -> set:
    """All schedules usable in this slot: Idle plus transmitters(channel)."""
    validate_channel(params, channel)
    return {IDLE, *transmitters(channel)}


def relay_target(queues: QueueState) -> int:
    """The relay i* node 0 forwards to: maximizes Q_0 - Q_0i (min backlog).

    Ties break to the lowest node index.
    """
    q0i = queues.q0i
    best = 0
    for j in range(1, len(q0i)):
        if q0i[j] < q0i[best]:
            best = j
    return best + 1


def apply_slot(queues: QueueState, transmission: Schedule, channel,
               arrivals: Sequence) -> tuple:
    """Advance the queues by one slot: serve `transmission`, then add arrivals.

    Returns (new QueueState, served-queue tag). The tag names the queue that
    actually lost a packet: "source-direct", "source-relayed-to-{i}",
    "relay-{i}-own", "relay-{i}-forwarding", or "none". A scheduled node with
    an empty queue holds the slot without transferring data (dummy packet);
    in particular a forward from an empty Q_0 must not create a phantom
    packet at the relay. A relay transmission with its channel OFF is
    rejected: feasible schedulers never emit one.
    """
    q0, q, q0i = queues

    tag = "none"
    if transmission == 0:
        if q0 > 0:
            if channel[0]:
                q0 -= 1
                tag = "source-direct"
            else:
                target = relay_target(queues)
                q0 -= 1
                j = target - 1
                q0i = q0i[:j] + (q0i[j] + 1,) + q0i[j + 1:]
                tag = f"source-relayed-to-{target}"
    elif transmission is not IDLE:
        i = transmission
        if not channel[i]:
            raise ValueError(
                f"relay {i} scheduled with its channel OFF (scheduler bug)")
        j = i - 1
        if q[j] >= q0i[j]:
            if q[j] > 0:
                q = q[:j] + (q[j] - 1,) + q[j + 1:]
                tag = f"relay-{i}-own"
        else:
            q0i = q0i[:j] + (q0i[j] - 1,) + q0i[j + 1:]
            tag = f"relay-{i}-forwarding"

    q0 += arrivals[0]
    if any(arrivals[1:]):
        q = tuple(qj + aj for qj, aj in zip(q, arrivals[1:]))
    return QueueState(q0, q, q0i), tag


@dataclass
class SlotRecord:
    """One trace row: everything that happened in slot t."""

    t: int
    channel: tuple
    decision: Schedule
    transmission: Schedule
    served_queue: str
    arrivals: tuple
    queues_after: QueueState

    def as_dict(self):
        return {
            "t": self.t,
            "channel": list(self.channel),
            "decision": self.decision,
            "transmission": self.transmission,
            "served_queue": self.served_queue,
            "arrivals": list(self.arrivals),
            "queues_after": self.queues_after.as_dict(),
        }

    def to_json(self):
        """as_dict() as compact JSON (json.dumps with separators (",", ":")),
        formatted directly: every field is an int, None or a plain tag."""
        q = self.queues_after
        return (f'{{"t":{self.t},"channel":[{_ints(self.channel)}],'
                f'"decision":{_json_int(self.decision)},'
                f'"transmission":{_json_int(self.transmission)},'
                f'"served_queue":"{self.served_queue}",'
                f'"arrivals":[{_ints(self.arrivals)}],'
                f'"queues_after":{{"q0":{q.q0},"q":[{_ints(q.q)}],'
                f'"q0i":[{_ints(q.q0i)}]}}}}')


def _ints(values):
    return ",".join(map(str, values))


def _json_int(value):
    return "null" if value is None else str(value)
