"""Domain types, feasible-schedule calculus, and the per-slot queue update.

A network is one source (node 0), N relays (nodes 1..N), and a destination.
Node 0's links to the relays are always up; every node's link to the
destination is an ON-OFF channel. Node 0 delivers directly when its channel
is ON, otherwise it hands its head-of-line packet to the relay with the
smallest relayed backlog. A relay serves the larger of its two queues (own
packets vs. packets relayed on behalf of node 0).

apply_slot evaluates the larger-queue rule inline, reading each relay queue
once, and calls relay_target, the one definition of the forwarding target.
tests/test_rule_equivalence.py pins both to the loop-based copies in
tests/legacy_rules.py.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from typing import Optional, Sequence

# The idle schedule: nobody holds the data slot.
IDLE = None

Schedule = Optional[int]
ChannelStateVector = tuple  # (N+1) bits, entry i is node i's channel state


def integer(name, value):
    """`value` as an int, by operator.index; anything that is not an
    integer, a float such as 2.5 or 1.0 included, raises a ValueError that
    names the field `name`."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    after the N+1 channel-broadcast mini-slots; a backoff is drawn from one
    uniform double, which takes every one of W + 1 values only while
    W + 1 <= 2**53, so W is at most 2**53 - 1.
    seed is the non-negative base seed that run_seeds counts up from.
    The four counts (n_relays, a_max, contention_window, seed) must be
    integers.
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
        for name in ("n_relays", "a_max", "contention_window", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        n = self.n_relays
        if n < 1:
            raise ValueError(f"need at least one relay, got {n}")
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
        if self.contention_window + 1 > 2**53:
            raise ValueError(f"contention window must be <= 2**53 - 1, so "
                             f"that a double can draw each of its W + 1 "
                             f"backoff values, got {self.contention_window}")
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


class QueueState(tuple):
    """All backlogs at a slot boundary: Q_0, (Q_i), (Q_0i). Unit packets.

    Stored flat as one row [Q_0, Q_1..Q_N, Q_01..Q_0N], the layout of the
    run loop's list of backlogs and of a lane's row in the lane engine, so
    the scheduling rules and apply_slot index a QueueState and that list
    alike: Q_i is row[i] and Q_0i is row[N + i].
    """

    __slots__ = ()

    def __new__(cls, q0, q, q0i):
        return tuple.__new__(cls, (q0, *q, *q0i))

    @classmethod
    def from_row(cls, row):
        """The state of a flat row [Q_0, Q_1..Q_N, Q_01..Q_0N]."""
        return tuple.__new__(cls, row)

    @classmethod
    def empty(cls, n_relays):
        return tuple.__new__(cls, (0,) * (2 * n_relays + 1))

    def __getnewargs__(self):
        return self[0], self.q, self.q0i

    def __repr__(self):
        return f"QueueState(q0={self[0]}, q={self.q}, q0i={self.q0i})"

    @property
    def q0(self):
        return self[0]

    @property
    def q(self):
        return self[1:(len(self) >> 1) + 1]

    @property
    def q0i(self):
        return self[(len(self) >> 1) + 1:]

    def total(self):
        return sum(self)

    def as_dict(self):
        return {"q0": self[0], "q": list(self.q), "q0i": list(self.q0i)}


def validate_channel(params: NetworkParams, channel) -> None:
    if len(channel) != params.n_relays + 1:
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


def relay_target(queues) -> int:
    """The relay i* node 0 forwards to: maximizes Q_0 - Q_0i (min backlog).

    Ties break to the lowest node index. `queues` is a QueueState or a flat
    row in its layout.
    """
    relayed = queues[(len(queues) >> 1) + 1:]
    return relayed.index(min(relayed)) + 1


# apply_slot's served-queue tags by node index, made once per index rather
# than formatted every slot.
_relayed_to = cache("source-relayed-to-{}".format)
_relay_own = cache("relay-{}-own".format)
_relay_forwarding = cache("relay-{}-forwarding".format)


def apply_slot(queues, transmission: Schedule, channel,
               arrivals: Sequence) -> tuple:
    """Advance the queues by one slot: serve `transmission`, then add arrivals.

    `queues` is a QueueState or a flat list in its layout; it is left
    unchanged. Returns (new state of the same kind, served-queue tag). The
    tag names the queue that actually lost a packet: "source-direct",
    "source-relayed-to-{i}", "relay-{i}-own", "relay-{i}-forwarding", or
    "none". A scheduled node with an empty queue holds the slot without
    transferring data (dummy packet); in particular a forward from an empty
    Q_0 must not create a phantom packet at the relay. A relay transmission
    with its channel OFF is rejected: feasible schedulers never emit one.
    """
    row = [*queues]
    tag = "none"
    if transmission is IDLE:
        pass  # an Idle slot serves no queue
    elif transmission == 0:
        q0 = row[0]
        if q0 > 0:
            row[0] = q0 - 1
            if channel[0]:
                tag = "source-direct"
            else:
                target = relay_target(row)
                row[(len(row) >> 1) + target] += 1
                tag = _relayed_to(target)
    else:
        i = transmission
        if not channel[i]:
            raise ValueError(
                f"relay {i} scheduled with its channel OFF (scheduler bug)")
        k = (len(row) >> 1) + i
        own, relayed = row[i], row[k]
        if own >= relayed:
            if own > 0:
                row[i] = own - 1
                tag = _relay_own(i)
        else:
            row[k] = relayed - 1
            tag = _relay_forwarding(i)

    node = 0
    for a in arrivals:
        if a:
            row[node] += a
        node += 1
    if type(queues) is not list:
        row = QueueState.from_row(row)
    return row, tag


@cache
def _json_template(n):
    """The %-template of SlotRecord.to_json with n relays, one %s per
    flattened field: t, channel, decision, transmission, served_queue,
    arrivals, and the queue row q0, q, q0i. Made once per relay count."""
    nodes, relays = ",".join(["%s"] * (n + 1)), ",".join(["%s"] * n)
    return ('{"t":%s,"channel":[' + nodes + '],"decision":%s,'
            '"transmission":%s,"served_queue":"%s","arrivals":[' + nodes
            + '],"queues_after":{"q0":%s,"q":[' + relays + '],"q0i":['
            + relays + ']}}')


@dataclass(slots=True)
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
        d, x = self.decision, self.transmission
        return _json_template(len(self.queues_after) >> 1) % (
            self.t, *self.channel, "null" if d is None else d,
            "null" if x is None else x, self.served_queue, *self.arrivals,
            *self.queues_after)
