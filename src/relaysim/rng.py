"""Seedable, stream-separated randomness for reproducible runs.

Each run owns four independent substreams (channels, arrivals, contention,
scheduler), keyed by (seed, stream id) through numpy's SeedSequence spawn
keys on top of the counter-based Philox generator. Draws are positional, so
a run is a pure function of (seed, params). Per slot of a run with N relays
(N+1 nodes), the streams serve:

- channels: N+1 uniforms, one per node;
- arrivals: (N+1)*a_max uniforms, a_max per node;
- contention: N+1 uniforms for rqcsma and qcsma in contention mode and for
  ub (one backoff per node, drawn whether or not the node contends); none
  for mws or in sampler mode;
- scheduler: a data-dependent count. In sampler mode it serves one decision
  uniform per slot. An activation coin is drawn only when the decision is
  non-idle, compatible with the held schedule, and its activation
  probability p is positive.

The first three counts are fixed per slot, so run_once draws channels,
arrivals and the rqcsma and qcsma contention elections in blocks of slots
(sample_channel_matrix, sample_arrival_matrix, contention.elect_block), and
each block is bit-identical to the same slots drawn one at a time. In
run_once the ub election, whose contenders are the backlogged nodes, and
the scheduler stream depend on the queues and are drawn slot by slot; the
lane engine (lanes.run_lanes) draws the ub uniforms in blocks as well and
reads each lane's scheduler stream from a buffer, in the same order.
"""

from __future__ import annotations

import numpy as np

from .core import NetworkParams

STREAM_IDS = {"channels": 1, "arrivals": 2, "contention": 3, "scheduler": 4}

_CHUNK = 1 << 14


class RngStream:
    """One keyed substream serving uniform floats in [0, 1).

    Draws are positional: the k-th value of a (seed, stream_id) stream is the
    same however it is consumed (single, row, or matrix). `position` counts
    values served so far.
    """

    def __init__(self, seed, stream_id):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        if stream_id not in STREAM_IDS:
            raise ValueError(f"unknown stream id {stream_id!r}")
        self.seed = seed
        self.stream_id = stream_id
        ss = np.random.SeedSequence(entropy=seed,
                                    spawn_key=(STREAM_IDS[stream_id],))
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._buf = []
        self._cursor = 0
        self.position = 0

    def _refill(self, need):
        fresh = self._gen.random(max(need, _CHUNK))
        self._buf = fresh.tolist()
        self._cursor = 0

    def uniform(self):
        if self._cursor >= len(self._buf):
            self._refill(1)
        v = self._buf[self._cursor]
        self._cursor += 1
        self.position += 1
        return v

    def uniform_row(self, k):
        """Next k values as a plain list."""
        end = self._cursor + k
        if end > len(self._buf):
            remainder = self._buf[self._cursor:]
            self._refill(k - len(remainder))
            self._buf = remainder + self._buf
            end = k
        row = self._buf[self._cursor:end]
        self._cursor = end
        self.position += k
        return row

    def uniform_matrix(self, n, k):
        """Next n*k values as an (n, k) array; equals n uniform_row(k) calls.

        The buffered values are served first and the rest come straight
        from the generator, which continues where the buffer's last draw
        ended; no list is built.
        """
        need = n * k
        head = self._buf[self._cursor:self._cursor + need]
        self._cursor += len(head)
        self.position += need
        flat = self._gen.random(need - len(head))
        if head:
            flat = np.concatenate((head, flat))
        return flat.reshape(n, k)


class RunStreams:
    """The four substreams one simulation run owns."""

    def __init__(self, seed):
        self.channels = RngStream(seed, "channels")
        self.arrivals = RngStream(seed, "arrivals")
        self.contention = RngStream(seed, "contention")
        self.scheduler = RngStream(seed, "scheduler")


def sample_channels(params: NetworkParams, rng: RngStream) -> tuple:
    """One channel realization: bit i is 1 with probability rho[i], iid."""
    row = rng.uniform_row(params.n_nodes)
    rho = params.rho
    return tuple(1 if row[i] < rho[i] else 0 for i in range(params.n_nodes))


def sample_channel_matrix(params: NetworkParams, rng: RngStream, n):
    """n slots of channel states at once; row t equals the t-th single draw."""
    u = rng.uniform_matrix(n, params.n_nodes)
    return (u < np.asarray(params.rho)).astype(np.uint8)


def sample_arrivals(params: NetworkParams, rng: RngStream) -> tuple:
    """Per-node arrival counts: binomial(a_max, lam/a_max), mean lam.

    a_max = 1 reduces to Bernoulli(lam). Bounded support and finite second
    moment by construction.
    """
    m = params.a_max
    row = rng.uniform_row(params.n_nodes * m)
    probs = [a / m for a in params.lam]
    if m == 1:
        return tuple(1 if row[i] < probs[i] else 0
                     for i in range(params.n_nodes))
    return tuple(sum(1 for j in range(m) if row[i * m + j] < probs[i])
                 for i in range(params.n_nodes))


def sample_arrival_matrix(params: NetworkParams, rng: RngStream, n):
    """n slots of arrivals at once; row t equals the t-th single draw."""
    m = params.a_max
    u = rng.uniform_matrix(n, params.n_nodes * m)
    probs = np.repeat([a / m for a in params.lam], m)
    hits = (u < probs).astype(np.int64)
    return hits.reshape(n, params.n_nodes, m).sum(axis=2)
