"""The event-loop simulator that ``branlab.des`` replaced, kept as the tests' reference.

One loop over a future-event list drives every chain: Poisson request
arrivals, one pool clock per chain at rate ``R_m + R_r`` and exponential
service on each link.  It simulates the same model as ``branlab.des`` from
an independent stream (``random.Random``) and an independent method, so
the agreement tests compare the two engines' means under a family-wise
gate.  Statistics, results and records are ``branlab.des``'s own.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import deque

import numpy as np

from branlab.config import ChainConfig, HierarchicalConfig, require_count, validate
from branlab.des import (
    CONFIRMATION_MODES,
    MAX_PENDING,
    _WARMUP_FRACTION,
    RequestRecord,
    SimResult,
    SimulationUnstableError,
    _stats,
)

_ARRIVAL, _POOL, _ENTER, _DEPART = range(4)


class _Chain:
    """Mutable per-chain simulation state.

    ``free`` is a heap of link departure times; times already passed belong
    to idle links.  ``unconfirmed`` queues mined batches not yet released,
    oldest first, unless the chain is ``additive`` and draws their waits.
    ``downstream`` is the chain that each request starting service here is
    handed to, or ``None`` on the chain where requests are sampled.
    """

    __slots__ = (
        "label", "arrival_rate", "mining_rate", "pool_rate", "reject_share",
        "service_rate", "servers", "capacity", "reject_batch",
        "extra_confs", "additive", "pending", "unconfirmed",
        "ready_queue", "free", "generated", "rejected", "downstream",
    )

    def __init__(self, label: str, config: ChainConfig, mode: str, downstream: _Chain | None = None):
        self.label = label
        self.arrival_rate = config.arrival_rate
        self.mining_rate = config.mining_rate
        self.pool_rate = config.mining_rate + config.rejection_rate
        self.reject_share = config.rejection_rate / self.pool_rate
        self.service_rate = config.service_rate
        self.servers = config.servers
        self.capacity = config.block_capacity
        self.reject_batch = config.rejection_batch
        self.extra_confs = config.confirmations - 1
        self.additive = mode == "additive" and config.confirmations > 1
        self.pending: deque[list] = deque()
        self.unconfirmed: deque[list[list]] = deque()
        self.ready_queue: deque[list] = deque()
        self.free: list[float] = []
        self.generated = 0
        self.rejected = 0
        self.downstream = downstream


def _enqueue(
    chain: _Chain, t: float, origin: float | None, max_pending: int, requests: list | None
) -> bool:
    """Submit a request to ``chain``'s pending pool at ``t``; True if it must arm the pool clock."""
    req = [chain.label, t, None, None, None, "in-flight", origin]
    if requests is not None:
        requests.append(req)
    chain.generated += 1
    pending = chain.pending
    pending.append(req)
    if len(pending) > max_pending:
        raise SimulationUnstableError(
            f"chain {chain.label!r}: pending pool exceeded {max_pending} requests "
            f"at t={t:.3f}; the configuration cannot drain its arrivals"
        )
    return len(pending) == 1


def _run(
    chains: tuple[_Chain, ...], seed: int, target: int, requests: list | None
) -> tuple[array, array, array, int]:
    """Run until ``target`` end-user requests, arriving at ``chains[0]``, start their last service.

    Each exponential draw is ``random.expovariate``'s own ``-log(1 - U) /
    rate``, so the variates are that method's.  Returns the end-to-end
    latencies, the two legs of handed-over requests and how many of them
    were rejected downstream.  Every request is appended to ``requests``
    unless that is ``None``.

    No closure: a name a nested function reads is a cell of this frame, read
    through the cell on every event.  So requests join a pool through
    :func:`_enqueue` and the caller arms the pool clock, keeping ``seq`` a fast
    local.  Service starts at one site, to which a departure passes its head.
    """
    entry = chains[0]
    max_pending = MAX_PENDING
    uniform = random.Random(seed).random
    log = math.log
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list = []
    seq = 0  # push counter: orders events with equal times, never compares chains
    e2e, first_leg, last_leg = array("d"), array("d"), array("d")  # 8 bytes a sample
    served = rejected_downstream = 0

    for chain in chains:
        seq += 1
        heappush(heap, (-log(1.0 - uniform()) / chain.arrival_rate, seq, _ARRIVAL, chain, None))
    now = 0.0
    while served < target:
        t, _, kind, chain, req = heappop(heap)
        assert t >= now, "event processed out of timestamp order"
        now = t
        if kind == _ARRIVAL:
            if _enqueue(chain, t, None, max_pending, requests):
                seq += 1
                heappush(heap, (t - log(1.0 - uniform()) / chain.pool_rate, seq, _POOL, chain, None))
            seq += 1
            heappush(heap, (t - log(1.0 - uniform()) / chain.arrival_rate, seq, _ARRIVAL, chain, None))
            continue
        queue = chain.ready_queue
        free = chain.free
        if kind == _DEPART:
            # Scheduled only while a request waits, so no release came in between.
            done = heappop(free)
            assert done == t
            released = (queue.popleft(),)
        elif kind == _ENTER:
            released = (req,)
        else:  # _POOL; competing exponentials: a rejection with probability R_r / (R_m + R_r)
            rejection = chain.reject_share > 0.0 and uniform() < chain.reject_share
            size = chain.reject_batch if rejection else chain.capacity
            # The oldest min(pending, size); nearly every block of a lightly loaded chain holds one.
            pending = chain.pending
            batch = [pending.popleft()]
            while pending and len(batch) < size:
                batch.append(pending.popleft())
            released = ()
            if rejection:
                chain.rejected += len(batch)
                for req in batch:
                    req[5] = "rejected"
                    if req[6] is not None:
                        rejected_downstream += 1
            elif chain.additive:
                for req in batch:
                    req[2] = t
                    wait = 0.0  # not sum(), which compensates its rounding from Python 3.12
                    for _ in range(chain.extra_confs):
                        wait += -log(1.0 - uniform()) / chain.mining_rate
                    req[3] = t + wait
                    seq += 1
                    heappush(heap, (req[3], seq, _ENTER, chain, req))
            else:
                for req in batch:
                    req[2] = t
                # This block confirms the one mined N - 1 blocks before it, itself at N = 1.
                unconfirmed = chain.unconfirmed
                unconfirmed.append(batch)
                released = unconfirmed.popleft() if len(unconfirmed) > chain.extra_confs else ()
                for req in released:
                    req[3] = t
        for req in released:
            assert req[1] <= req[2] <= req[3] <= t
            if kind != _DEPART:  # a departure frees a link for the head of the queue
                # A request queues behind any that waits; once the run has met its
                # target, the rest of a mined block stays in flight.
                if queue or served >= target:
                    queue.append(req)
                    continue
                while free and free[0] <= t:
                    heappop(free)
                if len(free) >= chain.servers:
                    seq += 1
                    heappush(heap, (free[0], seq, _DEPART, chain, None))
                    queue.append(req)
                    continue
            req[4] = t
            req[5] = "served"
            heappush(free, t - log(1.0 - uniform()) / chain.service_rate)
            down = chain.downstream
            if down is not None:
                if _enqueue(down, t, req[1], max_pending, requests):
                    seq += 1
                    heappush(heap, (t - log(1.0 - uniform()) / down.pool_rate, seq, _POOL, down, None))
            elif req[6] is not None:
                served += 1
                e2e.append(t - req[6])
                first_leg.append(req[1] - req[6])
                last_leg.append(t - req[1])
            elif chain is entry:
                served += 1
                e2e.append(t - req[1])
        if kind == _DEPART and queue:
            seq += 1
            heappush(heap, (free[0], seq, _DEPART, chain, None))
        elif kind == _POOL and chain.pending:
            seq += 1
            heappush(heap, (t - log(1.0 - uniform()) / chain.pool_rate, seq, _POOL, chain, None))
    return e2e, first_leg, last_leg, rejected_downstream


def _simulate(
    config: ChainConfig | HierarchicalConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str,
    collect_records: bool,
) -> SimResult:
    require_count("target_served", target_served)
    if confirmation_mode not in CONFIRMATION_MODES:
        raise ValueError(
            f"confirmation_mode must be one of {CONFIRMATION_MODES}, got {confirmation_mode!r}"
        )
    validate(config)
    hierarchical = isinstance(config, HierarchicalConfig)
    if hierarchical:
        primary = _Chain("primary", config.primary, confirmation_mode)
        chains = (_Chain("secondary", config.secondary, confirmation_mode, primary), primary)
    else:
        chains = (_Chain("chain", config, confirmation_mode),)
    entry = chains[0]
    requests = [] if collect_records else None
    e2e, first_leg, last_leg, rejected_downstream = _run(chains, seed, target_served, requests)

    warmup = int(target_served * _WARMUP_FRACTION)
    kept = np.asarray(e2e[warmup:], dtype=np.float64)
    if not np.isfinite(kept).all():  # a difference of two finite times, unless the clock overflowed
        raise SimulationUnstableError(f"the simulation clock passed the float64 range before "
                                      f"{target_served} requests started service")
    stats = _stats(kept)
    served = len(e2e)
    rejected = entry.rejected + rejected_downstream
    breakdown = None if not hierarchical else {
        "e2e": stats, "secondary": _stats(first_leg[warmup:]), "primary": _stats(last_leg[warmup:])
    }
    return SimResult(
        latency_samples=kept,
        mean=stats.mean,
        variance=stats.variance,
        confidence_interval_95=stats.confidence_interval_95,
        served_count=served,
        rejected_count=rejected,
        generated_count=entry.generated,
        in_flight_count=entry.generated - served - rejected,
        warmup_discarded=warmup,
        breakdown=breakdown,
        records=None if requests is None else [RequestRecord(i, *req) for i, req in enumerate(requests)],
    )


def simulate_chain(config: ChainConfig, target_served: int, seed: int,
                   confirmation_mode: str = "additive", *, collect_records: bool = False) -> SimResult:
    return _simulate(config, target_served, seed, confirmation_mode, collect_records)


def simulate_hierarchical(hconfig: HierarchicalConfig, target_served: int, seed: int,
                          confirmation_mode: str = "additive", *,
                          collect_records: bool = False) -> SimResult:
    return _simulate(hconfig, target_served, seed, confirmation_mode, collect_records)
