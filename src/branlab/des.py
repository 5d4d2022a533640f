"""Event-driven simulation of one chain and of the two-chain hierarchy.

One loop over a future-event list drives every chain: Poisson request
arrivals, one pool clock per chain and exponential service on each link.
Mining and rejection are competing exponential transitions out of the
same pending pool, so the pool has a single clock at rate ``R_m + R_r``:
it is armed when the pool goes from empty to one request and re-armed by
its own ring while requests remain.  Each ring is a rejection with
probability ``R_r / (R_m + R_r)``, permanently removing the oldest
``min(pending, r)`` requests, and otherwise a mined block of the oldest
``min(pending, k)``.  Each chain keeps its busy links' departure times in
a heap of its own.  A released request takes a link whose time has
passed, or else queues; only then does the earliest departure become an
event, which serves the head of the queue.  A departure with nobody
waiting draws nothing, so it never enters the event list.  A chain holds
at most one pool event and one departure event, so no event is stale.

Confirmations are handled in one of two modes.  ``additive`` adds ``N - 1``
independent exponential block intervals to each request's inclusion time
before it may join the service queue.  ``event-driven`` instead queues the
chain's last ``N - 1`` mined blocks and releases a block's requests when
the ``N - 1``-th block after it is mined, which can stall when the pending
pool goes quiet; the mode exists to quantify that approximation gap.

The recorded latency of a request is ``service_start - submitted``: the
request's own service time is excluded.

In the hierarchical composition the secondary chain hands each end-user
request to its ``downstream`` chain, the primary, the moment its secondary
service starts; a single chain is the same run with nothing downstream.
Latency is sampled when a request's last service starts, end to end from
the submission that a handed-over request carries as
``origin_submitted_at``.  The primary's own background Poisson traffic is
served but not sampled.

Requests are plain lists; ``RequestRecord`` objects, numbered in creation
order, are built from them only when records are asked for.  A run is
strictly single-threaded and bitwise reproducible for a fixed seed;
replications with distinct seeds can run concurrently and be merged by
the caller.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from dataclasses import dataclass, fields
from collections import deque

import numpy as np
from scipy.special import stdtrit

from .config import ChainConfig, HierarchicalConfig, validate

_ARRIVAL, _POOL, _ENTER, _DEPART = range(4)

CONFIRMATION_MODES = ("additive", "event-driven")
DEFAULT_MAX_PENDING = 10**6
_WARMUP_FRACTION = 0.1  # share of the target discarded before statistics
_CI_BATCHES = 32


class SimulationUnstableError(RuntimeError):
    """Pending pool exceeded the runaway threshold: the mining stage cannot drain."""


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle timestamps of one request on one chain."""

    request_id: int
    chain: str
    submitted_at: float
    mined_at: float | None = None
    confirmed_at: float | None = None
    service_start_at: float | None = None
    disposition: str = "in-flight"
    origin_submitted_at: float | None = None


@dataclass(frozen=True)
class LatencyStats:
    mean: float
    variance: float
    confidence_interval_95: tuple[float, float]


@dataclass
class SimResult:
    """Latency samples and counters from one simulation run.

    ``latency_samples`` holds the post-warm-up samples the statistics are
    computed from.  ``breakdown`` is present for hierarchical runs and maps
    ``secondary``, ``primary`` and ``e2e`` to per-component statistics over
    the same retained requests.  Batch sizes, per-chain rejections and the
    primary's background traffic are read from ``records``.
    """

    latency_samples: np.ndarray
    mean: float
    variance: float
    confidence_interval_95: tuple[float, float]
    served_count: int
    rejected_count: int
    generated_count: int
    in_flight_count: int
    warmup_discarded: int
    breakdown: dict[str, LatencyStats] | None = None
    records: list[RequestRecord] | None = None


def _stats(samples: list[float] | np.ndarray) -> LatencyStats:
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1)) if n > 1 else 0.0
    # Batch means absorb the autocorrelation of queueing output; fall back
    # to the iid interval when there are too few samples to batch.
    if n >= 2 * _CI_BATCHES:
        batch = n // _CI_BATCHES
        means = arr[: batch * _CI_BATCHES].reshape(_CI_BATCHES, batch).mean(axis=1)
        center = float(means.mean())
        spread = float(means.std(ddof=1)) / math.sqrt(_CI_BATCHES)
        tcrit = float(stdtrit(_CI_BATCHES - 1, 0.975))
        half = tcrit * spread
        return LatencyStats(mean, variance, (center - half, center + half))
    spread = math.sqrt(variance / n) if n > 1 else 0.0
    tcrit = float(stdtrit(max(n - 1, 1), 0.975))
    half = tcrit * spread
    return LatencyStats(mean, variance, (mean - half, mean + half))


class _Chain:
    """Mutable per-chain simulation state.

    ``free`` is a heap of link departure times; times already passed belong
    to idle links.  ``unconfirmed`` queues the batches of the last ``N - 1``
    mined blocks, oldest first, in ``event-driven`` mode.  ``downstream`` is
    the chain that each request starting service here is handed to, or
    ``None`` on the chain where requests are sampled.
    """

    __slots__ = (
        "label", "arrival_rate", "mining_rate", "pool_rate", "reject_share",
        "service_rate", "servers", "capacity", "reject_batch",
        "extra_confs", "event_driven", "pending", "unconfirmed",
        "ready_queue", "free", "generated", "rejected", "downstream",
    )

    def __init__(self, label: str, config: ChainConfig, mode: str):
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
        self.event_driven = mode == "event-driven"
        self.pending: deque[list] = deque()
        self.unconfirmed: deque[list[list]] = deque()
        self.ready_queue: deque[list] = deque()
        self.free: list[float] = []
        self.generated = 0
        self.rejected = 0
        self.downstream: _Chain | None = None


def _run(
    chains: tuple[_Chain, ...], seed: int, max_pending: int, target: int, requests: list | None
) -> tuple[list[float], list[float], list[float], int]:
    """Run until ``target`` end-user requests, arriving at ``chains[0]``, start their last service.

    A request is a list with ``RequestRecord``'s fields after the id, and is
    appended to ``requests`` unless that is ``None``.  Each exponential draw
    is ``random.expovariate``'s own ``-log(1 - U) / rate``, so the variates
    are that method's.  Returns the end-to-end latencies, the two legs of
    handed-over requests and how many of them were rejected downstream.
    """
    entry = chains[0]
    uniform = random.Random(seed).random
    log = math.log
    heappush, heappop = heapq.heappush, heapq.heappop
    heap: list = []
    seq = 0  # push counter: orders events with equal times, never compares chains
    e2e, first_leg, last_leg = [], [], []
    rejected_downstream = 0

    def submit(chain: _Chain, t: float, origin: float | None) -> None:
        nonlocal seq
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
        if len(pending) == 1:
            seq += 1
            heappush(heap, (t - log(1.0 - uniform()) / chain.pool_rate, seq, _POOL, chain, None))

    def begin(chain: _Chain, req: list, t: float) -> None:
        req[4] = t
        req[5] = "served"
        heappush(chain.free, t - log(1.0 - uniform()) / chain.service_rate)
        if chain.downstream is not None:
            submit(chain.downstream, t, req[1])
        elif req[6] is not None:
            e2e.append(t - req[6])
            first_leg.append(req[1] - req[6])
            last_leg.append(t - req[1])
        elif chain is entry:
            e2e.append(t - req[1])

    for chain in chains:
        seq += 1
        heappush(heap, (-log(1.0 - uniform()) / chain.arrival_rate, seq, _ARRIVAL, chain, None))
    now = 0.0
    while len(e2e) < target:
        t, _, kind, chain, req = heappop(heap)
        assert t >= now, "event processed out of timestamp order"
        now = t
        if kind == _ARRIVAL:
            submit(chain, t, None)
            seq += 1
            heappush(heap, (t - log(1.0 - uniform()) / chain.arrival_rate, seq, _ARRIVAL, chain, None))
            continue
        if kind == _DEPART:
            # Scheduled only while a request waits, so no release came in between.
            done = heappop(chain.free)
            assert done == t
            queue = chain.ready_queue
            begin(chain, queue.popleft(), t)
            if queue:
                seq += 1
                heappush(heap, (chain.free[0], seq, _DEPART, chain, None))
            continue
        if kind == _ENTER:
            released = (req,)
        else:  # _POOL; competing exponentials: a rejection with probability R_r / (R_m + R_r)
            pending = chain.pending
            if chain.reject_share > 0.0 and uniform() < chain.reject_share:
                size = min(len(pending), chain.reject_batch)
                chain.rejected += size
                for _ in range(size):
                    req = pending.popleft()
                    req[5] = "rejected"
                    if req[6] is not None:
                        rejected_downstream += 1
                released = ()
            else:
                size = min(len(pending), chain.capacity)
                batch = [pending.popleft() for _ in range(size)]
                if chain.event_driven:
                    for req in batch:
                        req[2] = t
                    # This block confirms the one mined N - 1 blocks before it.
                    unconfirmed = chain.unconfirmed
                    unconfirmed.append(batch)
                    released = unconfirmed.popleft() if len(unconfirmed) > chain.extra_confs else ()
                    for req in released:
                        req[3] = t
                elif chain.extra_confs:
                    rate = chain.mining_rate
                    for req in batch:
                        req[2] = t
                        req[3] = t + sum(-log(1.0 - uniform()) / rate for _ in range(chain.extra_confs))
                        seq += 1
                        heappush(heap, (req[3], seq, _ENTER, chain, req))
                    released = ()
                else:
                    for req in batch:
                        req[2] = req[3] = t
                    released = batch
        queue = chain.ready_queue
        free = chain.free
        for req in released:
            assert req[1] <= req[2] <= req[3] <= t
            # A request queues behind any that waits.  One mined block can release
            # several requests in one event; once the run has met its target the
            # rest stay in flight.
            if not queue and len(e2e) < target:
                while free and free[0] <= t:
                    heappop(free)
                if len(free) < chain.servers:
                    begin(chain, req, t)
                    continue
                seq += 1
                heappush(heap, (free[0], seq, _DEPART, chain, None))
            queue.append(req)
        if kind == _POOL and chain.pending:
            seq += 1
            heappush(heap, (t - log(1.0 - uniform()) / chain.pool_rate, seq, _POOL, chain, None))
    return e2e, first_leg, last_leg, rejected_downstream


def _simulate(
    config: ChainConfig | HierarchicalConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str,
    max_pending: int,
    collect_records: bool,
) -> SimResult:
    for name, count in (("target_served", target_served), ("max_pending", max_pending)):
        # bool is an int subclass, but True is not a count.
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    if confirmation_mode not in CONFIRMATION_MODES:
        raise ValueError(
            f"confirmation_mode must be one of {CONFIRMATION_MODES}, got {confirmation_mode!r}"
        )
    validate(config)
    hierarchical = isinstance(config, HierarchicalConfig)
    if hierarchical:
        primary = _Chain("primary", config.primary, confirmation_mode)
        secondary = _Chain("secondary", config.secondary, confirmation_mode)
        secondary.downstream = primary
        chains = (secondary, primary)
    else:
        chains = (_Chain("chain", config, confirmation_mode),)
    entry = chains[0]
    requests = [] if collect_records else None
    e2e, first_leg, last_leg, rejected_downstream = _run(chains, seed, max_pending, target_served, requests)

    warmup = int(target_served * _WARMUP_FRACTION)
    kept = np.asarray(e2e[warmup:], dtype=np.float64)
    stats = _stats(kept)
    served = len(e2e)
    rejected = entry.rejected + rejected_downstream
    result = SimResult(
        latency_samples=kept,
        mean=stats.mean,
        variance=stats.variance,
        confidence_interval_95=stats.confidence_interval_95,
        served_count=served,
        rejected_count=rejected,
        generated_count=entry.generated,
        in_flight_count=entry.generated - served - rejected,
        warmup_discarded=warmup,
        records=None if requests is None else [RequestRecord(i, *req) for i, req in enumerate(requests)],
    )
    if hierarchical:
        result.breakdown = {
            "e2e": stats,
            "secondary": _stats(first_leg[warmup:]),
            "primary": _stats(last_leg[warmup:]),
        }
    return result


def simulate_chain(
    config: ChainConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str = "additive",
    *,
    max_pending: int = DEFAULT_MAX_PENDING,
    collect_records: bool = False,
) -> SimResult:
    """Simulate one chain until ``target_served`` requests start service.

    ``config`` is validated first.  The first tenth of the served samples
    is discarded as warm-up before statistics are computed.  Identical
    arguments produce a bitwise identical result.
    """
    return _simulate(config, target_served, seed, confirmation_mode, max_pending, collect_records)


def simulate_hierarchical(
    hconfig: HierarchicalConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str = "additive",
    *,
    max_pending: int = DEFAULT_MAX_PENDING,
    collect_records: bool = False,
) -> SimResult:
    """Simulate the secondary-into-primary composition.

    ``hconfig`` is validated first.  Each end-user request arrives at the
    secondary chain and is handed to the primary when its secondary service
    starts; such primary requests carry the end-user submission time in
    ``RequestRecord.origin_submitted_at``, which is ``None`` on every other
    record.  Runs until ``target_served`` end-user requests have started
    primary service, and samples latency at that moment.  The primary
    carries its own background traffic at its configured arrival rate; it
    is served but not sampled.  The first tenth of the end-user requests is
    discarded as warm-up.  Each retained request contributes an end-to-end
    sample and its secondary and primary components; the three series are
    reported in ``breakdown`` over the same retained set.
    """
    return _simulate(hconfig, target_served, seed, confirmation_mode, max_pending, collect_records)


def write_trace_csv(records: list[RequestRecord], path) -> None:
    """Dump per-request lifecycle records, one row per request per chain.

    One column per :class:`RequestRecord` field, in field order: an unset
    timestamp is an empty cell and a float is written with ``repr``.
    """
    names = [f.name for f in fields(RequestRecord)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for rec in records:
            values = (getattr(rec, name) for name in names)
            writer.writerow(
                "" if v is None else repr(v) if isinstance(v, float) else v for v in values
            )
