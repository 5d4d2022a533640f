"""Event-driven simulation of one chain and of the two-chain hierarchy.

A future-event-list loop drives three event families per chain: Poisson
request arrivals, one pool clock, and per-link exponential service.
Mining and rejection are competing exponential transitions out of the
same pending pool, so the pool has a single clock at rate ``R_m + R_r``:
it is armed when the pool goes from empty to one request and re-armed by
its own ring while requests remain.  Each ring is a rejection with
probability ``R_r / (R_m + R_r)``, permanently removing the oldest
``min(pending, r)`` requests, and otherwise a mined block of the oldest
``min(pending, k)``.  A chain holds at most one pool event, so no event
is ever stale.

Confirmations are handled in one of two modes.  ``additive`` adds ``N - 1``
independent exponential block intervals to each request's inclusion time
before it may join the service queue.  ``event-driven`` instead counts
``N - 1`` actual subsequent block-mined events of the same chain, which
can stall when the pending pool goes quiet; the mode exists to quantify
that approximation gap.

The recorded latency of a request is ``service_start - submitted``: the
request's own service time is excluded.

In the hierarchical composition the secondary chain hands each end-user
request to its ``downstream`` chain, the primary, the moment its secondary
service starts; a single chain is the same run with nothing downstream.
Latency is sampled when a request's last service starts, end to end from
the submission that a handed-over request carries as
``origin_submitted_at``.  The primary's own background Poisson traffic is
served but not sampled.

A run is strictly single-threaded and bitwise reproducible for a fixed
seed; replications with distinct seeds can run concurrently and be merged
by the caller.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from dataclasses import dataclass, field
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
    count: int


@dataclass
class SimResult:
    """Latency samples and counters from one simulation run.

    ``latency_samples`` holds the post-warm-up samples the statistics are
    computed from.  ``breakdown`` is present for hierarchical runs and maps
    ``secondary``, ``primary`` and ``e2e`` to per-component statistics over
    the same retained requests.
    """

    latency_samples: np.ndarray
    mean: float
    variance: float
    confidence_interval_95: tuple[float, float]
    served_count: int
    rejected_count: int
    generated_count: int
    in_flight_count: int
    max_mined_batch: int
    max_rejected_batch: int
    warmup_discarded: int
    breakdown: dict[str, LatencyStats] | None = None
    aux_counts: dict[str, int] = field(default_factory=dict)
    records: list[RequestRecord] | None = None


def _stats(samples: list[float] | np.ndarray) -> LatencyStats:
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.size
    if n == 0:
        nan = float("nan")
        return LatencyStats(nan, nan, (nan, nan), 0)
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
        return LatencyStats(mean, variance, (center - half, center + half), n)
    spread = math.sqrt(variance / n) if n > 1 else 0.0
    tcrit = float(stdtrit(max(n - 1, 1), 0.975))
    half = tcrit * spread
    return LatencyStats(mean, variance, (mean - half, mean + half), n)


class _Chain:
    """Mutable per-chain simulation state.

    ``downstream`` is the chain that each request starting service here is
    handed to, or ``None`` on the chain where requests are sampled.
    """

    __slots__ = (
        "label", "arrival_rate", "mining_rate", "pool_rate", "reject_share",
        "service_rate", "servers", "capacity", "reject_batch",
        "extra_confs", "event_driven", "pending", "blocks_mined", "conf_groups",
        "ready_queue", "busy", "generated", "served", "rejected",
        "max_mined_batch", "max_rejected_batch", "downstream",
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
        self.pending: deque[RequestRecord] = deque()
        self.blocks_mined = 0
        self.conf_groups: deque[tuple[int, list[RequestRecord]]] = deque()
        self.ready_queue: deque[RequestRecord] = deque()
        self.busy = 0
        self.generated = 0
        self.served = 0
        self.rejected = 0
        self.max_mined_batch = 0
        self.max_rejected_batch = 0
        self.downstream: _Chain | None = None


class _Engine:
    """Shared clock, event heap, RNG and end-user latency samples for one run.

    End-user requests arrive at ``entry``; the run stops once ``target`` of
    them have started their last service.  ``first_leg`` and ``last_leg``
    split the latency of handed-over requests at the hand-over.
    """

    __slots__ = (
        "rng", "heap", "seq", "now", "max_pending", "stop", "next_id", "records",
        "entry", "target", "e2e", "first_leg", "last_leg", "rejected_downstream",
    )

    def __init__(
        self, seed: int, max_pending: int, collect_records: bool, entry: _Chain, target: int
    ):
        self.rng = random.Random(seed)
        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.max_pending = max_pending
        self.stop = False
        self.next_id = 0
        self.records: list[RequestRecord] | None = [] if collect_records else None
        self.entry = entry
        self.target = target
        self.e2e: list[float] = []
        self.first_leg: list[float] = []
        self.last_leg: list[float] = []
        self.rejected_downstream = 0

    def push(self, t: float, kind: int, chain: _Chain, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, chain, payload))

    def new_record(self, chain: _Chain, t: float, origin: float | None = None) -> RequestRecord:
        rec = RequestRecord(self.next_id, chain.label, t, origin_submitted_at=origin)
        self.next_id += 1
        if self.records is not None:
            self.records.append(rec)
        return rec

    # -- chain mechanics ---------------------------------------------------

    def submit(self, chain: _Chain, rec: RequestRecord, t: float) -> None:
        chain.generated += 1
        chain.pending.append(rec)
        if len(chain.pending) > self.max_pending:
            raise SimulationUnstableError(
                f"chain {chain.label!r}: pending pool exceeded {self.max_pending} requests "
                f"at t={t:.3f}; the configuration cannot drain its arrivals"
            )
        if len(chain.pending) == 1:
            self.push(t + self.rng.expovariate(chain.pool_rate), _POOL, chain, None)

    def _release(self, chain: _Chain, rec: RequestRecord, t: float) -> None:
        assert rec.submitted_at <= rec.mined_at <= rec.confirmed_at <= t
        # One mined block can release several requests in one event; once the
        # run has met its target the rest stay in flight.
        if chain.busy < chain.servers and not self.stop:
            self._begin_service(chain, rec, t)
        else:
            chain.ready_queue.append(rec)

    def _begin_service(self, chain: _Chain, rec: RequestRecord, t: float) -> None:
        rec.service_start_at = t
        rec.disposition = "served"
        chain.served += 1
        chain.busy += 1
        self.push(t + self.rng.expovariate(chain.service_rate), _DEPART, chain, None)
        if chain.downstream is not None:
            twin = self.new_record(chain.downstream, t, origin=rec.submitted_at)
            self.submit(chain.downstream, twin, t)
            return
        if rec.origin_submitted_at is not None:
            self.e2e.append(t - rec.origin_submitted_at)
            self.first_leg.append(rec.submitted_at - rec.origin_submitted_at)
            self.last_leg.append(t - rec.submitted_at)
        elif chain is self.entry:
            self.e2e.append(t - rec.submitted_at)
        else:
            return  # background traffic of a chain that receives hand-overs
        if len(self.e2e) >= self.target:
            self.stop = True

    def _handle_pool(self, chain: _Chain, t: float) -> None:
        # Competing exponentials: the ring is a rejection with probability R_r / (R_m + R_r).
        if chain.reject_share > 0.0 and self.rng.random() < chain.reject_share:
            size = min(len(chain.pending), chain.reject_batch)
            if size > chain.max_rejected_batch:
                chain.max_rejected_batch = size
            for _ in range(size):
                rec = chain.pending.popleft()
                rec.disposition = "rejected"
                chain.rejected += 1
                if rec.origin_submitted_at is not None:
                    self.rejected_downstream += 1
        else:
            size = min(len(chain.pending), chain.capacity)
            batch = [chain.pending.popleft() for _ in range(size)]
            chain.blocks_mined += 1
            if size > chain.max_mined_batch:
                chain.max_mined_batch = size
            if chain.event_driven:
                for rec in batch:
                    rec.mined_at = t
                chain.conf_groups.append((chain.blocks_mined + chain.extra_confs, batch))
                while chain.conf_groups and chain.conf_groups[0][0] <= chain.blocks_mined:
                    _, group = chain.conf_groups.popleft()
                    for rec in group:
                        rec.confirmed_at = t
                        self._release(chain, rec, t)
            else:
                expovariate = self.rng.expovariate
                for rec in batch:
                    rec.mined_at = t
                    if chain.extra_confs:
                        delay = sum(
                            expovariate(chain.mining_rate) for _ in range(chain.extra_confs)
                        )
                        rec.confirmed_at = t + delay
                        self.push(rec.confirmed_at, _ENTER, chain, rec)
                    else:
                        rec.confirmed_at = t
                        self._release(chain, rec, t)
        if chain.pending:
            self.push(t + self.rng.expovariate(chain.pool_rate), _POOL, chain, None)

    def run(self) -> None:
        heap = self.heap
        while heap and not self.stop:
            t, _, kind, chain, payload = heapq.heappop(heap)
            assert t >= self.now, "event processed out of timestamp order"
            self.now = t
            if kind == _ARRIVAL:
                rec = self.new_record(chain, t)
                self.submit(chain, rec, t)
                self.push(t + self.rng.expovariate(chain.arrival_rate), _ARRIVAL, chain, None)
            elif kind == _POOL:
                self._handle_pool(chain, t)
            elif kind == _ENTER:
                self._release(chain, payload, t)
            else:  # _DEPART
                chain.busy -= 1
                if chain.ready_queue:
                    self._begin_service(chain, chain.ready_queue.popleft(), t)


def _simulate(
    config: ChainConfig | HierarchicalConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str,
    max_pending: int,
    collect_records: bool,
) -> SimResult:
    if target_served < 1:
        raise ValueError(f"target_served must be >= 1, got {target_served!r}")
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
    engine = _Engine(seed, max_pending, collect_records, entry, target_served)
    for chain in chains:
        engine.push(engine.rng.expovariate(chain.arrival_rate), _ARRIVAL, chain, None)
    engine.run()

    warmup = int(target_served * _WARMUP_FRACTION)
    kept = np.asarray(engine.e2e[warmup:], dtype=np.float64)
    stats = _stats(kept)
    served = len(engine.e2e)
    rejected = entry.rejected + engine.rejected_downstream
    result = SimResult(
        latency_samples=kept,
        mean=stats.mean,
        variance=stats.variance,
        confidence_interval_95=stats.confidence_interval_95,
        served_count=served,
        rejected_count=rejected,
        generated_count=entry.generated,
        in_flight_count=entry.generated - served - rejected,
        max_mined_batch=max(chain.max_mined_batch for chain in chains),
        max_rejected_batch=max(chain.max_rejected_batch for chain in chains),
        warmup_discarded=warmup,
        records=engine.records,
    )
    if hierarchical:
        result.breakdown = {
            "e2e": stats,
            "secondary": _stats(engine.first_leg[warmup:]),
            "primary": _stats(engine.last_leg[warmup:]),
        }
        result.aux_counts = {
            "secondary_rejected": secondary.rejected,
            "e2e_rejected_at_primary": engine.rejected_downstream,
            "primary_background_generated": primary.generated - secondary.served,
            "primary_served_total": primary.served,
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


_TRACE_COLUMNS = (
    "request_id", "chain", "submitted_at", "mined_at",
    "confirmed_at", "service_start_at", "disposition",
)


def write_trace_csv(records: list[RequestRecord], path) -> None:
    """Dump per-request lifecycle records (one row per request per chain)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_TRACE_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.request_id,
                    rec.chain,
                    repr(rec.submitted_at),
                    "" if rec.mined_at is None else repr(rec.mined_at),
                    "" if rec.confirmed_at is None else repr(rec.confirmed_at),
                    "" if rec.service_start_at is None else repr(rec.service_start_at),
                    rec.disposition,
                ]
            )
