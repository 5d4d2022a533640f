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
The loop is one function with no closures, so each name it reads on an
event is a fast local, and service starts at one site in it.  A pending
pool that grows past ``MAX_PENDING`` requests ends the run with
:class:`SimulationUnstableError`; the cap is a module constant, not a
parameter of any function.  So does a clock past the float64 range, which
event times, absolute sums, reach at rates near 1e-305.

Mined requests join the service queue by one rule: each chain queues its
mined blocks and releases one when the ``N - 1``-th block after it is
mined, at ``N = 1`` itself, which can stall when the pending pool goes
quiet.  The one exception, ``additive`` mode at ``N > 1``, instead adds
``N - 1`` independent exponential block intervals to each request's
inclusion time; ``event-driven`` mode quantifies that approximation gap.

The 95% interval has one rule: 32 batch means from 64 kept samples up,
one sample a batch below that, and the t quantile of ``batches - 1``
degrees of freedom from one table.

The recorded latency of a request is ``service_start - submitted``: the
request's own service time is excluded.  In the hierarchical composition
the secondary chain hands each end-user request to its ``downstream``
chain, the primary, as its secondary service starts, and latency is
sampled end to end when the primary's starts; a single chain is the same
run with nothing downstream.

Requests are plain lists; ``RequestRecord`` objects, numbered in creation
order, are built from them only when records are asked for.  A run is
single-threaded and bitwise reproducible for a fixed seed; replications
with distinct seeds can run concurrently and be merged by the caller.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from array import array
from dataclasses import dataclass, fields
from collections import deque

import numpy as np

from .config import ChainConfig, HierarchicalConfig, require_count, validate

_ARRIVAL, _POOL, _ENTER, _DEPART = range(4)

CONFIRMATION_MODES = ("additive", "event-driven")
MAX_PENDING = 10**6  # requests a pending pool may hold before a run is called unstable
_WARMUP_FRACTION = 0.1  # share of the target discarded before statistics
_CI_BATCHES = 32
# _T975[dof - 1] is float(scipy.special.stdtrit(dof, 0.975)) for dof = 1 ..
# 2 * _CI_BATCHES - 2: the 97.5% t quantile of every batch count a run can
# have, written out so that no run needs scipy.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788,
)


class SimulationUnstableError(RuntimeError):
    """Pending pool exceeded the runaway threshold, so the mining stage cannot
    drain, or the clock overflowed before the run met its target."""


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


def _stats(samples: list[float] | array | np.ndarray) -> LatencyStats:
    arr = np.asarray(samples, dtype=np.float64)
    # Work on the samples times the power of two that brings their mean into
    # [0.5, 1), so squared deviations neither underflow nor overflow whatever
    # the time unit.  Scaling by a power of two is exact in the normal range,
    # so there it changes no bit of the result.
    _, exponent = math.frexp(float(arr.mean()))
    arr = np.ldexp(arr, -exponent)
    n = arr.size
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1)) if n > 1 else 0.0
    # Batch means absorb the autocorrelation of queueing output.  A run too
    # short for _CI_BATCHES batches of two takes one sample a batch: the iid
    # interval.  A single sample gets a zero-width interval at itself.
    batches = _CI_BATCHES if n >= 2 * _CI_BATCHES else n
    batch = n // batches
    means = arr[: batch * batches].reshape(batches, batch).mean(axis=1)
    center = float(means.mean())
    half = 0.0
    if batches > 1:
        spread = float(means.std(ddof=1)) / math.sqrt(batches)
        half = _T975[batches - 2] * spread
    with np.errstate(over="ignore"):  # a variance past the float64 range reads inf, below it 0.0
        variance = float(np.ldexp(variance, 2 * exponent))
    return LatencyStats(
        math.ldexp(mean, exponent),
        variance,
        (math.ldexp(center - half, exponent), math.ldexp(center + half, exponent)),
    )


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


def simulate_chain(
    config: ChainConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str = "additive",
    *,
    collect_records: bool = False,
) -> SimResult:
    """Simulate one chain until ``target_served`` requests start service.

    ``config`` is validated first.  A pending pool above ``MAX_PENDING``
    requests, or a clock past the float64 range, raises
    :class:`SimulationUnstableError`.  The first tenth of the served samples
    is discarded as warm-up before statistics are computed.  Identical
    arguments produce a bitwise identical result.
    """
    return _simulate(config, target_served, seed, confirmation_mode, collect_records)


def simulate_hierarchical(
    hconfig: HierarchicalConfig,
    target_served: int,
    seed: int,
    confirmation_mode: str = "additive",
    *,
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
    return _simulate(hconfig, target_served, seed, confirmation_mode, collect_records)


def write_trace_csv(records: list[RequestRecord], path) -> None:
    """Dump per-request lifecycle records, one row per request per chain.

    One column per :class:`RequestRecord` field, in field order: an unset
    timestamp is an empty cell and a float is written with ``repr``.
    """
    if records is None:
        raise ValueError("no records to write: run the simulation with collect_records=True")
    names = [f.name for f in fields(RequestRecord)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for rec in records:
            values = (getattr(rec, name) for name in names)
            writer.writerow("" if v is None else repr(v) if isinstance(v, float) else v for v in values)
