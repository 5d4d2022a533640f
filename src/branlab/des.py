"""Vectorised simulation of one chain and of the two-chain hierarchy.

Each chain takes its Poisson arrivals in blocks of ``_BLOCK`` and works
through a block in numpy passes, not one event at a time:

* Mining and rejection are competing exponential transitions out of the
  same pending pool, so the pool has a single clock at rate ``R_m + R_r``.
  Each ring is a rejection with probability ``R_r / (R_m + R_r)``,
  permanently removing the oldest ``min(pending, r)`` requests, and
  otherwise a mined block of the oldest ``min(pending, k)``.  A ring at an
  empty pool changes nothing, and the clock is memoryless, so such rings
  may go undrawn: each gap between arrivals draws its count of rings, and
  only the rings that can find requests draw a type and a time.  Requests
  leave the pool in FIFO order, so a Lindley (1952) recursion on request
  counts, in integers, says which requests each ring takes.
* A mined block is released when the ``N - 1``-th mined block after it is
  mined, at ``N = 1`` at once; release can stall when the pool goes quiet.
  The one exception, ``additive`` mode at ``N > 1``, instead releases each
  request after its own ``Gamma(N - 1, R_m)`` delay, the sum of ``N - 1``
  block intervals; ``event-driven`` mode quantifies that approximation gap.
* Released requests take links first come, first served: a Lindley pass of
  running maxima at one link, a Kiefer-Wolfowitz (1955) pass over a heap
  of link free times at several.

Between blocks a chain carries only its state: its pending requests, the
mined ones not yet released and its links.  Each purpose (arrivals, ring
counts, ring types, ring times, service and confirmation delays) reads its
own numpy ``Generator``, spawned from ``SeedSequence(seed)``, in request
order, so no array grows with the target and no output depends on the
block size.  A pending pool that grows past ``MAX_PENDING`` requests ends
the run with :class:`SimulationUnstableError`; the cap is a module
constant, not a parameter of any function.  So does a clock past the
float64 range, which event times, absolute sums, reach at rates near
1e-305.

The 95% interval has one rule: 32 batch means from 64 kept samples up,
one sample a batch below that, and the t quantile of ``batches - 1``
degrees of freedom from one table.

The recorded latency of a request is ``service_start - submitted``: the
request's own service time is excluded.  In the hierarchical composition
each secondary service start hands its end-user request to the primary,
whose arrivals are these hand-overs merged with its own background
traffic, and latency is sampled end to end when the primary's service
starts; a single chain is the same run with nothing downstream.  A run
stops when its ``target_served``-th end-user request starts its last
service: requests queued behind it stay in flight, and each
``RequestRecord``, numbered in submission order, holds what had happened
to its request by then.  A run is single-threaded and bitwise
reproducible for a fixed seed; replications with distinct seeds can run
concurrently and be merged by the caller.
"""

from __future__ import annotations

import csv
import heapq
import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .config import ChainConfig, HierarchicalConfig, require_count, validate

CONFIRMATION_MODES = ("additive", "event-driven")
MAX_PENDING = 10**6  # requests a pending pool may hold before a run is called unstable
_BLOCK = 2**11  # arrivals a chain takes in one pass; no output depends on it
# numpy's Poisson sampler refuses means past about 9.2e18, and a pass sums
# its ring counts in int64.  The first rings of a gap holding 2**40 of them
# fall within about 1e-12 of its length from its start, so a larger mean is
# cut to that; no pool time moves by more.
_MAX_RINGS = 2.0**40
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


def _lindley(level: int, gain: np.ndarray) -> np.ndarray:
    """``W_j = max(W_{j-1} + gain_j, 0)`` from ``W_{-1} = level``, in integers."""
    total = np.cumsum(gain)
    return total - np.minimum.accumulate(np.concatenate(([-level], total)))[1:]


def _order_statistics(share: np.ndarray, rank: np.ndarray) -> None:
    """Turn ``share``, Beta(1, n - m) draws at ranks m = 0, 1, ... within runs
    of their own, into the smallest uniforms of n in place: the m-th is
    ``u_{m-1} + (1 - u_{m-1}) * share_m``, taken one rank at a time."""
    later = np.flatnonzero(rank)
    step = 1
    while later.size:
        now = later[rank[later] == step]
        share[now] = share[now - 1] + (1.0 - share[now - 1]) * share[now]
        later = later[rank[later] > step]
        step += 1


class _Tally:
    """Sorted event times, counted up to a stop time not yet known.

    Arrays wholly at or before a lower bound of the stop are folded into
    ``count`` as the run goes, so only the last pass or two are kept.
    """

    __slots__ = ("count", "times")

    def __init__(self):
        self.count = 0
        self.times: list[np.ndarray] = []

    def add(self, times: np.ndarray) -> None:
        if times.size:
            self.times.append(times)

    def fold(self, bound: float) -> None:
        self.count += sum(t.size for t in self.times if t[-1] <= bound)
        self.times = [t for t in self.times if t[-1] > bound]

    def upto(self, stop: float) -> int:
        return self.count + sum(int(np.searchsorted(t, stop, "right")) for t in self.times)


class _Chain:
    """One chain's rates and random streams, and the state it carries between passes.

    ``clock`` is the last arrival passed, ``pool`` the pending count and
    ``bound`` the pending count had every ring taken one request, which
    bounds the rings that can act.  ``waiting`` holds the submission and
    origin times of the pending requests, oldest first; ``held`` the index,
    submission, origin and mined times of mined requests not yet released,
    with their release time in additive mode and their block number
    otherwise.  An origin is NaN except on a request handed over from the
    secondary.  ``work`` and ``lead`` carry the one-link Lindley pass and
    ``links`` the several-link heap of free times.  ``entry`` marks the
    chain end-user requests arrive at, whose every rejection counts; the
    primary keeps the arrivals it has not yet passed, its own in ``ahead``
    and the secondary's hand-overs in ``inbox``.  ``trace`` collects what
    records are built from, or is ``None``.
    """

    __slots__ = (
        "label", "entry", "arrivals", "ring_counts", "ring_types", "ring_times", "service",
        "delays", "arrival_rate", "mining_rate", "ring_rate", "reject_share", "service_rate",
        "capacity", "reject_batch", "extra_confs", "additive", "drawn", "exhausted", "clock",
        "arrived", "pool", "bound", "blocks", "waiting", "held", "work", "lead", "links",
        "overflow", "arrived_at", "rejected_at", "trace", "ahead", "inbox",
    )

    def __init__(self, label: str, config: ChainConfig, mode: str, seed: np.random.SeedSequence,
                 entry: bool, collect_records: bool):
        self.label = label
        self.entry = entry
        (self.arrivals, self.ring_counts, self.ring_types, self.ring_times, self.service,
         self.delays) = (np.random.Generator(np.random.PCG64(s)) for s in seed.spawn(6))
        self.arrival_rate = config.arrival_rate
        self.mining_rate = config.mining_rate
        self.ring_rate = config.mining_rate + config.rejection_rate
        self.reject_share = config.rejection_rate / self.ring_rate
        self.service_rate = config.service_rate
        self.capacity = config.block_capacity
        self.reject_batch = config.rejection_batch
        self.extra_confs = config.confirmations - 1
        self.additive = mode == "additive" and config.confirmations > 1
        self.drawn = self.clock = 0.0
        self.exhausted = False  # the arrival clock passed the float64 range
        self.arrived = self.pool = self.bound = self.blocks = 0
        self.waiting = np.empty((2, 0))
        self.held = np.empty((5, 0))
        self.work, self.lead = 0.0, -math.inf
        self.links = [0.0] * config.servers
        self.overflow: float | None = None  # first arrival to find the pool past MAX_PENDING
        self.arrived_at, self.rejected_at = _Tally(), _Tally()
        self.ahead = np.empty(0)  # own arrivals drawn and not yet passed
        self.inbox = np.empty((2, 0))  # hand-over times and origins not yet passed
        self.trace = None
        if collect_records:
            self.trace = {name: [np.empty((2, 0))] for name in ("arrival", "exit", "release", "start")}


def _arrivals(chain: _Chain) -> np.ndarray:
    """The chain's next ``_BLOCK`` arrival times, cut before the first past the float64 range."""
    if chain.exhausted:
        return np.empty(0)
    gaps = chain.arrivals.standard_exponential(_BLOCK) / chain.arrival_rate
    times = np.cumsum(np.concatenate(([chain.drawn], gaps)))[1:]
    finite = np.isfinite(times)
    if not finite[-1]:  # a sum that passed the range stays past it
        times = times[: np.argmin(finite)]
        chain.exhausted = True
    if times.size:
        chain.drawn = times[-1]
    return times


def _access(chain: _Chain, release: np.ndarray) -> np.ndarray:
    """Service start times of requests released at ``release``, in queue order."""
    service = chain.service.standard_exponential(release.size) / chain.service_rate
    if len(chain.links) == 1:
        # start_j = max(r_j, start_{j-1} + x_{j-1}).  With c_j the service
        # queued before request j since the run began, start_j - c_j is the
        # running maximum of r - c; both sums run on from the last pass.
        work = np.cumsum(np.concatenate(([chain.work], service)))
        lead = np.maximum.accumulate(np.concatenate(([chain.lead], release - work[:-1])))
        chain.work, chain.lead = work[-1], lead[-1]
        return np.maximum(release, work[:-1] + lead[1:])
    heap, heapreplace = chain.links, heapq.heapreplace
    starts = array("d")
    append = starts.append
    for at, busy in zip(memoryview(release), memoryview(service)):
        free = heap[0]
        if free > at:
            at = free
        heapreplace(heap, at + busy)
        append(at)
    return np.frombuffer(starts)


def _rings(chain: _Chain, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rings that act in the gaps before each arrival at ``times``.

    Returns their times, how many requests each takes and whether it
    rejects them, and moves the chain's pool on past the arrivals.
    """
    n = times.size
    opened = np.concatenate(([chain.clock], times[:-1]))  # each gap's start
    gaps = times - opened
    rings = chain.ring_counts.poisson(np.minimum(chain.ring_rate * gaps, _MAX_RINGS))
    # A ring that acts takes one request or more, so a gap's rings past the
    # pool it opens with find the pool empty.  The pool, had each ring taken
    # one, bounds it and picks the live rings, the only ones drawn further.
    bound = _lindley(chain.bound - 1, 1 - rings) + 1
    live = np.minimum(rings, np.concatenate(([chain.bound], bound[:-1])))
    gap = np.repeat(np.arange(n), live)
    first = np.cumsum(live) - live
    rank = np.arange(gap.size) - first[gap]
    if chain.reject_share > 0.0:
        rejection = chain.ring_types.random(gap.size) < chain.reject_share
    else:
        rejection = np.zeros(gap.size, dtype=bool)
    size = np.where(rejection, chain.reject_batch, chain.capacity)
    offered = np.concatenate(([0], np.cumsum(size)))  # what the live rings before each can take
    pool = _lindley(chain.pool - 1, 1 - (offered[first + live] - offered[first])) + 1
    opening = np.concatenate(([chain.pool], pool[:-1]))
    left = opening[gap] - (offered[:-1] - offered[first][gap])  # pending as each live ring fires
    acts = left > 0
    gap, rank = gap[acts], rank[acts]
    # The acting rings are the earliest of their gap's uniformly placed
    # rings.  Beta draws keep the arithmetic to +, - and *, which round alike
    # on every machine, unlike numpy's vectorised log1p and expm1.
    place = chain.ring_times.beta(1.0, rings[gap] - rank)
    _order_statistics(place, rank)
    over = np.flatnonzero(pool > MAX_PENDING)
    if over.size and chain.overflow is None:
        chain.overflow = float(times[over[0]])
    chain.clock, chain.pool, chain.bound = float(times[-1]), int(pool[-1]), int(bound[-1])
    return opened[gap] + gaps[gap] * place, np.minimum(left[acts], size[acts]), rejection[acts]


def _pass(chain: _Chain, times: np.ndarray, origins: np.ndarray) -> tuple[np.ndarray, ...]:
    """Take ``chain`` through the rings before each arrival at ``times``, and the arrivals.

    Returns the index, submission, origin and service start times of the
    requests released meanwhile, in queue order.
    """
    if not times.size:
        return (np.empty(0),) * 4
    oldest = chain.arrived - chain.pool
    fired, take, rejection = _rings(chain, times)
    chain.arrived += times.size
    leaving = int(take.sum())
    exit_time = np.repeat(fired, take)
    exit_rejected = np.repeat(rejection, take)
    mining = ~rejection
    first_block = chain.blocks
    block_time = fired[mining]
    block = np.repeat(first_block + np.cumsum(mining) - 1, take)
    chain.blocks += block_time.size
    queue = np.concatenate((chain.waiting, np.vstack((times, origins))), axis=1)
    (submitted, origin), chain.waiting = queue[:, :leaving], queue[:, leaving:]

    counted = exit_rejected if chain.entry else exit_rejected & ~np.isnan(origin)
    chain.rejected_at.add(exit_time[counted])
    mined = ~exit_rejected
    mined_at = exit_time[mined]
    if chain.additive:
        delay = chain.delays.standard_gamma(chain.extra_confs, mined_at.size) / chain.mining_rate
        key = mined_at + delay
    else:
        key = block[mined]
    index = np.arange(oldest, oldest + leaving)[mined]
    held = np.concatenate(
        (chain.held, np.vstack((index, submitted[mined], origin[mined], mined_at, key))), axis=1
    )
    if chain.additive:
        ready = held[4] <= chain.clock  # a request mined later is released later
        release = held[4, ready]
    else:
        due = held[4] + chain.extra_confs  # the block whose mining releases it
        ready = due < chain.blocks
        release = block_time[(due[ready] - first_block).astype(np.intp)]
    out, chain.held = held[:, ready], held[:, ~ready]
    if chain.additive:
        order = np.argsort(release, kind="stable")
        out, release = out[:, order], release[order]
    if chain.trace is not None:
        chain.trace["arrival"].append(np.vstack((times, origins)))
        chain.trace["exit"].append(np.vstack((exit_time, exit_rejected)))
        chain.trace["release"].append(np.vstack((out[0], release)))
    return (*out[:3], _access(chain, release))


def _serve(sink: _Chain, passed: tuple[np.ndarray, ...], need: int, skip: int, legs: tuple[list, ...]
           ) -> tuple[int, float | None]:
    """Sample the first ``need`` end-user service starts among ``passed``.

    Appends the end-to-end latencies of all but the first ``skip`` of them,
    and in a hierarchy their two legs, to ``legs``.  Returns how many were
    sampled and the time of the ``need``-th, or ``None`` while fewer start
    here; requests queued behind it are not served.
    """
    index, submitted, origin, start = passed
    hierarchical = not sink.entry
    picked = (np.flatnonzero(~np.isnan(origin)) if hierarchical else np.arange(start.size))[:need]
    stop, cut = None, start.size
    if picked.size == need:
        stop, cut = float(start[picked[-1]]), picked[-1] + 1
    if sink.trace is not None:
        sink.trace["start"].append(np.vstack((index[:cut], start[:cut])))
    kept = picked[skip:]
    begun, submitted = start[kept], submitted[kept]
    if hierarchical:
        origin = origin[kept]
        legs[0].append(begun - origin)
        legs[1].append(submitted - origin)
        legs[2].append(begun - submitted)
    else:
        legs[0].append(begun - submitted)
    return picked.size, stop


def _primary_arrivals(sink: _Chain, horizon: float):
    """Yield the primary's arrivals up to ``horizon`` in time order, a block at
    a time: its own, drawn as needed, merged with the hand-overs in its inbox."""
    while True:
        if not sink.ahead.size:
            sink.ahead = _arrivals(sink)
        limit = horizon if not sink.ahead.size or sink.ahead[-1] > horizon else sink.ahead[-1]
        mine = int(np.searchsorted(sink.ahead, limit, "right"))
        theirs = int(np.searchsorted(sink.inbox[0], limit, "right"))
        # A hand-over goes after the own arrivals up to its time, and after the hand-overs before it.
        slots = np.searchsorted(sink.ahead[:mine], sink.inbox[0, :theirs], "right") + np.arange(theirs)
        times, origins = np.empty(mine + theirs), np.full(mine + theirs, np.nan)
        times[slots], origins[slots] = sink.inbox[:, :theirs]
        own = np.ones(mine + theirs, dtype=bool)
        own[slots] = False
        times[own] = sink.ahead[:mine]
        sink.ahead, sink.inbox = sink.ahead[mine:], sink.inbox[:, theirs:]
        yield times, origins
        if limit == horizon:
            return


def _run(entry: _Chain, sink: _Chain, target: int, warmup: int) -> tuple[tuple[list, ...], float]:
    """Pass blocks of arrivals through the chains until ``target`` end-user
    requests have started their last service, at the stop time, and every
    chain has passed it.  Returns the pieces of the samples after the first
    ``warmup`` (the end-to-end latencies, then in a hierarchy its two legs)
    and the stop time.

    End-user requests arrive at ``entry``; in a hierarchy, ``sink`` is the
    primary, which takes each secondary service start as an arrival once
    the secondary's clock has passed it.
    """
    chains = (entry,) if entry is sink else (entry, sink)
    legs: tuple[list, ...] = ([], [], [])
    served, stop = 0, None
    while True:
        times = _arrivals(entry)
        entry.arrived_at.add(times)
        passed = _pass(entry, times, np.full(times.size, np.nan))
        feeds = (passed,)
        if entry is not sink:
            if entry.trace is not None:
                entry.trace["start"].append(np.vstack((passed[0], passed[3])))
            sink.inbox = np.concatenate((sink.inbox, np.vstack((passed[3], passed[1]))), axis=1)
            # Passed one at a time, each as the primary reaches it.
            feeds = (_pass(sink, *arrivals) for arrivals in _primary_arrivals(sink, entry.clock))
        for passed in feeds:
            if stop is None:
                count, stop = _serve(sink, passed, target - served, max(warmup - served, 0), legs)
                served += count
        # Nothing after the stop happened; the stop comes after sink.clock until it is known.
        limit = sink.clock if stop is None else stop
        overflows = [(c.overflow, c.label) for c in chains if c.overflow is not None and c.overflow <= limit]
        if overflows:
            t, label = min(overflows)
            raise SimulationUnstableError(
                f"chain {label!r}: pending pool exceeded {MAX_PENDING} requests "
                f"at t={t:.3f}; the configuration cannot drain its arrivals"
            )
        if stop is not None and sink.clock >= stop:
            return legs, stop
        if entry.exhausted or sink.exhausted:
            raise SimulationUnstableError(f"the simulation clock passed the float64 range before "
                                          f"{target} requests started service")
        if stop is None:
            for chain in chains:
                chain.arrived_at.fold(limit)
                chain.rejected_at.fold(limit)


def _join(pieces: list) -> np.ndarray:
    """The pieces as one array; the list lets them go, so they and the whole
    are held together only while it is built."""
    whole = np.concatenate(pieces)
    pieces.clear()
    return whole


def _column(values: np.ndarray) -> list:
    """Python floats, with NaN read as ``None``."""
    return [None if v != v else v for v in values.tolist()]


def _records(chains: tuple[_Chain, ...], stop: float) -> list[RequestRecord]:
    """Every request submitted by ``stop``, with what had happened to it by then."""
    columns = []
    for chain in chains:
        trace = chain.trace
        submitted, origin = np.concatenate(trace["arrival"], axis=1)
        n = int(np.searchsorted(submitted, stop, "right"))
        submitted, origin = submitted[:n], origin[:n]
        exit_time, exit_rejected = np.concatenate(trace["exit"], axis=1)[:, :n]  # in index order
        left = exit_time <= stop
        mined = np.full(n, np.nan)
        mined[: left.size][left & (exit_rejected == 0)] = exit_time[left & (exit_rejected == 0)]
        disposition = np.full(n, "in-flight", dtype=object)
        disposition[: left.size][left & (exit_rejected == 1)] = "rejected"
        stamps = []
        for name in ("release", "start"):
            index, time = np.concatenate(trace[name], axis=1)
            happened = (time <= stop) & (index < n)
            stamp = np.full(n, np.nan)
            stamp[index[happened].astype(np.intp)] = time[happened]
            stamps.append(stamp)
        disposition[~np.isnan(stamps[1])] = "served"
        columns.append((np.full(n, chain.label, dtype=object), submitted, mined, *stamps, disposition,
                        origin))
    order = np.argsort(np.concatenate([column[1] for column in columns]), kind="stable")
    label, submitted, mined, confirmed, started, disposition, origin = (
        np.concatenate(parts)[order] for parts in zip(*columns)
    )
    rows = zip(label.tolist(), _column(submitted), _column(mined), _column(confirmed),
               _column(started), disposition.tolist(), _column(origin))
    return [RequestRecord(i, *row) for i, row in enumerate(rows)]


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
    seeds = np.random.SeedSequence(seed).spawn(2)
    if hierarchical:
        entry = _Chain("secondary", config.secondary, confirmation_mode, seeds[0], True, collect_records)
        sink = _Chain("primary", config.primary, confirmation_mode, seeds[1], False, collect_records)
        chains = (entry, sink)
    else:
        entry = sink = _Chain("chain", config, confirmation_mode, seeds[0], True, collect_records)
        chains = (entry,)
    warmup = int(target_served * _WARMUP_FRACTION)
    with np.errstate(over="ignore", invalid="ignore"):  # a clock past the range raises in _run
        legs, stop = _run(entry, sink, target_served, warmup)
    kept = _join(legs[0])
    stats = _stats(kept)
    rejected = sum(chain.rejected_at.upto(stop) for chain in chains)
    generated = entry.arrived_at.upto(stop)
    breakdown = None if not hierarchical else {
        "e2e": stats, "secondary": _stats(_join(legs[1])), "primary": _stats(_join(legs[2]))
    }
    return SimResult(
        latency_samples=kept,
        mean=stats.mean,
        variance=stats.variance,
        confidence_interval_95=stats.confidence_interval_95,
        served_count=target_served,
        rejected_count=rejected,
        generated_count=generated,
        in_flight_count=generated - target_served - rejected,
        warmup_discarded=warmup,
        breakdown=breakdown,
        records=_records(chains, stop) if collect_records else None,
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
