import gc
import hashlib
import heapq
import math
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.special import stdtrit

from branlab.config import (
    ChainConfig,
    HierarchicalConfig,
    pending_root,
    served_rate,
    with_intensity,
)
from branlab import des
from branlab.des import (
    RequestRecord,
    SimulationUnstableError,
    _stats,
    simulate_chain,
    simulate_hierarchical,
    write_trace_csv,
)
from branlab.markov import latency

import des_reference
import gates


BASE = ChainConfig(0.8, 2.5, 0.0, 1.0, servers=1, block_capacity=3)


def test_identical_seed_identical_result():
    a = simulate_chain(BASE, 5000, seed=7)
    b = simulate_chain(BASE, 5000, seed=7)
    assert np.array_equal(a.latency_samples, b.latency_samples)
    assert (a.mean, a.variance, a.confidence_interval_95) == (
        b.mean, b.variance, b.confidence_interval_95,
    )
    assert (a.generated_count, a.served_count, a.rejected_count) == (
        b.generated_count, b.served_count, b.rejected_count,
    )
    c = simulate_chain(BASE, 5000, seed=8)
    assert not np.array_equal(a.latency_samples, c.latency_samples)


def test_every_request_is_accounted_for():
    cfg = ChainConfig(0.8, 2.5, 0.4, 1.0, servers=1, block_capacity=3, rejection_batch=2)
    res = simulate_chain(cfg, 8000, seed=3)
    assert res.served_count + res.rejected_count + res.in_flight_count == res.generated_count
    assert res.in_flight_count >= 0
    assert res.served_count == 8000
    assert res.rejected_count > 0


def test_served_count_meets_the_target_exactly():
    # One mined block releases up to k requests at one instant; those queued
    # behind the target-th stay in flight.  The hierarchy shares the stop
    # rule, counting end-user requests as they start primary service
    # (fig11's 8-link point).  These two runs once overshot on some seeds,
    # so they run on 40 small seeds and on 20 63-bit ones derived as the
    # benchmark derives its own.
    cfg = ChainConfig(8.0, 12.5, 0.0, 1.0, servers=10, block_capacity=3)
    hier = HierarchicalConfig(
        primary=ChainConfig(10.0, 200.0, 0.0, 10.0, servers=10, block_capacity=3),
        secondary=ChainConfig(3.2, 4.0, 0.0, 1.0, servers=8),
    )
    wide = [int.from_bytes(hashlib.sha256(f"served:{i}".encode()).digest()[:8], "big") >> 1
            for i in range(20)]
    for seed in [*range(40), *wide]:
        for run, config, chain in ((simulate_chain, cfg, "chain"), (simulate_hierarchical, hier, "primary")):
            res = run(config, 2000, seed, collect_records=True)
            served = [rec for rec in res.records if rec.chain == chain and rec.disposition == "served"
                      and (chain == "chain" or rec.origin_submitted_at is not None)]
            assert len(served) == res.served_count == 2000, seed
            assert res.generated_count == res.served_count + res.rejected_count + res.in_flight_count


def test_reported_mean_sits_inside_its_own_interval():
    res = simulate_chain(BASE, 6000, seed=19)
    lo, hi = res.confidence_interval_95
    assert lo <= res.mean <= hi
    assert res.latency_samples.size == res.served_count - res.warmup_discarded


def test_batch_sizes_respect_capacity():
    # The rejection batch bound is checked through the rejected share in
    # test_pending_pool_follows_its_exact_law, which depends on r.
    cfg = ChainConfig(0.9, 0.5, 0.3, 1.0, servers=2, block_capacity=4, rejection_batch=2)
    res = simulate_chain(cfg, 5000, seed=11, collect_records=True)
    blocks = Counter((rec.chain, rec.mined_at) for rec in res.records if rec.mined_at is not None)
    assert all(1 <= size <= 4 for size in blocks.values())
    assert max(blocks.values()) > 1


def test_record_timestamps_are_ordered():
    res = simulate_chain(BASE, 3000, seed=5, collect_records=True)
    served = rejected = 0
    for rec in res.records:
        if rec.disposition == "served":
            served += 1
            assert rec.submitted_at <= rec.mined_at <= rec.confirmed_at <= rec.service_start_at
        elif rec.disposition == "rejected":
            rejected += 1
            assert rec.service_start_at is None
    assert served == res.served_count and rejected == res.rejected_count


def test_trace_dump_round_trip(tmp_path):
    import csv
    from dataclasses import fields

    res = simulate_hierarchical(HIER, 200, seed=5, collect_records=True)
    assert any(rec.origin_submitted_at is not None for rec in res.records)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.records, path)
    with path.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == [f.name for f in fields(RequestRecord)]
    assert len(rows) == len(res.records)
    for rec, row in zip(res.records, rows):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            value = getattr(rec, name)
            assert (None if cell == "" else type(value)(cell)) == value, (name, cell)



def test_trace_dump_without_records_is_refused(tmp_path):
    # records is None unless the run collected them: refuse before any file is made.
    res = simulate_chain(ChainConfig(0.5, 2.0, 0.0, 1.0), 200, seed=5)
    assert res.records is None
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match="collect_records=True"):
        write_trace_csv(res.records, path)
    assert not path.exists()


# The single-queue oracle, the empty-system delay and the solver match below
# are one family of three exact-value checks: each gets a Sidak share of a
# family-wise alpha of 0.01 in batch-means 95% half-widths, about 1.56.
_EXACT_VALUE_BOUND = gates.half_width_bound(3)


def _assert_near_exact(res, exact, point):
    lo, hi = res.confidence_interval_95
    gap = abs(res.mean - exact) / ((hi - lo) / 2)
    gates.assert_family({point: gap}, _EXACT_VALUE_BOUND, "half-widths")


def test_single_queue_waiting_time_oracle():
    # transparent mining turns the system into one memoryless single-server
    # queue; the recorded latency is its waiting time lam / (mu (mu - lam)).
    # A million served narrow the interval to about 1% of the mean.  At 5e4
    # this seed's stream read 1.67 half-widths (3.4 standard errors) high,
    # while seeds 0 to 59 read a mean of +0.03 half-widths, spread 0.50.
    cfg = ChainConfig(0.5, 200.0, 0.0, 1.0, servers=1)
    res = simulate_chain(cfg, 1_000_000, seed=42)
    expected = 0.5 / (1.0 * (1.0 - 0.5)) + 1.0 / 200.0
    _assert_near_exact(res, expected, "single queue")


def test_empty_system_confirmation_delay():
    cfg = ChainConfig(0.001, 1.0, 0.0, 1.0, servers=5, confirmations=4)
    res = simulate_chain(cfg, 4000, seed=9)
    # almost no queueing: latency is one inclusion wait plus three more blocks
    _assert_near_exact(res, 4.0, "empty system")


def test_additive_equals_event_driven_for_single_confirmation():
    a = simulate_chain(BASE, 4000, seed=21, confirmation_mode="additive")
    b = simulate_chain(BASE, 4000, seed=21, confirmation_mode="event-driven")
    assert np.array_equal(a.latency_samples, b.latency_samples)


def assert_release_rule(records, confirmations):
    """Every confirmed request of a chain is confirmed as the ``N - 1``-th
    mined block after its own is mined; a mined one not yet confirmed is in
    one of that chain's last ``N - 1`` blocks.  Rejections are no blocks."""
    for label in {rec.chain for rec in records}:
        mined = [rec for rec in records if rec.chain == label and rec.mined_at is not None]
        blocks = sorted({rec.mined_at for rec in mined})
        index = {t: i for i, t in enumerate(blocks)}
        confirmed = 0
        for rec in mined:
            later = index[rec.mined_at] + confirmations - 1
            if rec.confirmed_at is None:
                assert later >= len(blocks)
            else:
                confirmed += 1
                assert rec.confirmed_at == blocks[later]
        assert confirmed > 0


@pytest.mark.parametrize("confirmations", [1, 2, 3])
def test_event_driven_release_waits_for_n_minus_one_mined_blocks(confirmations):
    chain = ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=2,
                        confirmations=confirmations)
    res = simulate_chain(chain, 3000, seed=4, confirmation_mode="event-driven", collect_records=True)
    assert_release_rule(res.records, confirmations)
    hier = HierarchicalConfig(
        primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3,
                            confirmations=confirmations),
        secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, confirmations=confirmations),
    )
    res = simulate_hierarchical(hier, 3000, seed=4, confirmation_mode="event-driven",
                                collect_records=True)
    assert_release_rule(res.records, confirmations)


def test_event_driven_mode_differs_with_more_confirmations():
    cfg = ChainConfig(0.8, 2.5, 0.0, 1.0, servers=1, block_capacity=3, confirmations=4)
    a = simulate_chain(cfg, 4000, seed=21, confirmation_mode="additive")
    b = simulate_chain(cfg, 4000, seed=21, confirmation_mode="event-driven")
    assert a.mean != b.mean


def test_simulated_mean_matches_solver():
    cfg = with_intensity(ChainConfig(0.1, 2.5, 0.0, 1.0, servers=1, block_capacity=3), 0.5)
    res = simulate_chain(cfg, 30_000, seed=4)
    _assert_near_exact(res, latency(cfg), "solver")


def test_pending_pool_follows_its_exact_law():
    # The pool alone is a bulk-service queue with batch rejections whose
    # stationary law is geometric in z0 (config.pending_root), so the
    # simulator's pool is checked without the solver: the mean pool time of
    # mined requests against z0 / (R_a (1 - z0)), and the rejected share of
    # the requests that left the pool against 1 - served_rate / R_a.  Eight
    # comparisons share one Sidak gate at a family-wise alpha of 0.01, in
    # batch-means 95% half-widths.
    bound = gates.half_width_bound(8)
    configs = [
        ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3),
        ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=1),
        ChainConfig(0.5, 2.5, 0.25, 1.0, block_capacity=3),
        ChainConfig(4.0, 2.0, 1.0, 1.0, servers=5, block_capacity=3, rejection_batch=2),
    ]
    master = 1954
    gaps = {}
    for index, cfg in enumerate(configs):
        records = simulate_chain(cfg, 50_000, seed=master + index, collect_records=True).records
        kept = records[len(records) // 10:]
        pool_times = [rec.mined_at - rec.submitted_at for rec in kept if rec.mined_at is not None]
        rejected = [rec.disposition == "rejected" for rec in kept
                    if rec.mined_at is not None or rec.disposition == "rejected"]
        z0 = pending_root(cfg)
        exact = {
            "pool time": (pool_times, z0 / (cfg.arrival_rate * (1.0 - z0))),
            "rejected share": (rejected, 1.0 - served_rate(cfg, z0) / cfg.arrival_rate),
        }
        for name, (samples, reference) in exact.items():
            stats = _stats(samples)
            lo, hi = stats.confidence_interval_95
            gaps[index, name] = abs(stats.mean - reference) / ((hi - lo) / 2)
    gates.assert_family(gaps, bound, "half-widths")


@pytest.mark.parametrize("n", [2, 30, 63, 64, 5000])
def test_interval_half_width_is_the_t_quantile(n):
    from scipy import stats

    samples = np.random.default_rng(n).exponential(size=n)
    lo, hi = _stats(samples).confidence_interval_95
    if n >= 64:  # 32 batch means
        means = samples[: n // 32 * 32].reshape(32, n // 32).mean(axis=1)
        spread, df = means.std(ddof=1) / math.sqrt(32), 31
    else:
        spread, df = samples.std(ddof=1) / math.sqrt(n), n - 1
    assert (hi - lo) / 2 == pytest.approx(stats.t.ppf(0.975, df) * spread, rel=1e-12)


def test_quantile_table_is_scipys():
    # One entry for each batch count from 2 to 2 * _CI_BATCHES - 1.
    assert len(des._T975) == 2 * des._CI_BATCHES - 2
    assert des._T975 == tuple(float(stdtrit(dof, 0.975)) for dof in range(1, len(des._T975) + 1))
    assert des._T975[des._CI_BATCHES - 2] == 2.039513446396408


def test_one_sample_is_its_own_interval():
    stats = _stats([3.7])
    assert (stats.mean, stats.variance, stats.confidence_interval_95) == (3.7, 0.0, (3.7, 3.7))


def test_statistics_keep_their_precision_at_extreme_rates():
    # Every rate times 2**-996 is the same run in a time unit 2**996 times
    # longer: the samples scale exactly, and so must every statistic.  At
    # latencies near 1e-300 the squared deviations underflow unless the
    # statistics work on rescaled samples.
    fast = ChainConfig(5e299, 2.5e300, 0.0, 1e300)
    rates = ("arrival_rate", "mining_rate", "rejection_rate", "service_rate")
    slow = replace(fast, **{name: math.ldexp(getattr(fast, name), -996) for name in rates})
    extreme, moderate = simulate_chain(fast, 2000, 1), simulate_chain(slow, 2000, 1)
    assert np.array_equal(extreme.latency_samples, np.ldexp(moderate.latency_samples, -996))
    assert extreme.mean == math.ldexp(moderate.mean, -996)
    assert extreme.confidence_interval_95 == tuple(
        math.ldexp(bound, -996) for bound in moderate.confidence_interval_95
    )
    lo, hi = extreme.confidence_interval_95
    assert lo < extreme.mean < hi
    # about 1e-600, below the float64 range, so it rounds to zero
    assert extreme.variance == math.ldexp(moderate.variance, -2 * 996)


def test_an_overflowing_variance_reads_inf():
    # The same run at rates 2**-664, about 1e-200, of the moderate ones: its
    # variance, about 1e400, is past the float64 range and reads inf, as one
    # below it reads 0.0; the mean and interval scale exactly.
    moderate = ChainConfig(0.5, 2.5, 0.0, 1.0)
    rates = ("arrival_rate", "mining_rate", "rejection_rate", "service_rate")
    slow = replace(moderate, **{name: math.ldexp(getattr(moderate, name), -664) for name in rates})
    base, scaled = simulate_chain(moderate, 2000, 1), simulate_chain(slow, 2000, 1)
    assert scaled.variance == math.inf
    assert scaled.mean == math.ldexp(base.mean, 664)
    assert scaled.confidence_interval_95 == tuple(
        math.ldexp(bound, 664) for bound in base.confidence_interval_95
    )


@pytest.mark.parametrize("mode", des.CONFIRMATION_MODES)
def test_mean_latency_scales_with_the_time_unit(mode):
    # Every rate times a is the same run in a time unit 1/a long.  Event
    # times are absolute sums, so single samples lose digits to rounding
    # (1.5e-6 at a = 3 and 1e5 served), but the counts and the mean keep them.
    chains = (
        ChainConfig(0.5, 2.5, 0.0, 1.0),
        ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3),
        ChainConfig(8.0, 12.5, 0.0, 1.0, servers=10, block_capacity=3, confirmations=4),
    )
    rates = ("arrival_rate", "mining_rate", "rejection_rate", "service_rate")
    counts = ("served_count", "rejected_count", "generated_count")
    for config in chains:
        base = simulate_chain(config, 2000, 5, mode)
        for a in (3.0, 1e-3, 7e5, 1 / 3):
            scaled = replace(config, **{name: a * getattr(config, name) for name in rates})
            result = simulate_chain(scaled, 2000, 5, mode)
            assert [getattr(result, name) for name in counts] == [getattr(base, name) for name in counts]
            assert a * result.mean == pytest.approx(base.mean, rel=1e-9, abs=0)


def test_two_server_delay_probability():
    # transparent mining in front of two links at one erlang offered load:
    # the fraction of requests finding both links busy is the delay
    # probability 1/3
    cfg = ChainConfig(1.0, 500.0, 0.0, 1.0, servers=2)
    res = simulate_chain(cfg, 30_000, seed=17, collect_records=True)
    waited = sum(
        1
        for rec in res.records
        if rec.disposition == "served" and rec.service_start_at - rec.confirmed_at > 1e-12
    )
    frac = waited / res.served_count
    se = math.sqrt((1 / 3) * (2 / 3) / res.served_count)
    assert abs(frac - 1 / 3) <= 3 * se + 0.01


def test_runaway_pending_pool_raises(monkeypatch):
    # a valid chain whose mining stage runs at utilisation 0.99 soon holds
    # more than 20 pending requests
    monkeypatch.setattr(des, "MAX_PENDING", 20)
    cfg = ChainConfig(0.99, 1.0, 0.0, 1.0, servers=4)
    with pytest.raises(SimulationUnstableError):
        simulate_chain(cfg, 10**9, seed=1)


def test_an_overflowing_clock_raises():
    # At rates near 1e-305 event times pass 1.8e308 within 2000 requests, and
    # the samples after that read inf - inf = nan; at 1e-300 the run is finite.
    with pytest.raises(SimulationUnstableError, match="clock passed the float64 range"):
        simulate_chain(ChainConfig(0.5e-305, 2.5e-305, 0.0, 1e-305), 2000, 1)
    assert math.isfinite(simulate_chain(ChainConfig(0.5e-300, 2.5e-300, 0.0, 1e-300), 2000, 1).mean)


def test_runs_leave_no_reference_cycles(monkeypatch):
    # A run's state must be freed when it returns or raises, not at the next
    # full collection: cyclic garbage made peak memory depend on GC timing.
    def des_objects_in_cyclic_garbage():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return [o for o in gc.garbage if type(o).__module__ == "branlab.des"]
        finally:
            gc.garbage.clear()
            gc.set_debug(0)

    monkeypatch.setattr(des, "MAX_PENDING", 20)
    gc.collect()
    gc.disable()
    try:
        simulate_chain(BASE, 2000, seed=1)
        simulate_hierarchical(HIER, 1000, seed=1)
        simulate_hierarchical(HIER, 1000, seed=1, confirmation_mode="event-driven")
        with pytest.raises(SimulationUnstableError):
            simulate_chain(ChainConfig(0.99, 1.0, 0.0, 1.0, servers=4), 10**9, seed=1)
        # The primary's pool, near saturation, overflows on a hand-over.
        handing_over = HierarchicalConfig(
            primary=ChainConfig(0.01, 2.05, 0.0, 10.0, block_capacity=1),
            secondary=ChainConfig(2.0, 50.0, 0.0, 5.0),
        )
        with pytest.raises(SimulationUnstableError, match="chain 'primary'"):
            simulate_hierarchical(handing_over, 10**9, seed=1)
        assert des_objects_in_cyclic_garbage() == []
    finally:
        gc.enable()


# Seeded outputs of numpy's Generator streams.  A changed draw order moves a
# mean or a sample by far more than 1e-12 relative; a last-ulp libm
# difference between machines does not.  The record digests are exact: they
# pin every field of every request, bit for bit, so they hold only where the
# libm that numpy's samplers call rounds as glibc's does.
_PINNED_CHAINS = {
    "single": ChainConfig(0.8, 2.5, 0.0, 1.0),
    "ten-links": ChainConfig(8.0, 12.5, 0.0, 1.0, servers=10, block_capacity=3),
    "rejecting": ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3),
    "three-confirmations": ChainConfig(0.8, 2.5, 0.0, 1.0, block_capacity=3, confirmations=3),
    # four summed draws per request, which sum() rounds differently from Python 3.12
    "five-confirmations": ChainConfig(0.8, 2.5, 0.0, 1.0, block_capacity=3, confirmations=5),
    "busy-links": ChainConfig(3.6, 500.0, 0.0, 1.0, servers=4),  # requests queue for links
    "hierarchy": HierarchicalConfig(
        primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3),
        secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, servers=1),
    ),
    # confirmation delays or held blocks on both chains
    "hierarchy-confirmations": HierarchicalConfig(
        primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3, confirmations=3),
        secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, servers=1, confirmations=3),
    ),
}
# (served, rejected, generated, records, mean, first sample, last sample)
_PINNED = {
    ("single", "additive"): (4000, 0, 4001, 4001, 5.041846976023571, 2.2409797243054186, 2.902553130713386),
    ("single", "event-driven"): (4000, 0, 4001, 4001, 5.041846976023571, 2.2409797243054186, 2.902553130713386),
    ("ten-links", "additive"): (4000, 0, 4000, 4000, 0.32244821541137936, 0.31107442415126485, 0.018792157955545008),
    ("ten-links", "event-driven"): (4000, 0, 4000, 4000, 0.32244821541137936, 0.31107442415126485, 0.018792157955545008),
    ("rejecting", "additive"): (4000, 1886, 5888, 5888, 2.178844485599509, 0.14411804710061915, 0.5698341776615052),
    ("rejecting", "event-driven"): (4000, 1886, 5888, 5888, 2.178844485599509, 0.14411804710061915, 0.5698341776615052),
    ("three-confirmations", "additive"): (4000, 0, 4003, 4003, 5.771690557899951, 2.2685213932974193, 5.10024124415304),
    ("three-confirmations", "event-driven"): (4000, 0, 4003, 4003, 8.16456068433492, 6.853589425622431, 7.191934355764715),
    ("five-confirmations", "additive"): (4000, 0, 4003, 4003, 6.488782362728574, 3.3423532980095843, 5.2080368831457236),
    ("busy-links", "additive"): (4000, 0, 4000, 4000, 1.7955246187436895, 1.6088160495788344, 0.18978529521700693),
    ("busy-links", "event-driven"): (4000, 0, 4000, 4000, 1.7955246187436895, 1.6088160495788344, 0.18978529521700693),
    ("hierarchy", "additive"): (4000, 608, 4610, 22414, 0.2928242105014853, 0.30534002026894314, 0.3404640959151948),
    ("hierarchy", "event-driven"): (4000, 608, 4610, 22414, 0.2928242105014853, 0.30534002026894314, 0.3404640959151948),
    ("hierarchy-confirmations", "additive"): (4000, 632, 4632, 22519, 0.5862757219558091, 0.5058999243705671, 0.21768490880640456),
    ("hierarchy-confirmations", "event-driven"): (4000, 609, 4615, 22433, 1.6904750467455687, 1.9661844123969558, 2.1563841421316283),
}
# sha256 over the repr of every RequestRecord field, in record order
_PINNED_RECORDS = {
    ("single", "additive"): "5ec396ddacf34021745d3d0f1db3388043b25f964ea42a47ec8c635a255cad71",
    ("single", "event-driven"): "5ec396ddacf34021745d3d0f1db3388043b25f964ea42a47ec8c635a255cad71",
    ("ten-links", "additive"): "b41d9d40066e0a9adf9049653e23abcd35afd0512d11be33063396b78da22e96",
    ("ten-links", "event-driven"): "b41d9d40066e0a9adf9049653e23abcd35afd0512d11be33063396b78da22e96",
    ("rejecting", "additive"): "340a86be95ad2a4a0c371efb3dc3e37429612560ec07dd871f994587bafce335",
    ("rejecting", "event-driven"): "340a86be95ad2a4a0c371efb3dc3e37429612560ec07dd871f994587bafce335",
    ("three-confirmations", "additive"): "1d930df5c1c1377054385f38f39ead26361eead4a14503614c0f45fa290961f5",
    ("three-confirmations", "event-driven"): "51accfb82b3ee2736e252b602afeb2da089c1147f5fe0b7aed26da4976b39dfd",
    ("five-confirmations", "additive"): "386165a0d9adda9f64d8fa5825e10e02c21272a9dd6afb990be27e133ffe4094",
    ("busy-links", "additive"): "36874ae8413ece53ce720e9725d00a0f3332b0e19a374b0e21bcd69e6d2532f3",
    ("busy-links", "event-driven"): "36874ae8413ece53ce720e9725d00a0f3332b0e19a374b0e21bcd69e6d2532f3",
    ("hierarchy", "additive"): "166a5d86019a7e6235f1948f548f67d8c1c7df92930c6056166d053e462e9186",
    ("hierarchy", "event-driven"): "166a5d86019a7e6235f1948f548f67d8c1c7df92930c6056166d053e462e9186",
    ("hierarchy-confirmations", "additive"): "4410497bf5ba11e43f93206e2ab65af7ab7a526d9e9326c6c566d38b93139bdc",
    ("hierarchy-confirmations", "event-driven"): "255e70b5c6feba8bd53006a814f671f5621a229f2cb4a62ef2b12f7cd3f113b4",
}


def _records_digest(records):
    digest = hashlib.sha256()
    for rec in records:
        digest.update(repr(astuple(rec)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, mode", list(_PINNED))
def test_seeded_output_is_pinned(name, mode):
    config = _PINNED_CHAINS[name]
    run = simulate_hierarchical if isinstance(config, HierarchicalConfig) else simulate_chain
    res = run(config, 4000, seed=2026, confirmation_mode=mode, collect_records=True)
    *counts, mean, first, last = _PINNED[name, mode]
    assert [res.served_count, res.rejected_count, res.generated_count, len(res.records)] == counts
    assert res.mean == pytest.approx(mean, rel=1e-12)
    assert res.latency_samples[0] == pytest.approx(first, rel=1e-12)
    assert res.latency_samples[-1] == pytest.approx(last, rel=1e-12)
    assert _records_digest(res.records) == _PINNED_RECORDS[name, mode]
    # Collecting records draws nothing.
    lean = run(config, 4000, seed=2026, confirmation_mode=mode)
    assert np.array_equal(lean.latency_samples, res.latency_samples)


def test_no_output_depends_on_the_block_size(monkeypatch):
    # Every stream is read in request order and every carried sum runs on
    # across passes, so blocks of 2**6 arrivals give the same bits.
    runs = {}
    for block in (des._BLOCK, 2**6):
        monkeypatch.setattr(des, "_BLOCK", block)
        for name, mode in _PINNED:
            config = _PINNED_CHAINS[name]
            run = simulate_hierarchical if isinstance(config, HierarchicalConfig) else simulate_chain
            res = run(config, 4000, seed=2026, confirmation_mode=mode, collect_records=True)
            runs.setdefault((name, mode), []).append(res)
    for key, (wide, narrow) in runs.items():
        assert np.array_equal(wide.latency_samples, narrow.latency_samples), key
        assert wide.records == narrow.records, key
        assert (wide.generated_count, wide.rejected_count) == (narrow.generated_count, narrow.rejected_count)


def _plain_heap_loop(heap, release, service):
    """Kiefer-Wolfowitz as plainly as it reads: each request in turn takes the
    link free first, waiting for it if need be."""
    heap = sorted(heap)
    starts = []
    for at, busy in zip(release.tolist(), service.tolist()):
        start = max(heapq.heappop(heap), at)
        heapq.heappush(heap, start + busy)
        starts.append(start)
    return np.array(starts), sorted(heap)


def _peek_services(chain, n):
    """The services ``des._access`` will draw for ``n`` releases."""
    peek = np.random.Generator(np.random.PCG64())
    peek.bit_generator.state = chain.service.bit_generator.state
    return peek.standard_exponential(n) / chain.service_rate


def _pass_through_links(links, seed, passes):
    """Run ``passes``, pairs of a load and a clock to start no earlier than,
    through one chain's links and through the plain loop, and require the
    same bits of both."""
    rng = np.random.default_rng(seed)
    config = ChainConfig(1.0, 1.0, 0.0, 1.0, servers=links)
    chain = des._Chain("links", config, "event-driven", np.random.SeedSequence(seed), True, False)
    heap = list(chain.links)
    clock = 0.0
    for load, far in passes:
        n = int(rng.integers(1, 3001))
        service = _peek_services(chain, n)
        gaps = rng.exponential(0.5 / (load * links), n)
        gaps[rng.random(n) < 0.5] = 0.0
        gaps[0] = 0.0
        clock = max(clock, far)
        later = [free for free in heap if free >= clock]
        release = min(later, default=clock) + np.cumsum(gaps)  # the first on a free time
        for i in rng.integers(0, n, 8):
            end = release[i] + service[i]
            at = int(np.searchsorted(release, end))
            if at < n:
                release[at] = end
        starts = des._access(chain, release)
        expected, heap = _plain_heap_loop(heap, release, service)
        assert np.array_equal(starts, expected), (links, load, far)
        assert sorted(chain.links) == heap, (links, load, far)
        clock = release[-1]


@pytest.mark.parametrize("links", [*range(2, 20), 600, 4096])
def test_several_link_pass_equals_the_plain_heap_loop(links, monkeypatch):
    # Passes at loads from 0.05 to 1.3 of the links, up to 3000 releases,
    # carry their links from pass to pass, as a chain does between blocks.
    # Half the releases share their time with the one before, as a mined
    # block's do; the first of a pass equals a free time, and some equal an
    # earlier request's end.  A fresh chain then runs two passes at clocks
    # where some or all services round off.  At 4096 links every pass is
    # shorter than the links.  Start times and the final free times must be
    # bit-equal.  About 1 s for all 20 cases.
    calls = Counter()
    checked, looped = des._free_prefix, des._heap_loop

    def count_checks(heap, release, ends):
        calm, heap = checked(heap, release, ends)
        calls["calm"] += calm
        calls["waits"] += calm < release.size
        return calm, heap

    def count_loops(heap, release, service):
        calls["looped"] += release.size
        return looped(heap, release, service)

    monkeypatch.setattr(des, "_free_prefix", count_checks)
    monkeypatch.setattr(des, "_heap_loop", count_loops)
    loads = (0.05, 0.3, 0.8, 1.0, 1.3, 1.3, 0.5, 0.05, 0.05, 1.0, 0.05)
    _pass_through_links(links, links, [(load, 0.0) for load in loads])
    if links < 20:  # both ways through a pass were taken
        assert calls["calm"] and calls["waits"] and calls["looped"], calls
    _pass_through_links(links, links + 1000, [(0.8, 2.0**53), (0.8, 2.0**60)])


def test_argument_validation():
    with pytest.raises(ValueError):
        simulate_chain(BASE, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_chain(BASE, 100, seed=1, confirmation_mode="psychic")


@pytest.mark.parametrize("target", [True, 10.5])
def test_target_served_is_a_whole_count(target):
    # True once served one request and 10.5 served eleven.
    with pytest.raises(ValueError, match="target_served"):
        simulate_chain(BASE, target, seed=1)


# ------------------------------------------------------------- hierarchical


HIER = HierarchicalConfig(
    primary=ChainConfig(10.0, 200.0, 0.0, 10.0, servers=10, block_capacity=3),
    secondary=ChainConfig(2.5, 10.0, 0.0, 5.0, servers=1),
)


def test_end_to_end_decomposes_into_components():
    res = simulate_hierarchical(HIER, 5000, seed=13)
    b = res.breakdown
    assert b["e2e"].mean == pytest.approx(b["secondary"].mean + b["primary"].mean, rel=1e-9)
    assert b["e2e"].mean >= b["secondary"].mean
    assert b["e2e"].mean >= b["primary"].mean
    assert res.served_count == 5000
    assert res.served_count + res.rejected_count + res.in_flight_count == res.generated_count


def test_secondary_slower_than_well_provisioned_primary():
    res = simulate_hierarchical(HIER, 5000, seed=13)
    assert res.breakdown["secondary"].mean > res.breakdown["primary"].mean


def test_primary_carries_background_traffic():
    with_bg = simulate_hierarchical(HIER, 3000, seed=2, collect_records=True)
    assert any(
        rec.chain == "primary" and rec.origin_submitted_at is None for rec in with_bg.records
    )


def test_hierarchical_determinism():
    a = simulate_hierarchical(HIER, 2000, seed=31)
    b = simulate_hierarchical(HIER, 2000, seed=31)
    assert np.array_equal(a.latency_samples, b.latency_samples)


def test_hierarchical_trace_tags_both_chains():
    res = simulate_hierarchical(HIER, 800, seed=3, collect_records=True)
    chains = {rec.chain for rec in res.records}
    assert chains == {"primary", "secondary"}
    twins = [rec for rec in res.records if rec.origin_submitted_at is not None]
    assert twins and all(rec.chain == "primary" for rec in twins)


def test_hierarchical_rejections_on_both_chains():
    rejecting = HierarchicalConfig(
        primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3),
        secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, servers=1),
    )
    res = simulate_hierarchical(rejecting, 8000, seed=77, collect_records=True)
    rejected = [rec for rec in res.records if rec.disposition == "rejected"]
    at_secondary = sum(rec.chain == "secondary" for rec in rejected)
    at_primary = sum(rec.chain == "primary" and rec.origin_submitted_at is not None for rec in rejected)
    assert at_secondary > 0 and at_primary > 0
    assert res.rejected_count == at_secondary + at_primary
    assert res.served_count + res.rejected_count + res.in_flight_count == res.generated_count


def test_event_driven_confirmations_stall_on_a_quiet_chain():
    # blocks only mine while requests are pending, so counting real blocks
    # for confirmations stretches far beyond the additive estimate when the
    # chain is nearly idle: each further block first needs an arrival
    cfg = ChainConfig(0.05, 1.0, 0.0, 1.0, servers=1, confirmations=4)
    additive = simulate_chain(cfg, 3000, seed=5, confirmation_mode="additive")
    counted = simulate_chain(cfg, 3000, seed=5, confirmation_mode="event-driven")
    assert counted.mean > 3 * additive.mean


# ------------------------------------------------- against the reference loop


def _reference_grid():
    """k in {1, 3}; N = 1, or 3 in each mode; with and without rejection;
    s in {1, 10}; access and pool loads of 0.6 before rejection; then one
    hierarchy with rejection on both chains and N = 3, event-driven."""
    points = []
    for servers in (1, 10):
        for capacity in (1, 3):
            for rejecting in (False, True):
                arrival = 0.6 * servers
                mining = arrival / (0.6 * capacity)
                for confirmations, mode in ((1, "additive"), (3, "additive"), (3, "event-driven")):
                    config = ChainConfig(
                        arrival, mining, 0.5 * mining if rejecting else 0.0, 1.0, servers=servers,
                        block_capacity=capacity, rejection_batch=1 if capacity == 1 else 2,
                        confirmations=confirmations,
                    )
                    points.append((config, mode))
    hierarchy = HierarchicalConfig(
        primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3, confirmations=3),
        secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, confirmations=3),
    )
    return points + [(hierarchy, "event-driven")]


def test_engine_agrees_with_the_reference_event_loop():
    # The engine and the event loop it replaced simulate one model from
    # independent streams.  Each of the 25 points compares their means at
    # 2e4 served, in units of the two 95% half-widths combined, under a Sidak
    # share of a family-wise alpha of 0.01 (about 1.94).  Grid, seeds and
    # rule were fixed before the engine's first run.  About 3 s.
    grid = _reference_grid()
    bound = gates.half_width_bound(len(grid))
    master = 20261021
    gaps = {}
    for index, (config, mode) in enumerate(grid):
        hierarchical = isinstance(config, HierarchicalConfig)
        engine = simulate_hierarchical if hierarchical else simulate_chain
        reference = des_reference.simulate_hierarchical if hierarchical else des_reference.simulate_chain
        new = engine(config, 20_000, master + index, mode)
        old = reference(config, 20_000, master + index, mode)
        half = [(hi - lo) / 2 for lo, hi in (new.confidence_interval_95, old.confidence_interval_95)]
        gaps[index] = abs(new.mean - old.mean) / math.hypot(*half)
    worst = gates.assert_family(gaps, bound, "half-widths")
    print(f"reference agreement: {len(grid)} points at 2e4 served, worst {worst:.2f} of {bound:.2f}")
