import gc
import math
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

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
import branlab
from branlab.des import (
    RequestRecord,
    SimulationUnstableError,
    _stats,
    simulate_chain,
    simulate_hierarchical,
    write_trace_csv,
)
from branlab.markov import latency


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
    # One mined block releases up to k requests in one event; those beyond
    # the target must stay in flight.  The hierarchy shares the stop rule,
    # counting end-user requests as they start primary service (fig11's
    # 8-link point).
    cfg = ChainConfig(8.0, 12.5, 0.0, 1.0, servers=10, block_capacity=3)
    hier = HierarchicalConfig(
        primary=ChainConfig(10.0, 200.0, 0.0, 10.0, servers=10, block_capacity=3),
        secondary=ChainConfig(3.2, 4.0, 0.0, 1.0, servers=8),
    )
    for seed in range(40):
        chain = simulate_chain(cfg, 2000, seed=seed)
        hierarchical = simulate_hierarchical(hier, 2000, seed=seed)
        for res in (chain, hierarchical):
            assert res.served_count == 2000, seed
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


def test_single_queue_waiting_time_oracle():
    # transparent mining turns the system into one memoryless single-server
    # queue; the recorded latency is its waiting time lam / (mu (mu - lam))
    cfg = ChainConfig(0.5, 200.0, 0.0, 1.0, servers=1)
    res = simulate_chain(cfg, 50_000, seed=42)
    expected = 0.5 / (1.0 * (1.0 - 0.5)) + 1.0 / 200.0
    lo, hi = res.confidence_interval_95
    assert lo <= expected <= hi


def test_empty_system_confirmation_delay():
    cfg = ChainConfig(0.001, 1.0, 0.0, 1.0, servers=5, confirmations=4)
    res = simulate_chain(cfg, 4000, seed=9)
    lo, hi = res.confidence_interval_95
    # almost no queueing: latency is one inclusion wait plus three more blocks
    assert lo <= 4.0 <= hi


def test_additive_equals_event_driven_for_single_confirmation():
    a = simulate_chain(BASE, 4000, seed=21, confirmation_mode="additive")
    b = simulate_chain(BASE, 4000, seed=21, confirmation_mode="event-driven")
    assert np.array_equal(a.latency_samples, b.latency_samples)


def test_event_driven_mode_differs_with_more_confirmations():
    cfg = ChainConfig(0.8, 2.5, 0.0, 1.0, servers=1, block_capacity=3, confirmations=4)
    a = simulate_chain(cfg, 4000, seed=21, confirmation_mode="additive")
    b = simulate_chain(cfg, 4000, seed=21, confirmation_mode="event-driven")
    assert a.mean != b.mean


def test_simulated_mean_matches_solver():
    cfg = with_intensity(ChainConfig(0.1, 2.5, 0.0, 1.0, servers=1, block_capacity=3), 0.5)
    res = simulate_chain(cfg, 30_000, seed=4)
    lo, hi = res.confidence_interval_95
    assert lo <= latency(cfg) <= hi


def test_pending_pool_follows_its_exact_law():
    # The pool alone is a bulk-service queue with batch rejections whose
    # stationary law is geometric in z0 (config.pending_root), so the
    # simulator's pool is checked without the solver: the mean pool time of
    # mined requests against z0 / (R_a (1 - z0)), and the rejected share of
    # the requests that left the pool against 1 - served_rate / R_a.  Eight
    # comparisons share one Sidak gate at a family-wise alpha of 0.01, in
    # batch-means 95% half-widths.
    alpha = 1.0 - 0.99 ** (1 / 8)
    bound = stdtrit(31, 1.0 - alpha / 2) / stdtrit(31, 0.975)
    configs = [
        ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3),
        ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=1),
        ChainConfig(0.5, 2.5, 0.25, 1.0, block_capacity=3),
        ChainConfig(4.0, 2.0, 1.0, 1.0, servers=5, block_capacity=3, rejection_batch=2),
    ]
    master = 1954
    for index, cfg in enumerate(configs):
        records = simulate_chain(cfg, 50_000, seed=master + index, collect_records=True).records
        kept = records[len(records) // 10:]
        pool_times = [rec.mined_at - rec.submitted_at for rec in kept if rec.mined_at is not None]
        rejected = [rec.disposition == "rejected" for rec in kept
                    if rec.mined_at is not None or rec.disposition == "rejected"]
        z0 = pending_root(cfg)
        exact = {
            "pool time": (pool_times, z0 / (cfg.arrival_rate * (1.0 - z0))),
            "rejected share": (rejected, 1.0 - served_rate(cfg) / cfg.arrival_rate),
        }
        for name, (samples, reference) in exact.items():
            stats = _stats(samples)
            lo, hi = stats.confidence_interval_95
            gap = abs(stats.mean - reference) / ((hi - lo) / 2)
            assert gap <= bound, (index, name, reference, stats.mean, (lo, hi))


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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import; the simulator needs
    # only one t quantile, which scipy.special provides.  scipy.optimize
    # adds about a fifth of a second; the pending-stage root is a short
    # Newton iteration instead.
    code = (
        "import sys, scipy.sparse.linalg\n"
        "before = set(sys.modules)\n"
        "import branlab\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(branlab.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


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


def test_runaway_pending_pool_raises():
    # a valid chain whose mining stage runs at utilisation 0.99 soon holds
    # more than 20 pending requests
    cfg = ChainConfig(0.99, 1.0, 0.0, 1.0, servers=4)
    with pytest.raises(SimulationUnstableError):
        simulate_chain(cfg, 10**9, seed=1, max_pending=20)


def test_runs_leave_no_reference_cycles():
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

    gc.collect()
    gc.disable()
    try:
        simulate_chain(BASE, 2000, seed=1)
        simulate_hierarchical(HIER, 1000, seed=1)
        with pytest.raises(SimulationUnstableError):
            simulate_chain(ChainConfig(0.99, 1.0, 0.0, 1.0, servers=4), 10**9, seed=1, max_pending=20)
        assert des_objects_in_cyclic_garbage() == []
    finally:
        gc.enable()


# Seeded outputs pinned before the event loop was rewritten for speed.  A
# changed draw order moves a mean or a sample by far more than 1e-12
# relative; a last-ulp libm difference between machines does not.
_PINNED_CHAINS = {
    "single": ChainConfig(0.8, 2.5, 0.0, 1.0),
    "ten-links": ChainConfig(8.0, 12.5, 0.0, 1.0, servers=10, block_capacity=3),
    "rejecting": ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3),
    "three-confirmations": ChainConfig(0.8, 2.5, 0.0, 1.0, block_capacity=3, confirmations=3),
    "busy-links": ChainConfig(3.6, 500.0, 0.0, 1.0, servers=4),  # requests queue for links
}
# (served, rejected, generated, records, mean, first sample, last sample)
_PINNED = {
    ("single", "additive"): (4000, 0, 4002, None, 5.5596493049211295, 0.18030588358476507, 0.3954904102974979),
    ("single", "event-driven"): (4000, 0, 4002, None, 5.5596493049211295, 0.18030588358476507, 0.3954904102974979),
    ("ten-links", "additive"): (4000, 0, 4000, None, 0.22879669281457324, 0.052863792999033876, 0.0815334469863842),
    ("ten-links", "event-driven"): (4000, 0, 4000, None, 0.22879669281457324, 0.052863792999033876, 0.0815334469863842),
    ("rejecting", "additive"): (4000, 2109, 6110, None, 2.252597672677997, 0.8305006179340353, 3.1620721088565915),
    ("rejecting", "event-driven"): (4000, 2109, 6110, None, 2.252597672677997, 0.8305006179340353, 3.1620721088565915),
    ("three-confirmations", "additive"): (4000, 0, 4009, None, 4.90119895991679, 12.702707669481526, 7.827748520810019),
    ("three-confirmations", "event-driven"): (4000, 0, 4024, None, 7.536558157810613, 6.042700840285534, 12.442406383266643),
    ("busy-links", "additive"): (4000, 0, 4021, None, 1.693671683255062, 1.3772928790103975, 3.5884611477117687),
    ("hierarchy", "additive"): (4000, 647, 4648, 22806, 0.29230769189183153, 0.6462912838666739, 0.6251155163195108),
}


@pytest.mark.parametrize("name, mode", list(_PINNED))
def test_seeded_output_is_pinned(name, mode):
    if name == "hierarchy":
        hier = HierarchicalConfig(
            primary=ChainConfig(6.0, 50.0, 2.0, 4.0, servers=4, block_capacity=3),
            secondary=ChainConfig(2.0, 8.0, 1.0, 5.0, servers=1),
        )
        res = simulate_hierarchical(hier, 4000, seed=2026, confirmation_mode=mode, collect_records=True)
    else:
        res = simulate_chain(_PINNED_CHAINS[name], 4000, seed=2026, confirmation_mode=mode)
    *counts, mean, first, last = _PINNED[name, mode]
    records = None if res.records is None else len(res.records)
    assert [res.served_count, res.rejected_count, res.generated_count, records] == counts
    assert res.mean == pytest.approx(mean, rel=1e-12)
    assert res.latency_samples[0] == pytest.approx(first, rel=1e-12)
    assert res.latency_samples[-1] == pytest.approx(last, rel=1e-12)


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


@pytest.mark.parametrize("max_pending", [0, True, 2.5])
def test_max_pending_below_one_is_rejected(max_pending):
    # Each used to report a stable chain as unable to drain its arrivals.
    with pytest.raises(ValueError, match="max_pending"):
        simulate_chain(BASE, 100, seed=1, max_pending=max_pending)


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
