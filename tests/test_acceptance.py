"""Acceptance gate: one test per release criterion, each printing a verdict.

Stochastic criteria (Monte Carlo vs analytic, simulator vs solver) run with
frozen master seeds; the determinism contracts of both engines make the
checks reproducible, and the seeds were fixed once in advance.
"""

import math
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import stdtrit

from branlab.attack import (
    AttackParams,
    attack_success,
    attack_success_closed,
    attack_success_montecarlo,
    catch_up_probability,
)
from branlab.config import ChainConfig, ConfigValidationError, validate, with_intensity
from branlab.des import simulate_chain
from branlab.markov import (
    build_generator,
    enumerate_states,
    latency,
    solve_steady_state,
)
from branlab.queueing import closed_form_latency, erlang_c
from branlab.scenarios import evaluate, parse_scenario, preset_specs, run_scenario


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_attack_closed_form_equals_direct_sum():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for confs in (1, 3, 6):
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for giveup in range(confs + 1, 13):
                params = AttackParams(confs, beta, giveup)
                diff = abs(
                    attack_success_closed(params).probability
                    - attack_success(params).probability
                )
                worst = max(worst, diff)
                points += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report("1", f"closed==direct on {points} points, worst {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_attack_direct_sum_vs_monte_carlo():
    start = time.perf_counter()
    master = 401
    grid = [(n, b, g) for n in (1, 3, 6) for b in (0.1, 0.5, 1.0) for g in (2, 6, 12)]
    assert len(grid) == 27
    assert any(g <= n for n, _, g in grid)  # give-up at or below the depth included
    worst_sigma = 0.0
    for index, (confs, beta, giveup) in enumerate(grid):
        params = AttackParams(confs, beta, giveup)
        exact = attack_success(params).probability
        mc = attack_success_montecarlo(params, 1_000_000, seed=master * 1000 + index)
        bound = 3 * mc.std_error if mc.std_error > 0 else 3e-6
        assert abs(mc.probability - exact) <= bound, (confs, beta, giveup)
        if mc.std_error > 0:
            worst_sigma = max(worst_sigma, abs(mc.probability - exact) / mc.std_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("2", f"27 points at 1e6 trials, worst {worst_sigma:.2f} sigma, {elapsed:.1f}s")


def test_criterion_03_low_power_attack_datum():
    rows = evaluate(preset_specs("fig10"))
    series = defaultdict(dict)
    for row in rows:
        key = (row["confirmations"], row["attack_giveup_threshold"])
        series[key][row["attack_relative_power"]] = row["attack_probability"]
    betas = sorted(next(iter(series.values())))
    smallest = betas[0]
    assert 0.05 <= smallest <= 0.1
    for giveup in (4, 8):
        value = series[(3, giveup)][smallest]
        assert 1e-4 <= value <= 1e-2, value
        for beta in betas:
            if beta < 1.0:
                assert series[(3, giveup)][beta] < series[(1, giveup)][beta]
    # every curve rises toward comparable mining power
    for key, curve in series.items():
        ordered = [curve[b] for b in betas]
        assert all(a < b for a, b in zip(ordered, ordered[1:])), key
    assert series[(1, 8)][1.0] > 0.8
    report(
        "3",
        f"n=3 at beta={smallest}: "
        + ", ".join(f"Ng={g}: {series[(3, g)][smallest]:.2e}" for g in (4, 8))
        + "; n=3 curve below n=1 for all beta<1",
    )


def test_criterion_04_solver_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    # single-request blocks decouple exactly, with or without rejection
    for share in (0.0, 0.1, 0.5):
        for servers in (1, 5, 10):
            for rho in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
                for confs in (1, 4):
                    mining = 1.25 * servers
                    cfg = with_intensity(
                        ChainConfig(0.1, mining, share * mining, 1.0,
                                    servers=servers, confirmations=confs),
                        rho,
                    )
                    reference = closed_form_latency(cfg).total
                    rel = abs(latency(cfg) - reference) / reference
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 0.02
    assert elapsed < 60.0
    report("4", f"{checked} decoupled-tandem configs, worst rel dev {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_sparse_solver_vs_dense_oracle():
    rng = np.random.default_rng(20240805)
    checked = 0
    worst = 0.0
    while checked < 10:
        i_max = int(rng.integers(3, 13))
        j_max = int(rng.integers(3, 13))
        if (i_max + 1) * (j_max + 1) > 200:
            continue
        capacity = int(rng.integers(1, 4))
        cfg = ChainConfig(
            arrival_rate=float(rng.uniform(0.1, 0.9)),
            mining_rate=float(rng.uniform(1.0, 4.0)),
            rejection_rate=float(rng.uniform(0.0, 0.5)),
            service_rate=float(rng.uniform(0.8, 2.0)),
            servers=int(rng.integers(1, 4)),
            block_capacity=capacity,
            rejection_batch=int(rng.integers(1, capacity + 1)),
        )
        try:
            validate(cfg)
        except ConfigValidationError:
            continue
        q = build_generator(cfg, enumerate_states(i_max, j_max))
        got = solve_steady_state(q).probabilities
        stacked = np.vstack([q.matrix.toarray(), np.ones(q.dimension)])
        rhs = np.zeros(q.dimension + 1)
        rhs[-1] = 1.0
        expected, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        dev = float(np.max(np.abs(got - expected)))
        assert dev <= 1e-8
        worst = max(worst, dev)
        checked += 1
    report("5", f"10 random configs <=200 states, worst entrywise dev {worst:.1e}")


def _agreement_grid() -> list[ChainConfig]:
    configs = []
    for capacity in (1, 3, 6):
        for rho in (0.2, 0.5, 0.8):
            configs.append(
                with_intensity(
                    ChainConfig(0.1, 2.5, 0.0, 1.0, servers=1, block_capacity=capacity),
                    rho,
                )
            )
    configs.append(with_intensity(ChainConfig(0.1, 10.0, 0.0, 1.0, servers=5), 0.5))
    configs.append(
        with_intensity(ChainConfig(0.1, 4.0, 0.0, 1.0, servers=10, block_capacity=3), 0.5)
    )
    configs.append(
        with_intensity(ChainConfig(0.1, 4.0, 0.0, 1.0, servers=10, block_capacity=6), 0.8)
    )
    return configs


def test_criterion_06_simulator_agrees_with_solver():
    start = time.perf_counter()
    master = 20240811
    for index, cfg in enumerate(_agreement_grid()):
        reference = latency(cfg)
        sim = simulate_chain(cfg, 100_000, seed=master + index)
        lo, hi = sim.confidence_interval_95
        assert lo <= reference <= hi, (index, cfg, reference, (lo, hi))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report("6", f"12 configs at 1e5 served requests, all 95% CIs cover, {elapsed:.1f}s")


def test_simulator_agrees_with_solver_under_rejection():
    # Served-request latency with rejection, and with N > 1 on top.  Four
    # points share one gate, so each gets a Sidak share of a family-wise
    # alpha of 0.01, read off the 31-df t law of the 32 batch means and
    # expressed in 95% half-widths: about 1.61.
    alpha = 1.0 - 0.99 ** (1 / 4)
    bound = stdtrit(31, 1.0 - alpha / 2) / stdtrit(31, 0.975)
    assert bound == pytest.approx(1.61, abs=0.005)
    configs = [
        ChainConfig(0.5, 2.5, 0.25, 1.0, servers=1, block_capacity=3),
        ChainConfig(0.8, 2.5, 0.5, 1.0, servers=1),
        ChainConfig(0.8, 1.0, 0.5, 1.0, servers=1, block_capacity=3, rejection_batch=3),
        ChainConfig(0.5, 2.5, 0.25, 1.0, servers=1, block_capacity=3, confirmations=4),
    ]
    master = 20261018
    worst = 0.0
    for index, cfg in enumerate(configs):
        reference = latency(cfg)
        sim = simulate_chain(cfg, 100_000, seed=master + index)
        lo, hi = sim.confidence_interval_95
        gap = abs(sim.mean - reference) / ((hi - lo) / 2)
        assert gap <= bound, (index, cfg, reference, sim.mean, (lo, hi))
        worst = max(worst, gap)
    print(f"rejection agreement: 4 configs at 1e5 served, worst {worst:.2f} of {bound:.2f} half-widths")


def test_criterion_07_structural_invariants():
    cfg = ChainConfig(0.7, 2.0, 0.3, 1.0, servers=3, block_capacity=2)
    q = build_generator(cfg, enumerate_states(24, 24))
    assert float(np.max(np.abs(q.matrix.sum(axis=0)))) <= 1e-12

    dist = solve_steady_state(q)
    assert abs(float(dist.probabilities.sum()) - 1.0) <= 1e-10

    base = ChainConfig(0.6, 2.5, 0.1, 1.0, servers=2, block_capacity=3)
    for confs in (2, 4, 7):
        diff = latency(replace(base, confirmations=confs)) - latency(base)
        assert diff == pytest.approx((confs - 1) / base.mining_rate, rel=1e-13, abs=1e-13)

    for load in (0.0, 0.25, 0.5, 0.9, 0.999):
        assert abs(erlang_c(1, load) - load) <= 1e-12

    for beta in (0.2, 1.0, 3.0):
        params = AttackParams(2, beta, 6)
        assert catch_up_probability(-1, params) == 1.0
        assert catch_up_probability(6, params) == 0.0
        for deficit in range(0, 6):
            residual = catch_up_probability(deficit, params) - (
                catch_up_probability(deficit + 1, params)
                + beta * catch_up_probability(deficit - 1, params)
            ) / (1.0 + beta)
            assert abs(residual) <= 1e-12
    report("7", "generator, normalisation, additivity, delay probability, ruin recursion")


def test_criterion_08_figure_trends():
    start = time.perf_counter()

    rows = evaluate(preset_specs("fig6"))
    series: dict = defaultdict(dict)
    for row in rows:
        series[(round(row["intensity"], 3), row["block_capacity"])][row["confirmations"]] = row["latency"]
    for values in series.values():
        ordered = [values[n] for n in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    for confs in range(1, 9):
        assert series[(0.8, 6)][confs] <= series[(0.8, 1)][confs]
        low = [series[(0.2, capacity)][confs] for capacity in (1, 3, 6)]
        assert max(low) <= 1.05 * min(low)

    rows = evaluate(preset_specs("fig8"))
    by_rho: dict = defaultdict(dict)
    for row in rows:
        by_rho[round(row["intensity"], 3)][row["block_capacity"]] = row["latency"]
    for rho, values in by_rho.items():
        if rho <= 0.5:
            assert max(values.values()) <= 1.05 * min(values.values()), rho
    heavy = by_rho[0.8]
    assert heavy[1] > heavy[3] > heavy[6]

    rows = sorted(evaluate(preset_specs("fig9")), key=lambda r: r["point_index"])
    secondary = [row["secondary_latency"] for row in rows]
    end_to_end = [row["e2e_latency"] for row in rows]
    assert secondary[0] < secondary[1] < secondary[2]
    assert end_to_end[0] < end_to_end[1] < end_to_end[2]
    for a in range(3):
        for b in range(a + 1, 3):
            gap = abs(rows[a]["primary_latency"] - rows[b]["primary_latency"])
            budget = (
                (rows[a]["primary_ci_high"] - rows[a]["primary_ci_low"]) / 2
                + (rows[b]["primary_ci_high"] - rows[b]["primary_ci_low"]) / 2
            )
            assert gap <= budget

    rows = evaluate(preset_specs("fig12"))
    frontier: dict = defaultdict(dict)
    for row in rows:
        frontier[(row["servers"], row["block_capacity"])][row["confirmations"]] = (
            row["latency"], row["attack_probability"],
        )
    for values in frontier.values():
        for confs in range(1, 6):
            assert values[confs][0] < values[confs + 1][0]
            assert values[confs][1] > values[confs + 1][1]
    for confs in range(1, 7):
        assert frontier[(25, 3)][confs][0] < frontier[(10, 1)][confs][0]
        assert frontier[(25, 3)][confs][1] < frontier[(10, 1)][confs][1]

    elapsed = time.perf_counter() - start
    report("8", f"fig6, fig8, fig9, fig12 qualitative trends reproduced, {elapsed:.1f}s")


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    simulation = parse_scenario(
        {
            "schema_version": 1,
            "name": "determinism",
            "engine": "simulation",
            "base": {
                "arrival_rate": 0.5, "mining_rate": 2.5, "rejection_rate": 0.1,
                "service_rate": 1.0, "servers": 1, "block_capacity": 3,
                "rejection_batch": 1, "confirmations": 2,
            },
            "sweep": [{"path": "intensity", "values": [0.3, 0.6]}],
            "replication": {"seed": 31, "target_served": 3000},
        }
    )
    attack = parse_scenario(
        {
            "schema_version": 1,
            "name": "determinism-attack",
            "engine": "attack",
            "base": {
                "arrival_rate": 0.5, "mining_rate": 1.0, "rejection_rate": 0.0,
                "service_rate": 1.0, "servers": 1, "block_capacity": 1,
                "rejection_batch": 1, "confirmations": 2,
            },
            "sweep": [{"path": "attack.relative_power", "values": [0.2, 0.5]}],
            "attack": {"relative_power": 0.5, "giveup_threshold": 6, "method": "monte-carlo"},
            "replication": {"seed": 5, "trials": 200_000},
        }
    )
    for label, spec in (("simulation", simulation), ("attack", attack)):
        first = tmp_path / f"{label}-1.csv"
        second = tmp_path / f"{label}-2.csv"
        run_scenario(spec, first)
        run_scenario(spec, second)
        assert first.read_bytes() == second.read_bytes(), label
    report("9", "simulation and attack sweeps re-run byte-identically")
