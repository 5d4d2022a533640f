import math
import random
import time
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, strategies as st

import branlab
from branlab import attack
from branlab.attack import (
    _DEFAULT_CHUNK,
    AttackParams,
    ClosedFormRangeError,
    attack_success,
    attack_success_closed,
    attack_success_montecarlo,
    catch_up_probability,
    negbin_pmf,
)


def walk_oracle(deficit: int, beta: float, giveup: int, trials: int, seed: int) -> float:
    """Plain random-walk oracle for the catch-up probability."""
    rng = random.Random(seed)
    p_attacker = beta / (1.0 + beta)
    wins = 0
    for _ in range(trials):
        z = deficit
        while 0 <= z < giveup:
            z += -1 if rng.random() < p_attacker else 1
        wins += z < 0
    return wins / trials


# ------------------------------------------------------------ pre-mining pmf


def test_pmf_hand_values():
    assert negbin_pmf(0, 3, 1.0) == pytest.approx(0.125, abs=1e-15)
    # direct binomial evaluation: C(3,2) (1/2)^2 (1/2)^2 = 3/16
    assert negbin_pmf(2, 2, 1.0) == pytest.approx(3 / 16, abs=1e-15)


@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("confs", [1, 3, 6])
def test_pmf_normalises(confs, beta):
    total, n = 0.0, 0
    while total < 1.0 - 1e-15 and n < 10_000:
        total += negbin_pmf(n, confs, beta)
        n += 1
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_survives_large_counts():
    val = negbin_pmf(400, 200, 0.9)
    assert 0.0 <= val < 1.0 and math.isfinite(val)


# ------------------------------------------------------------------ catch-up


def test_boundary_cases_are_exact():
    for beta in (0.3, 1.0, 2.5):
        params = AttackParams(2, beta, 5)
        assert catch_up_probability(-1, params) == 1.0
        assert catch_up_probability(5, params) == 0.0
        assert catch_up_probability(9, params) == 0.0


def test_even_race_hand_value():
    assert catch_up_probability(1, AttackParams(1, 1.0, 4)) == pytest.approx(3 / 5)


def test_catch_up_frozen_value_and_walk_oracle():
    params = AttackParams(1, 0.5, 4)
    exact = catch_up_probability(1, params)
    assert exact == pytest.approx(7 / 31, abs=1e-15)
    trials = 200_000
    estimate = walk_oracle(1, 0.5, 4, trials, seed=1234)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(estimate - exact) <= 3 * se


@given(
    beta=st.floats(0.05, 3.0),
    giveup=st.integers(1, 12),
    deficit=st.integers(0, 11),
)
def test_first_step_recursion(beta, giveup, deficit):
    if deficit >= giveup:
        return
    params = AttackParams(1, beta, giveup)
    lhs = catch_up_probability(deficit, params)
    rhs = (
        catch_up_probability(deficit + 1, params)
        + beta * catch_up_probability(deficit - 1, params)
    ) / (1.0 + beta)
    assert abs(lhs - rhs) <= 1e-12


def test_near_even_race_is_stable():
    almost = catch_up_probability(2, AttackParams(1, 1.0 - 1e-12, 6))
    even = catch_up_probability(2, AttackParams(1, 1.0, 6))
    assert almost == pytest.approx(even, rel=1e-6)


# ---------------------------------------------------------------- direct sum


def test_powerless_attacker():
    assert attack_success(AttackParams(1, 1e-9, 5)).probability < 1e-8


def test_patient_equal_power_attacker_approaches_certainty():
    res = attack_success(AttackParams(1, 1.0, 1000))
    assert res.probability > 0.99
    assert res.std_error == 0.0


def test_direct_sum_handles_giveup_below_confirmations():
    res = attack_success(AttackParams(6, 0.5, 2))
    assert 0.0 < res.probability < 1.0


# ---------------------------------------------------------------- closed form


def test_even_power_hand_value():
    # 1 - [2^-1 (2/7) + 2^-2 (1/7)] = 23/28
    res = attack_success_closed(AttackParams(1, 1.0, 6))
    assert res.probability == pytest.approx(23 / 28, abs=1e-15)


@pytest.mark.parametrize("args", [(True, 0.5, 4), (1, 0.5, True)])
def test_booleans_are_not_counts(args):
    with pytest.raises(ValueError, match="must be an integer >= 1, got True"):
        AttackParams(*args)


def test_boolean_is_not_a_relative_power():
    with pytest.raises(ValueError, match="relative_power must be finite and > 0, got True"):
        AttackParams(1, True, 4)


def test_closed_equals_direct_on_domain():
    for confs in (1, 3, 6):
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for giveup in range(confs + 1, 13):
                params = AttackParams(confs, beta, giveup)
                d = attack_success(params).probability
                c = attack_success_closed(params).probability
                assert abs(d - c) <= 1e-12


def test_one_analytic_path():
    assert attack.attack_success_direct is attack.attack_success
    assert attack_success(AttackParams(3, 0.5, 4)).method == "direct-sum"
    assert not {"attack_success_closed", "attack_success_direct"} & set(dir(branlab))


def test_closed_form_guard():
    with pytest.raises(ClosedFormRangeError, match="use attack_success"):
        attack_success_closed(AttackParams(3, 0.5, 3))


def exact_success(confs: int, beta: Fraction, giveup: int) -> Fraction:
    """The mixture in rational arithmetic: head terms plus ``1 - P(n <= N)``."""
    p_honest, p_attacker = 1 / (1 + beta), beta / (1 + beta)
    pmf = [math.comb(n + confs - 1, n) * p_honest**confs * p_attacker**n
           for n in range(confs + 1)]

    def catch_up(deficit):
        if deficit >= giveup:
            return Fraction(0)
        if beta == 1:
            return Fraction(giveup - deficit, giveup + 1)
        return (beta ** (deficit + 1) - beta ** (giveup + 1)) / (1 - beta ** (giveup + 1))

    head = sum(w * catch_up(confs - n) for n, w in enumerate(pmf))
    return head + 1 - sum(pmf)


def test_relative_precision_against_exact_sums():
    # Grid fixed before the first run; exact values reach about 1e-42.
    worst = 0.0
    points = set()
    for confs in (1, 2, 3, 6, 8, 11, 16):
        for beta in (1e-3, 0.01, 0.05, 0.3, 1.0, 3.0):
            for giveup in (1, confs, confs + 1, 2 * confs + 8):
                points.add((confs, beta, giveup))
    for confs, beta, giveup in sorted(points):
        got = attack_success(AttackParams(confs, beta, giveup)).probability
        exact = exact_success(confs, Fraction(beta), giveup)
        assert got >= 0.0, (confs, beta, giveup, got)
        worst = max(worst, float(abs(Fraction(got) - exact) / exact))
    assert len(points) == 162
    assert worst <= 1e-12


@pytest.mark.parametrize("beta", [0.3, 0.9, 1.0, 3.0])
@pytest.mark.parametrize("confs", [40, 100])
def test_binomial_tail_against_exact_sums(confs, beta):
    # With giveup 0 every head term of exact_success is zero, leaving the tail.
    tail = math.fsum(attack._tail_terms(confs, beta))
    exact = exact_success(confs, Fraction(beta), 0)
    assert float(abs(Fraction(tail) - exact) / exact) <= 1e-12
    got = attack_success(AttackParams(confs, beta, confs + 1)).probability
    exact = exact_success(confs, Fraction(beta), confs + 1)
    assert float(abs(Fraction(got) - exact) / exact) <= 1e-12


@given(
    confs=st.integers(1, 300),
    beta=st.floats(-3.0, 1.0).map(lambda exponent: 10.0**exponent),
    giveup=st.integers(1, 60),
)
def test_direct_sum_is_the_sum_of_its_listed_terms(confs, beta, giveup):
    # The terms are summed as they are made; fsum of them listed is the reference.
    params = AttackParams(confs, beta, giveup)
    head = [
        negbin_pmf(n, confs, beta) * catch_up_probability(confs - n, params)
        for n in range(confs + 1)
    ]
    tail = list(attack._tail_terms(confs, beta))
    assert attack_success(params).probability == min(1.0, math.fsum([*head, *tail]))


@pytest.mark.parametrize("beta", [0.9, 1.0])
def test_binomial_tail_at_large_depth(beta):
    # x**j alone underflows at j = 5000 for x = beta / (1 + beta) <= 1/2.
    from scipy.special import betainc

    confs = 5000
    tail = math.fsum(attack._tail_terms(confs, beta))
    assert tail == pytest.approx(betainc(confs + 1, confs, beta / (1.0 + beta)), rel=1e-10, abs=0.0)


def test_probability_bounds_and_monotonicity():
    grid_beta = (0.1, 0.4, 0.7, 1.0)
    grid_conf = (1, 2, 4, 6)
    grid_giveup = (1, 3, 6, 12)
    values = {}
    for b in grid_beta:
        for n in grid_conf:
            for g in grid_giveup:
                p = attack_success(AttackParams(n, b, g)).probability
                assert 0.0 <= p <= 1.0
                values[(b, n, g)] = p
    for n in grid_conf:
        for g in grid_giveup:
            series = [values[(b, n, g)] for b in grid_beta]
            assert all(x <= y + 1e-15 for x, y in zip(series, series[1:]))
    for b in grid_beta:
        for n in grid_conf:
            series = [values[(b, n, g)] for g in grid_giveup]
            assert all(x <= y + 1e-15 for x, y in zip(series, series[1:]))
    # extra confirmations help the defender whenever the give-up bound allows
    # any race at all; see the Ng=1 regression below for the exception
    for b in grid_beta:
        for g in grid_giveup:
            if g < 2:
                continue
            series = [values[(b, n, g)] for n in grid_conf]
            assert all(x >= y - 1e-15 for x, y in zip(series, series[1:]))


def test_hair_trigger_giveup_breaks_confirmation_monotonicity():
    # with Ng=1 a near-equal attacker gains from a longer pre-mining window:
    # S(1)=3/8 < S(2)=13/32, both by hand enumeration of the mixture
    assert attack_success(AttackParams(1, 1.0, 1)).probability == pytest.approx(3 / 8)
    assert attack_success(AttackParams(2, 1.0, 1)).probability == pytest.approx(13 / 32)


# --------------------------------------------------------------- Monte Carlo


def test_zero_power_attacker_never_wins():
    params = AttackParams.__new__(AttackParams)  # bypass beta > 0 check
    object.__setattr__(params, "confirmations", 2)
    object.__setattr__(params, "relative_power", 0.0)
    object.__setattr__(params, "giveup_threshold", 4)
    res = attack_success_montecarlo(params, 10_000, seed=5)
    assert res.probability == 0.0


def test_fixed_seed_reproducibility():
    params = AttackParams(2, 0.4, 6)
    a = attack_success_montecarlo(params, 300_000, seed=77)
    b = attack_success_montecarlo(params, 300_000, seed=77)
    assert a == b
    c = attack_success_montecarlo(params, 300_000, seed=78)
    assert c.probability != a.probability


def test_partition_prefix_stability():
    # the first partition's trials are untouched when more are appended
    params = AttackParams(1, 0.5, 6)
    chunk = _DEFAULT_CHUNK
    small = attack_success_montecarlo(params, chunk, seed=9)
    big = attack_success_montecarlo(params, 2 * chunk, seed=9)
    wins_small = round(small.probability * chunk)
    wins_big = round(big.probability * 2 * chunk)
    assert 0 <= wins_big - wins_small <= chunk


def int64_walk(params: AttackParams, trials: int, seed: int) -> float:
    """Reference Monte Carlo walk that steps each trial on its own, in int64.

    It draws the same pre-mining counts as :func:`attack_success_montecarlo`
    but walks them on other draws of the same streams, so the two estimates
    agree in law, not bit for bit."""
    n_conf, beta, n_g = params.confirmations, params.relative_power, params.giveup_threshold
    p_honest = 1.0 / (1.0 + beta)
    attacker_step = beta / (1.0 + beta)
    wins = 0
    for part, start in enumerate(range(0, trials, _DEFAULT_CHUNK)):
        size = min(_DEFAULT_CHUNK, trials - start)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(part,)))
        )
        pre_mined = rng.negative_binomial(n_conf, p_honest, size=size)
        deficit = n_conf - pre_mined.astype(np.int64)
        wins += int(np.count_nonzero(deficit < 0))
        active = deficit[(deficit >= 0) & (deficit < n_g)]
        while active.size:
            steps = rng.random(active.size) < attacker_step
            active = active + np.where(steps, -1, 1)
            wins += int(np.count_nonzero(active < 0))
            active = active[(active >= 0) & (active < n_g)]
    return wins / trials


# The eight cases share one gate: each gets a Sidak share of a family-wise
# alpha of 0.01, two-sided normal, about 3.23 combined standard errors.  Both
# estimates start from the same pre-mining counts, which correlates them
# positively, so the hypot of the two standard errors overstates the spread
# of their difference and the gate errs on the lenient side of its alpha.
_REFERENCE_Z = NormalDist().inv_cdf(1.0 - (1.0 - 0.99 ** (1 / 8)) / 2)


@pytest.mark.parametrize(
    "confs, beta, giveup, trials",
    [
        (2, 0.9, 1, 5_000),
        (2, 0.9, 4, _DEFAULT_CHUNK + 3_000),  # two partitions
        (3, 0.3, 126, 10_000),
        (3, 0.3, 127, 10_000),
        (3, 0.3, 128, 10_000),
        (3, 0.3, 255, 10_000),
        (3, 0.3, 256, 10_000),
        (3, 0.3, 300, 10_000),
    ],
)
def test_monte_carlo_matches_the_int64_walk(confs, beta, giveup, trials):
    assert _REFERENCE_Z == pytest.approx(3.23, abs=0.005)
    params = AttackParams(confs, beta, giveup)
    expected = int64_walk(params, trials, seed=giveup)
    assert 0.0 < expected < 1.0
    expected_se = math.sqrt(expected * (1.0 - expected) / trials)
    mc = attack_success_montecarlo(params, trials, seed=giveup)
    assert abs(mc.probability - expected) <= _REFERENCE_Z * math.hypot(mc.std_error, expected_se)


@pytest.mark.parametrize("confs, beta", [(1, 1e19), (1, 8.5e17), (2, 6e17), (3, 2**56 / 3)])
def test_monte_carlo_wins_every_trial_where_numpy_refuses_the_draw(confs, beta):
    # numpy refuses a negative-binomial draw from N beta of about 1e18; from
    # 2**56 on no trial is drawn, as each would win with probability > 1 - 6e-17.
    res = attack_success_montecarlo(AttackParams(confs, beta, 8), 1000, seed=1)
    assert (res.probability, res.std_error, res.trials) == (1.0, 0.0, 1000)
    assert attack_success(AttackParams(confs, beta, 8)).probability == 1.0


@pytest.mark.parametrize("confs", [1, 2, 100, 2**40])
def test_numpy_draws_just_below_the_outright_win_threshold(confs):
    # numpy refuses beta (N + 10 sqrt(N)) past about 9.2e18, and below
    # N beta = 2**56 that product is at most 11 * 2**56, about 7.9e17.
    beta = math.nextafter(2**56 / confs, 0.0)
    assert confs * beta < 2**56
    res = attack_success_montecarlo(AttackParams(confs, beta, 8), 100, seed=1)
    assert res.probability == 1.0


def test_monte_carlo_sizes_no_array_by_depth_or_giveup():
    # Both counts are valid up to 2**53: an array sized by either would not fit.
    start = time.perf_counter()
    res = attack_success_montecarlo(AttackParams(2**40, 2.0, 2**53), 1000, seed=1)
    assert res.probability == 1.0
    assert time.perf_counter() - start < 1.0
    params = AttackParams(1, 4.0, 2**53)
    mc = attack_success_montecarlo(params, 100_000, seed=2)
    assert abs(mc.probability - attack_success(params).probability) <= 3 * mc.std_error


def test_monte_carlo_agrees_with_direct_sum():
    params = AttackParams(1, 0.5, 6)
    exact = attack_success(params).probability
    mc = attack_success_montecarlo(params, 1_000_000, seed=99)
    assert abs(mc.probability - exact) <= 3 * mc.std_error
    assert mc.trials == 1_000_000
    assert mc.std_error > 0


def test_monte_carlo_agrees_for_weak_attacker():
    params = AttackParams(1, 0.2, 5)
    exact = attack_success(params).probability
    mc = attack_success_montecarlo(params, 1_000_000, seed=424)
    assert abs(mc.probability - exact) <= 3 * mc.std_error


def test_result_invariants():
    analytic = attack_success(AttackParams(2, 0.3, 5))
    assert analytic.std_error == 0.0 and analytic.trials is None
    for trials in (0, True, 2.5):
        with pytest.raises(ValueError, match=f"trials must be an integer >= 1, got {trials!r}"):
            attack_success_montecarlo(AttackParams(1, 0.5, 4), trials, seed=1)
    with pytest.raises(ValueError):
        AttackParams(0, 0.5, 4)
    with pytest.raises(ValueError):
        AttackParams(1, -0.5, 4)
    with pytest.raises(ValueError):
        AttackParams(1, 0.5, 0)
