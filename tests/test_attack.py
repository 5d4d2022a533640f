import math
import random
from fractions import Fraction

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
