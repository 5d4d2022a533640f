import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import branlab
from branlab import markov
from branlab.config import (
    ChainConfig,
    ConfigValidationError,
    HierarchicalConfig,
    intensity_of,
    pending_root,
    served_rate,
    validate,
    with_intensity,
)
from branlab.des import simulate_chain, simulate_hierarchical
from branlab.queueing import closed_form_latency

# Each passes every check before the pending-stage root: Newton's slope
# overflows at z = 1, or the mining load is 1 - 2**-52 and the root rounds to 1.
SLOPE_OVERFLOW = ChainConfig(1e307, 8e307, 0.0, 1e308, block_capacity=2)
ROOT_ROUNDS_TO_ONE = ChainConfig(3.9e-05, 1e-05, 3e-06, 7.8e-05, block_capacity=3, rejection_batch=3)
# arrival_rate is one ulp below servers * service_rate, but the offered load
# arrival_rate / service_rate rounds up to the 17 servers.
LOAD_ROUNDS_TO_SERVERS = ChainConfig(0.8511391883399743, 8.511391883399744, 0.0,
                                     0.05006701107882202, servers=17)
# The root is one half, and R_a (1 - z0), the block wait's divisor, rounds to 0.
SUBNORMAL_RATES = ChainConfig(5e-324, 1e-323, 0.0, 1e-323)


def test_textbook_stable_tandem_is_ok():
    cfg = ChainConfig(0.5, 1.0, 0.0, 1.0, servers=1, block_capacity=1,
                      rejection_batch=1, confirmations=1)
    validate(cfg)  # must not raise


def test_overloaded_service_stage_rejected():
    cfg = ChainConfig(2.0, 10.0, 0.0, 1.0, servers=1)
    with pytest.raises(ConfigValidationError) as err:
        validate(cfg)
    assert err.value.code == "unstable-service-queue"


def test_overloaded_mining_stage_rejected():
    # drain capacity k*Rm = 1 cannot absorb 1.5 arrivals per unit time even
    # though four servers could serve them
    cfg = ChainConfig(1.5, 1.0, 0.0, 1.0, servers=4, block_capacity=1)
    with pytest.raises(ConfigValidationError) as err:
        validate(cfg)
    assert err.value.code == "unstable-mining-queue"


def test_mining_overload_diverges_in_simulator():
    # the simulator validates its configuration, so an overloaded mining
    # stage is refused before the pending pool can grow without bound
    from branlab.des import simulate_chain

    cfg = ChainConfig(1.5, 1.0, 0.0, 1.0, servers=4, block_capacity=1)
    with pytest.raises(ConfigValidationError) as err:
        simulate_chain(cfg, 10**9, seed=1)
    assert err.value.code == "unstable-mining-queue"


@pytest.mark.parametrize(
    "kwargs,code",
    [
        (dict(arrival_rate=0.0), "nonpositive-rate"),
        (dict(mining_rate=-1.0), "nonpositive-rate"),
        (dict(rejection_rate=float("nan")), "nonpositive-rate"),
        (dict(service_rate=0.0), "nonpositive-rate"),
        (dict(servers=0), "capacity-violation"),
        (dict(confirmations=0), "capacity-violation"),
        (dict(rejection_batch=5), "capacity-violation"),  # r > k
        # servers * service_rate overflows to inf, which every arrival rate is below
        (dict(arrival_rate=1e308, mining_rate=1e308, rejection_rate=0.0, service_rate=1e308,
              block_capacity=6), "rate-overflow"),
        (asdict(SLOPE_OVERFLOW), "rate-overflow"),
        (asdict(ROOT_ROUNDS_TO_ONE), "unstable-mining-queue"),
        # one side of a hierarchy; the base chain is the other
        (dict(primary=SLOPE_OVERFLOW), "rate-overflow"),
        (dict(secondary=SLOPE_OVERFLOW), "rate-overflow"),
        (asdict(LOAD_ROUNDS_TO_SERVERS), "unstable-service-queue"),
        # whole numbers past 2**53, beyond what a float holds exactly
        (dict(servers=10**400), "capacity-violation"),
        (dict(block_capacity=10**400), "capacity-violation"),
        (dict(confirmations=10**400), "capacity-violation"),
    ],
)
def test_invalid_fields_carry_the_violated_invariant(kwargs, code):
    base = dict(arrival_rate=0.5, mining_rate=2.0, rejection_rate=0.1,
                service_rate=1.0, servers=2, block_capacity=2,
                rejection_batch=1, confirmations=1)
    base.update(kwargs)
    sides = {side: base.pop(side) for side in ("primary", "secondary") if side in base}
    config = ChainConfig(**base)
    if sides:
        config = HierarchicalConfig(**{"primary": config, "secondary": config, **sides})
    with pytest.raises(ConfigValidationError) as err:
        validate(config)
    assert err.value.code == code


@pytest.mark.parametrize("name", ["servers", "block_capacity", "rejection_batch", "confirmations"])
def test_booleans_are_not_counts(name):
    # True == 1 would otherwise pass as one link, one request or one block.
    with pytest.raises(ConfigValidationError) as err:
        validate(replace(ChainConfig(0.5, 2.5, 0.0, 1.0), **{name: True}))
    assert err.value.code == "capacity-violation"
    assert name in str(err.value)


@pytest.mark.parametrize("name", ["arrival_rate", "mining_rate", "rejection_rate", "service_rate"])
def test_booleans_are_not_rates(name):
    # True == 1.0 would otherwise pass as a rate; ChainConfig(True, 2.5, 0, 1.5) validated.
    with pytest.raises(ConfigValidationError) as err:
        validate(replace(ChainConfig(0.5, 2.5, 0.0, 1.5), **{name: True}))
    assert err.value.code == "nonpositive-rate"
    assert name in str(err.value)


def test_hierarchical_validates_both_members():
    good = ChainConfig(0.5, 2.0, 0.0, 1.0)
    bad = ChainConfig(2.0, 10.0, 0.0, 1.0)
    # two links, as the primary also serves the 0.5 the secondary hands over
    primary = replace(good, servers=2)
    validate(HierarchicalConfig(primary=primary, secondary=good))
    # Either chain alone is refused with its own code, and the message names it.
    for label, hierarchy in [("primary", HierarchicalConfig(primary=bad, secondary=good)),
                             ("secondary", HierarchicalConfig(primary=primary, secondary=bad))]:
        with pytest.raises(ConfigValidationError) as err:
            validate(hierarchy)
        assert err.value.code == "unstable-service-queue"
        assert str(err.value) == f"{label}: arrival_rate 2.0 must be below servers * service_rate = 1.0"


def test_hierarchy_counts_the_traffic_the_secondary_hands_over():
    # Each chain is stable alone, but the primary's single-request blocks
    # also carry the secondary's 0.5 served requests: mining load 1.49.
    overloaded = HierarchicalConfig(
        primary=ChainConfig(0.99, 1.0, 0.0, 1.0, servers=4),
        secondary=ChainConfig(0.5, 1.0, 0.0, 1.0),
    )
    validate(overloaded.primary)
    validate(overloaded.secondary)
    with pytest.raises(ConfigValidationError) as err:
        validate(overloaded)
    assert err.value.code == "unstable-mining-queue"
    assert "primary with handover" in str(err.value)


def test_hierarchy_counts_served_not_submitted_traffic():
    # The secondary rejects part of its 0.5 arrivals and hands over 0.385,
    # a primary mining load of 0.985; all 0.5 would overload it.
    primary = ChainConfig(0.6, 1.0, 0.0, 1.0, servers=4)
    secondary = ChainConfig(0.5, 1.0, 0.3, 1.0)
    assert served_rate(secondary, pending_root(secondary)) == pytest.approx(0.5 / 1.3, rel=1e-12)
    validate(HierarchicalConfig(primary=primary, secondary=secondary))
    with pytest.raises(ConfigValidationError):
        validate(replace(primary, arrival_rate=0.6 + 0.5))


@given(
    load=st.floats(min_value=1e-3, max_value=1 - 1e-6),
    mining_rate=st.floats(min_value=0.1, max_value=10.0),
    rejection_share=st.floats(min_value=0.0, max_value=2.0),
    capacity=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_pending_root_solves_the_bulk_service_equation(
    load, mining_rate, rejection_share, capacity, data
):
    batch = data.draw(st.integers(min_value=1, max_value=capacity))
    cfg = ChainConfig(1.0, mining_rate, rejection_share * mining_rate, 1e3,
                      block_capacity=capacity, rejection_batch=batch)
    cfg = replace(cfg, arrival_rate=load * cfg.mining_drain)
    z = pending_root(cfg)
    assert 0 < z < 1
    mined = sum(z**m for m in range(1, capacity + 1))
    rejected = sum(z**m for m in range(1, batch + 1))
    g = cfg.mining_rate * mined + cfg.rejection_rate * rejected - cfg.arrival_rate
    assert abs(g) <= 1e-12 * cfg.mining_drain


def test_pending_root_of_single_request_blocks():
    # one request leaves per mining or rejection event: a memoryless queue
    # at load R_a / (R_m + R_r)
    cfg = ChainConfig(0.5, 2.0, 0.3, 10.0)
    assert pending_root(cfg) == pytest.approx(0.5 / 2.3, rel=1e-14)
    with pytest.raises(ConfigValidationError) as err:
        pending_root(replace(cfg, arrival_rate=2.3))
    assert err.value.code == "unstable-mining-queue"


def test_pending_root_refuses_an_overflowing_slope():
    # Both stage capacities are finite, but Newton's slope h + z h' overflows
    # at z = 1; the step would be 0 and the root 1, a zero division downstream.
    cfg = ChainConfig(1e307, 8e307, 0.0, 1e308, block_capacity=2)
    for quantity in (validate, pending_root, closed_form_latency):
        with pytest.raises(ConfigValidationError) as err:
            quantity(cfg)
        assert err.value.code == "rate-overflow"


def test_pending_root_refuses_a_block_wait_without_a_divisor():
    # The solver raised ReducibleChainError here, the closed form
    # ZeroDivisionError and the simulator returned nan.
    simulate = lambda config: simulate_chain(config, 200, 1)
    for quantity in (validate, pending_root, closed_form_latency, markov.latency, simulate):
        with pytest.raises(ConfigValidationError) as err:
            quantity(SUBNORMAL_RATES)
        assert err.value.code == "rate-overflow"
    assert pending_root(replace(SUBNORMAL_RATES, mining_rate=1.0, service_rate=1.0)) == 5e-324


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda exponent: 10.0**exponent)


@st.composite
def chains(draw):
    rate = log_uniform(1e-150, 1e150)
    capacity = draw(st.integers(1, 1000))
    return ChainConfig(
        arrival_rate=draw(rate),
        mining_rate=draw(rate),
        rejection_rate=draw(st.just(0.0) | rate),
        service_rate=draw(rate),
        servers=draw(st.integers(1, 100)),
        block_capacity=capacity,
        rejection_batch=draw(st.integers(1, capacity)),
        confirmations=draw(st.integers(1, 10)),
    )


@given(config=chains())
@example(config=SLOPE_OVERFLOW)
@example(config=ROOT_ROUNDS_TO_ONE)
@example(config=LOAD_ROUNDS_TO_SERVERS)
@example(config=SUBNORMAL_RATES)
def test_every_engine_refuses_what_validate_refuses(config):
    # A chain that validates has a pending-stage root and a closed form; one
    # that does not is refused by every engine entry with validate's code.
    try:
        validate(config)
    except ConfigValidationError as err:
        code = err.code
    else:
        assert 0 < pending_root(config) < 1
        closed_form_latency(config)
        return
    for entry in (pending_root, closed_form_latency, markov.latency,
                  lambda c: simulate_chain(c, 100, 0)):
        with pytest.raises(ConfigValidationError) as err:
            entry(config)
        assert err.value.code == code


def list_horner_root(config):
    """pending_root's Newton loop as it was with a list of the k coefficients:
    the reference for the root that picks each coefficient inline."""
    coeffs = [
        config.mining_rate + (config.rejection_rate if m <= config.rejection_batch else 0.0)
        for m in range(1, config.block_capacity + 1)
    ]
    z = 1.0
    for _ in range(100):
        h = dh = 0.0
        for c in reversed(coeffs):
            dh = dh * z + h
            h = h * z + c
        slope = h + z * dh
        if not math.isfinite(slope):
            return None
        step = (z * h - config.arrival_rate) / slope
        z -= step
        if abs(step) <= 1e-14 * z:
            return z
    return None


@given(config=chains())
@example(config=ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=3, rejection_batch=3))
@example(config=ChainConfig(0.8, 1.0, 0.5, 1.0, block_capacity=6, rejection_batch=2))
def test_pending_root_equals_the_list_horner_root(config):
    try:
        z = pending_root(config)
    except ConfigValidationError:
        return
    assert z == list_horner_root(config)


MEMORY_PROBE = """
import sys
from branlab.attack import AttackParams, attack_success
from branlab.config import ChainConfig, pending_root

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

call = {
    "pending_root": lambda: pending_root(ChainConfig(0.5, 2.5, 0.0, 1.0, block_capacity=5 * 10**5)),
    "attack_success": lambda: attack_success(AttackParams(2 * 10**5, 0.3, 8)),
}[sys.argv[1]]
before = peak_kib()
call()
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("entry", ["pending_root", "attack_success"])
def test_a_large_count_costs_time_not_memory(entry):
    # Each call is O(k) or O(N) in time; a list that long (19 MB and 17 MB
    # on Linux x86-64) would raise the process's peak RSS.  That is VmHWM, not
    # getrusage's ru_maxrss: exec keeps the larger peak of the test runner.
    env = {**os.environ, "PYTHONPATH": str(Path(branlab.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, entry],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(run.stdout) < 4096


@pytest.mark.parametrize("side", ["primary", "secondary"])
def test_simulator_refuses_a_hierarchy_with_an_overflowing_root(side):
    good = ChainConfig(0.5, 2.0, 0.1, 1.0, servers=2, block_capacity=2)
    hconfig = HierarchicalConfig(**{"primary": good, "secondary": good, side: SLOPE_OVERFLOW})
    with pytest.raises(ConfigValidationError) as err:
        simulate_hierarchical(hconfig, 200, 1)
    assert err.value.code == "rate-overflow"


def test_pending_root_recovers_from_an_overshoot():
    # On the way down from z = 1, z h swamps R_a and a rounded Newton step
    # lands at zero or below; the root, R_a / R_m to rounding, lies above it.
    cfg = ChainConfig(0.1, 1e55, 0.0, 1.0, block_capacity=387)
    assert pending_root(cfg) == pytest.approx(1e-56, rel=1e-12, abs=0)


def test_served_rate_when_rejection_carries_almost_every_request():
    # R_a - R_r E[min(i, r)] cancels to -1.8e-16 here, and the closed form
    # refused that as a negative offered load; the mined flow is exact.
    cfg = ChainConfig(10.0, 1e-16, 10.0, 10.0, servers=2, block_capacity=5, rejection_batch=5)
    z = pending_root(cfg)
    mined = cfg.mining_rate * sum(z**m for m in range(1, cfg.block_capacity + 1))
    assert served_rate(cfg, z) == pytest.approx(mined, rel=1e-12, abs=0)
    assert math.isfinite(closed_form_latency(cfg).total)


def test_intensity_conversion_examples():
    assert with_intensity(ChainConfig(1, 1, 0, 1.0, servers=1), 0.5).arrival_rate == 0.5
    assert with_intensity(ChainConfig(1, 1, 0, 1.0, servers=10), 0.8).arrival_rate == 8.0
    assert intensity_of(ChainConfig(4.0, 1, 0, 1.0, servers=10)) == pytest.approx(0.4)


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5])
def test_intensity_out_of_range(rho):
    with pytest.raises(ValueError, match="traffic intensity must lie in"):
        with_intensity(ChainConfig(1.0, 1.0, 0.1, 1.0, servers=10), rho)


@given(
    rho=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    servers=st.integers(min_value=1, max_value=200),
    service_rate=st.floats(min_value=1e-3, max_value=1e3),
)
def test_intensity_round_trip(rho, servers, service_rate):
    cfg = ChainConfig(1.0, 1.0, 0.0, service_rate, servers=servers)
    back = intensity_of(with_intensity(cfg, rho))
    assert math.isclose(back, rho, rel_tol=1e-12)


def test_validate_is_deterministic_and_pure():
    cfg = ChainConfig(1.0, 1.0, 0.1, 1.0, servers=10, block_capacity=3)
    before = cfg
    for _ in range(3):
        validate(cfg)
    assert cfg == before

