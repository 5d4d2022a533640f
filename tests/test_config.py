import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

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
    ],
)
def test_invalid_fields_carry_the_violated_invariant(kwargs, code):
    base = dict(arrival_rate=0.5, mining_rate=2.0, rejection_rate=0.1,
                service_rate=1.0, servers=2, block_capacity=2,
                rejection_batch=1, confirmations=1)
    base.update(kwargs)
    with pytest.raises(ConfigValidationError) as err:
        validate(ChainConfig(**base))
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
    with pytest.raises(ConfigValidationError):
        validate(HierarchicalConfig(primary=primary, secondary=bad))


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
    assert served_rate(secondary) == pytest.approx(0.5 / 1.3, rel=1e-12)
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

