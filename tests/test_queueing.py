import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from branlab.config import ChainConfig, ConfigValidationError
from branlab.queueing import closed_form_latency, erlang_c


def test_single_server_delay_probability_is_the_load():
    assert erlang_c(1, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_two_server_hand_value():
    # a=1, s=2: C = (1/2)/(1/2 + 1) = 1/3 by direct evaluation of the formula
    assert erlang_c(2, 1.0) == pytest.approx(1 / 3, abs=1e-12)


def test_empty_system_never_queues():
    assert erlang_c(10, 1e-12) == pytest.approx(0.0, abs=1e-9)


@given(a=st.floats(0.0, 1.0 - 1e-9))
def test_single_server_identity(a):
    assert math.isclose(erlang_c(1, a), a, rel_tol=0, abs_tol=1e-12)


def test_monotone_in_load_and_servers():
    loads = [0.1, 0.5, 1.0, 2.0, 3.5]
    for s in (4, 8, 16):
        vals = [erlang_c(s, a) for a in loads]
        assert all(x < y for x, y in zip(vals, vals[1:]))
    for a in (0.5, 2.0, 3.5):
        vals = [erlang_c(s, a) for s in (4, 8, 16, 64)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_large_server_counts_are_stable():
    val = erlang_c(500, 450.0)
    assert 0.0 < val < 1.0
    assert math.isfinite(erlang_c(600, 300.0))


@pytest.mark.parametrize("s,a", [(1, 1.0), (4, 4.0), (2, -0.1), (0, 0.5)])
def test_erlang_domain_errors(s, a):
    with pytest.raises(ValueError):
        erlang_c(s, a)


@pytest.mark.parametrize("servers", [True, 2.5, np.int64(2)], ids=["bool", "float", "numpy"])
def test_erlang_servers_must_be_an_int(servers):
    # bool is an int subclass and 2.5 compares fine, but neither is a server count.
    with pytest.raises(ValueError, match="servers must be an integer >= 1"):
        erlang_c(servers, 0.5)


# ------------------------------------------------------------- closed form


def test_worked_breakdown():
    cfg = ChainConfig(0.5, 1.0, 0.0, 1.0, servers=1)
    bd = closed_form_latency(cfg)
    assert bd.block_wait == pytest.approx(2.0)
    assert bd.service_stage == pytest.approx(2.0)
    assert bd.confirmation_wait == 0.0
    assert bd.sojourn == pytest.approx(4.0)
    assert bd.total == pytest.approx(3.0)
    assert not bd.approximate


def test_confirmation_term():
    cfg = ChainConfig(0.5, 2.0, 0.0, 1.0, servers=1, confirmations=4)
    assert closed_form_latency(cfg).confirmation_wait == pytest.approx(1.5)
    one = ChainConfig(0.5, 2.0, 0.0, 1.0, servers=1, confirmations=1)
    assert closed_form_latency(one).confirmation_wait == 0.0


@given(
    ra=st.floats(0.01, 0.85),
    rs=st.floats(0.9, 3.0),
)
def test_single_server_stage_collapses(ra, rs):
    # with one link the service-stage expression reduces to 1/(Rs - Ra)
    cfg = ChainConfig(ra * rs, 10.0 * rs, 0.0, rs, servers=1)
    bd = closed_form_latency(cfg)
    assert math.isclose(bd.service_stage, 1.0 / (rs - cfg.arrival_rate), rel_tol=1e-10)


def test_components_positive_and_divergent_at_saturation():
    cfg = ChainConfig(0.3, 2.0, 0.0, 1.0, servers=2, confirmations=3)
    bd = closed_form_latency(cfg)
    assert bd.block_wait > 0 and bd.service_stage > 0 and bd.confirmation_wait > 0
    assert bd.sojourn == pytest.approx(bd.block_wait + bd.service_stage + bd.confirmation_wait)
    assert bd.total == pytest.approx(bd.sojourn - 1.0)

    mining_saturated = ChainConfig(2.0 * (1 - 1e-6), 2.0, 0.0, 10.0, servers=1)
    assert closed_form_latency(mining_saturated).block_wait > 1e3
    service_saturated = ChainConfig(1.0 - 1e-6, 100.0, 0.0, 1.0, servers=1)
    assert closed_form_latency(service_saturated).service_stage > 1e3


def test_closed_form_covers_batched_and_rejecting_chains():
    # Single-request blocks stay exact with rejection: the pending stage is
    # a memoryless queue drained at R_m + R_r, and its mined stream is Poisson.
    rejecting = ChainConfig(0.5, 2.0, 0.3, 1.0, servers=1)
    bd = closed_form_latency(rejecting)
    assert not bd.approximate
    assert bd.block_wait == pytest.approx(1 / (2.0 + 0.3 - 0.5), rel=1e-12)
    served = 0.5 * 2.0 / 2.3  # arrivals times the share mined rather than rejected
    assert bd.service_stage == pytest.approx(1 / (1.0 - served), rel=1e-12)

    # Batched mining past R_a >= R_m is stable and yields a labelled value.
    batched = ChainConfig(4.75, 2.0, 0.0, 1.0, servers=5, block_capacity=3)
    bd = closed_form_latency(batched)
    assert bd.approximate
    assert 0 < bd.block_wait < math.inf and bd.total > 0


@pytest.mark.parametrize("deficit", [0.5, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_block_wait_is_precise_near_saturation(deficit):
    mining_rate = 2.0
    cfg = ChainConfig(mining_rate * (1 - deficit), mining_rate, 0.0, 10.0, servers=1)
    exact = 1.0 / (cfg.mining_rate - cfg.arrival_rate)
    assert closed_form_latency(cfg).block_wait == pytest.approx(exact, rel=1e-9, abs=0)


def test_stage_instability_errors():
    with pytest.raises(ConfigValidationError) as err:
        closed_form_latency(ChainConfig(1.5, 1.0, 0.0, 1.0, servers=4))
    assert err.value.code == "unstable-mining-queue"
    with pytest.raises(ConfigValidationError) as err:
        closed_form_latency(ChainConfig(1.5, 9.0, 0.0, 1.0, servers=1))
    assert err.value.code == "unstable-service-queue"
