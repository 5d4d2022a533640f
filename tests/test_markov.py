import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from branlab.config import (
    ChainConfig,
    ConfigValidationError,
    pending_root,
    served_rate,
    validate,
    with_intensity,
)
from branlab.markov import (
    ReducibleChainError,
    StateSpaceLimitError,
    TruncationDidNotConverge,
    auto_truncate,
    build_generator,
    enumerate_states,
    latency,
    mean_queue_length,
    solve_steady_state,
    stationary_solution,
)
from branlab.queueing import closed_form_latency


def brute_force_stationary(dense_q: np.ndarray) -> np.ndarray:
    """Independent oracle: least squares on the stacked system [Q; 1] p = [0; 1]."""
    n = dense_q.shape[0]
    stacked = np.vstack([dense_q, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    return sol


def mm1_tandem_config(rho=0.5, mining_rate=200.0):
    # mining fast enough to be transparent: the system is effectively one
    # memoryless single-server queue at utilisation rho
    return ChainConfig(rho, mining_rate, 0.0, 1.0, servers=1)


def at(sp, i, j):
    """Index of state ``(i, j)`` in the row-major box ``sp``."""
    return i * (sp.j_max + 1) + j


def states(sp):
    return list(zip(sp.pending.tolist(), sp.queued.tolist()))


# ---------------------------------------------------------------- state space


def test_row_major_enumeration():
    sp = enumerate_states(1, 2)
    assert states(sp) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert enumerate_states(2, 2).count == 9
    sp05 = enumerate_states(0, 5)
    assert sp05.count == 6
    assert all(i == 0 for i, _ in states(sp05))


def test_state_count_cap():
    with pytest.raises(StateSpaceLimitError):
        enumerate_states(4000, 4000)


@given(i_max=st.integers(0, 12), j_max=st.integers(0, 12))
def test_index_is_a_bijection(i_max, j_max):
    sp = enumerate_states(i_max, j_max)
    seen = set()
    for idx, (i, j) in enumerate(states(sp)):
        assert at(sp, i, j) == idx
        seen.add((i, j))
    assert len(seen) == sp.count == (i_max + 1) * (j_max + 1)


# ----------------------------------------------------------------- generator


def test_empty_state_has_only_the_arrival_outflow():
    cfg = ChainConfig(0.7, 1.0, 0.3, 1.0, servers=1)
    sp = enumerate_states(4, 4)
    q = build_generator(cfg, sp).matrix.toarray()
    i00 = at(sp, 0, 0)
    assert q[i00, i00] == pytest.approx(-0.7)
    # no mining or rejection column entries out of (0, 0)
    outflows = {state: q[r, i00] for r, state in enumerate(states(sp)) if r != i00 and q[r, i00]}
    assert outflows == {(1, 0): pytest.approx(0.7)}


def test_state_with_one_queued_request():
    cfg = ChainConfig(0.7, 1.0, 0.3, 1.0, servers=1)
    sp = enumerate_states(4, 4)
    q = build_generator(cfg, sp).matrix.toarray()
    i01 = at(sp, 0, 1)
    assert q[i01, i01] == pytest.approx(-(0.7 + 1.0))
    assert q[at(sp, 0, 0), i01] == pytest.approx(1.0)
    assert q[at(sp, 1, 1), i01] == pytest.approx(0.7)


def test_partial_block_and_rejection_targets():
    # capacity-2 blocks: both pending requests mine together; a rejection
    # removes a single pending request
    cfg = ChainConfig(0.7, 1.0, 0.3, 1.0, servers=1, block_capacity=2)
    sp = enumerate_states(5, 5)
    rates = build_generator(cfg, sp)
    q = rates.matrix.toarray()
    i20 = at(sp, 2, 0)
    assert q[at(sp, 0, 2), i20] == pytest.approx(1.0)
    assert q[at(sp, 1, 0), i20] == pytest.approx(0.3)
    assert q[i20, i20] == pytest.approx(-(0.7 + 1.0 + 0.3))
    # the sparse entries agree with the dense matrix
    coo = rates.matrix.tocoo()
    assert all(q[row, col] == rate for row, col, rate in zip(coo.row, coo.col, coo.data))


def test_generator_matches_hand_built_block():
    """The ten states with ``i + j <= 3`` for capacity 2, rejection batch 1,
    one server, far from the truncation frontier, against a hand-built matrix."""
    ra, rm, rr, rs = 0.7, 1.0, 0.3, 1.0
    cfg = ChainConfig(ra, rm, rr, rs, servers=1, block_capacity=2)
    sp = enumerate_states(5, 5)
    order = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
             (3, 0), (2, 1), (1, 2), (0, 3)]
    idx = [at(sp, i, j) for i, j in order]
    got = build_generator(cfg, sp).matrix.toarray()[np.ix_(idx, idx)]

    expected = np.zeros((10, 10))
    pos = {s: n for n, s in enumerate(order)}
    for i, j in order:
        col = pos[(i, j)]
        out = ra  # arrival always leaves the 10-state window upward or sideways
        if (i + 1, j) in pos:
            expected[pos[(i + 1, j)], col] += ra
        if i >= 1:
            m = min(i, 2)
            if (i - m, j + m) in pos:
                expected[pos[(i - m, j + m)], col] += rm
            out += rm
            if (i - 1, j) in pos:
                expected[pos[(i - 1, j)], col] += rr
            out += rr
        if j >= 1:
            expected[pos[(i, j - 1)], col] += rs
            out += rs
        expected[col, col] = -out
    np.testing.assert_allclose(got, expected, atol=1e-14)


@given(
    ra=st.floats(0.05, 0.9),
    rm=st.floats(1.0, 5.0),
    rr=st.floats(0.0, 1.0),
    rs=st.floats(0.5, 3.0),
    servers=st.integers(1, 4),
    capacity=st.integers(1, 4),
    extent=st.integers(2, 8),
)
def test_generator_invariants(ra, rm, rr, rs, servers, capacity, extent):
    from hypothesis import assume

    cfg = ChainConfig(ra, rm, rr, rs, servers=servers, block_capacity=capacity)
    try:
        validate(cfg)
    except ConfigValidationError:
        assume(False)
    q = build_generator(cfg, enumerate_states(extent, extent))
    assert np.max(np.abs(q.matrix.sum(axis=0))) <= 1e-12
    dense = q.matrix.toarray()
    off = dense - np.diag(np.diag(dense))
    assert np.all(off >= 0)
    assert np.all(np.diag(dense) <= 0)


# -------------------------------------------------------------- steady state


def test_empty_system_limit():
    cfg = ChainConfig(1e-9, 1.0, 0.0, 1.0, servers=1)
    sp = enumerate_states(6, 6)
    dist = solve_steady_state(build_generator(cfg, sp))
    p = dist.probabilities
    assert p[at(sp, 0, 0)] == pytest.approx(1.0, abs=1e-6)
    assert np.all(p[1:] < 1e-6)


def test_degenerate_chain_recovers_single_queue_law():
    rho = 0.5
    cfg = mm1_tandem_config(rho)
    sp = enumerate_states(4, 40)
    dist = solve_steady_state(build_generator(cfg, sp))
    marginal = np.bincount(sp.queued, weights=dist.probabilities, minlength=41)
    expected = (1 - rho) * rho ** np.arange(41)
    np.testing.assert_allclose(marginal[:20], expected[:20], atol=2e-3)


def test_normalisation_tolerance():
    cfg = ChainConfig(0.8, 2.5, 0.1, 1.0, servers=2, block_capacity=3)
    dist = solve_steady_state(build_generator(cfg, enumerate_states(40, 40)))
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10
    assert dist.residual <= 1e-9


def test_solver_matches_brute_force_on_small_spaces():
    cfg = ChainConfig(0.6, 1.5, 0.2, 1.0, servers=2, block_capacity=2)
    sp = enumerate_states(12, 12)  # 169 states
    q = build_generator(cfg, sp)
    expected = brute_force_stationary(q.matrix.toarray())
    got = solve_steady_state(q).probabilities
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_reducible_generator_raises():
    from branlab.markov import RateMatrix
    from scipy import sparse

    sp = enumerate_states(1, 0)
    zero = RateMatrix(matrix=sparse.csc_matrix((2, 2)), space=sp)
    with pytest.raises(ReducibleChainError):
        solve_steady_state(zero)


# ---------------------------------------------------------------- statistics


def test_mean_queue_length_hand_values():
    sp = enumerate_states(1, 1)
    q = build_generator(ChainConfig(0.5, 2.0, 0.0, 1.0), sp)
    dist = solve_steady_state(q)

    concentrated = dist.__class__(
        probabilities=np.array([1.0, 0, 0, 0]), truncation_mass_bound=0.0,
        residual=0.0, space=sp,
    )
    assert mean_queue_length(concentrated) == 0.0

    uniform = dist.__class__(
        probabilities=np.full(4, 0.25), truncation_mass_bound=0.0,
        residual=0.0, space=sp,
    )
    assert mean_queue_length(uniform) == pytest.approx(1.0)


def test_mean_queue_length_single_queue_oracle():
    rho = 0.5
    res = stationary_solution(mm1_tandem_config(rho))
    # queue law rho/(1-rho) plus the vanishing pending stage
    expected = rho / (1 - rho) + (rho / 200.0) / (1 - rho / 200.0)
    assert res.mean_queue_length == pytest.approx(expected, rel=1e-6)


def test_mean_queue_length_monotone_in_arrivals():
    values = []
    for ra in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2):
        cfg = ChainConfig(ra, 2.5, 0.1, 1.0, servers=2, block_capacity=2)
        values.append(stationary_solution(cfg).mean_queue_length)
    assert all(a < b for a, b in zip(values, values[1:]))


# -------------------------------------------------------------------- latency


def test_worked_latency_example():
    cfg = ChainConfig(0.5, 1.0, 0.0, 1.0, servers=1)
    assert latency(cfg) == pytest.approx(3.0, rel=0.02)


def test_confirmation_additivity():
    base = ChainConfig(0.5, 2.0, 0.1, 1.0, servers=2, block_capacity=2)
    one = latency(base)
    four = latency(replace(base, confirmations=4))
    assert four - one == pytest.approx(3 / base.mining_rate, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("servers", [1, 5])
def test_latency_matches_closed_form_when_tandem_decouples(rho, servers):
    cfg = with_intensity(
        ChainConfig(0.1, 1.25 * servers, 0.0, 1.0, servers=servers), rho
    )
    assert latency(cfg) == pytest.approx(closed_form_latency(cfg).total, rel=0.02)


@pytest.mark.parametrize("servers, rho", [(50, 0.8), (100, 0.5)])
def test_many_links_solve_without_losing_precision(servers, rho):
    # p(0, 0) is about 1e-17 here, so the solve must not normalise on it
    base = with_intensity(ChainConfig(0.1, 1.25 * servers, 0.0, 1.0, servers=servers), rho)
    assert latency(base) == pytest.approx(closed_form_latency(base).total, rel=1e-6)
    batched = replace(base, block_capacity=3)
    assert math.isfinite(latency(batched))
    assert stationary_solution(batched).distribution.truncation_mass_bound < 1e-9


# (config, served-request latency); the event simulator gives 1.279, 2.472
# and 2.266 at 1e5-2e5 served requests
REJECTING_CHAINS = [
    (ChainConfig(0.5, 2.5, 0.25, 1.0, servers=1, block_capacity=3), 1.2972),
    (ChainConfig(0.8, 2.5, 0.5, 1.0, servers=1), 2.4545),
    (ChainConfig(0.8, 1.0, 0.5, 1.0, servers=1, block_capacity=3, rejection_batch=3), 2.2745),
]


def solver_pending_stage(cfg):
    """``E[i]`` and the served throughput ``R_a - R_r E[min(i, r)]`` under the
    solved law, with the solve itself."""
    result = stationary_solution(cfg)
    space, p = result.space, result.distribution.probabilities
    # a rejection event removes min(i, r) pending requests
    removed = float(np.dot(np.minimum(space.pending, cfg.rejection_batch), p))
    return float(np.dot(space.pending, p)), cfg.arrival_rate - cfg.rejection_rate * removed, result


@pytest.mark.parametrize("cfg, expected", REJECTING_CHAINS)
def test_latency_counts_served_requests_only(cfg, expected):
    _, throughput, _ = solver_pending_stage(cfg)
    assert throughput == pytest.approx(served_rate(cfg), rel=0, abs=1e-9)
    assert throughput < cfg.arrival_rate
    assert latency(cfg) == pytest.approx(expected, rel=1e-3)


def test_pending_marginal_is_the_bulk_service_law():
    # The grid and the bounds were fixed before the first run.  k = 1
    # without rejection at rho = 0.95 is left out: its box is the slowest
    # to solve, and criterion 4 and the access-axis test cover it.
    checked, worst_gap, worst_ratio = 0, 0.0, 0.0
    for servers in (1, 10, 50):
        for k in (1, 3, 6):
            rejections = [(0.0, 1)] + [(0.25, r) for r in sorted({1, k})]
            for share, r in rejections:
                for rho in (0.3, 0.8, 0.95):
                    if k == 1 and share == 0.0 and rho == 0.95:
                        continue
                    mining = 1.25 * servers
                    cfg = with_intensity(
                        ChainConfig(0.1, mining, share * mining, 1.0, servers=servers,
                                    block_capacity=k, rejection_batch=r),
                        rho,
                    )
                    mean_pending, throughput, result = solver_pending_stage(cfg)
                    space = result.space
                    grid = result.distribution.probabilities.reshape(
                        space.i_max + 1, space.j_max + 1
                    )
                    z = pending_root(cfg)
                    geometric = (1 - z) * z ** np.arange(space.i_max + 1)
                    gap = float(np.max(np.abs(grid.sum(axis=1) - geometric)))
                    assert gap <= 1e-9, (cfg, gap)
                    # truncation moves the frontier mass by at most i_max + j_max
                    bound = (result.distribution.truncation_mass_bound
                             * (space.i_max + space.j_max) / cfg.arrival_rate)
                    block_wait = z / (cfg.arrival_rate * (1 - z))
                    deviation = abs(block_wait - mean_pending / cfg.arrival_rate)
                    assert deviation <= bound, (cfg, deviation, bound)
                    assert served_rate(cfg) == pytest.approx(throughput, rel=1e-9, abs=0)
                    checked += 1
                    worst_gap = max(worst_gap, gap)
                    worst_ratio = max(worst_ratio, deviation / bound)
    assert checked == 69
    print(f"bulk-service law: {checked} configs, worst marginal gap {worst_gap:.1e}, "
          f"worst block-wait deviation {worst_ratio:.2f} of its bound")


@pytest.mark.parametrize(
    "cfg",
    [
        ChainConfig(0.5, 1.0, 0.0, 1.0, servers=1),
        ChainConfig(0.5, 2.5, 0.0, 1.0, servers=1, block_capacity=6),
        ChainConfig(2.0, 1.5, 0.0, 1.0, servers=4, block_capacity=3),
    ],
)
def test_without_rejection_latency_is_littles_law(cfg):
    # Every arrival is served, so the served throughput is R_a and the
    # latency is E[i+j] / R_a up to rounding; the bound is the truncation
    # error: the frontier mass, moved at most i_max + j_max requests,
    # spread over the arrival rate.
    result = stationary_solution(cfg)
    little = result.mean_queue_length / cfg.arrival_rate - 1.0 / cfg.service_rate
    frontier = result.distribution.truncation_mass_bound
    bound = frontier * (result.space.i_max + result.space.j_max) / cfg.arrival_rate
    assert abs(latency(cfg) - little) <= bound


def test_unstable_config_is_refused():
    from branlab.config import ConfigValidationError

    with pytest.raises(ConfigValidationError):
        latency(ChainConfig(2.0, 1.0, 0.0, 1.0, servers=1))


# ------------------------------------------------------------ auto truncation


def test_light_traffic_converges_at_the_initial_box():
    # z0 = R_a / R_m = 0.1, and 0.1**10 is the first power below tol / 2; the
    # least access extent already meets the tolerance, so one doubling
    # confirms it and the confirming box is returned.
    cfg = ChainConfig(0.1, 1.0, 0.0, 1.0, servers=1)
    res = auto_truncate(cfg)
    assert res.extents_tried == ((10, 16), (10, 32))
    assert (res.space.i_max, res.space.j_max) == (10, 32)
    assert res.distribution.truncation_mass_bound < 1e-9


def test_pending_extent_comes_from_the_exact_law():
    # The grid was fixed before the first run.
    tol, checked = 1e-9, 0
    for servers in (1, 10):
        for k in (1, 3, 6):
            rejections = [(0.0, 1)] + [(0.25, r) for r in sorted({1, k})]
            for share, r in rejections:
                for rho in (0.3, 0.8, 0.95):
                    mining = 1.25 * servers
                    cfg = with_intensity(
                        ChainConfig(0.1, mining, share * mining, 1.0, servers=servers,
                                    block_capacity=k, rejection_batch=r),
                        rho,
                    )
                    res = auto_truncate(cfg)
                    z = pending_root(cfg)
                    i_max = res.space.i_max
                    assert z**i_max < tol / 2 <= z ** (i_max - 1), (cfg, i_max)
                    assert {extent[0] for extent in res.extents_tried} == {i_max}
                    assert res.distribution.truncation_mass_bound < tol, cfg
                    checked += 1
    assert checked == 48


def test_heavier_traffic_needs_larger_boxes():
    # load lengthens the access queue, so it drives the j axis
    light = auto_truncate(with_intensity(ChainConfig(0.1, 2.5, 0.0, 1.0), 0.3))
    heavy = auto_truncate(with_intensity(ChainConfig(0.1, 2.5, 0.0, 1.0), 0.8))
    assert heavy.space.j_max > light.space.j_max


def test_box_grows_along_the_access_axis():
    cfg = with_intensity(ChainConfig(0.1, 2.5, 0.0, 1.0), 0.95)
    res = auto_truncate(cfg)
    assert latency(cfg) == pytest.approx(closed_form_latency(cfg).total, rel=1e-7)
    assert res.space.count < 20_000
    assert res.space.j_max >= 8 * res.space.i_max
    assert res.extents_tried[-1] == (res.space.i_max, res.space.j_max)


def test_unreachable_tolerance_hits_the_cap():
    # At intensity 0.999 the access queue needs far more than 100k states.
    cfg = ChainConfig(0.999, 2.5, 0.0, 1.0, servers=1)
    with pytest.raises(TruncationDidNotConverge) as err:
        auto_truncate(cfg, max_states=100_000)
    assert err.value.i_max >= 16
    assert (err.value.i_max + 1) * (err.value.j_max + 1) <= 100_000
    assert err.value.frontier_mass >= 0.0
