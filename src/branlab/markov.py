"""Continuous-time Markov model of the two-queue chain and its stationary law.

States are pairs ``(i, j)``: ``i`` requests wait for inclusion in a mined
block, ``j`` requests occupy the access stage (queued or being served on
one of ``s`` links).  Transitions out of ``(i, j)``:

* arrival      ``-> (i+1, j)``                      at rate ``R_a``
* block mined  ``-> (i-m, j+m)``, ``m = min(i, k)`` at rate ``R_m``, needs ``i >= 1``
* service      ``-> (i, j-1)``                      at rate ``min(j, s) * R_s``
* rejection    ``-> (i-min(i, r), j)``              at rate ``R_r``, needs ``i >= 1``

Mining is disabled on an empty pending queue (no empty blocks), and a
partial block carries all pending requests when ``i <= k``.

The infinite lattice is truncated to a box ``0 <= i <= i_max``,
``0 <= j <= j_max``: ``i_max`` is read off the exact geometric law of the
pending count and ``j_max`` is grown until the result settles (see
``auto_truncate``).
Transitions that would leave the box are dropped and excluded from the
diagonal, which keeps the generator a proper generator; the stationary mass
on the box frontier is reported so the truncation bias is measured rather
than hidden.

The generator is column-oriented: column ``n`` holds the outflows of state
``n``, every column sums to zero, and the stationary vector solves
``Q @ p = 0`` together with ``sum(p) == 1``.  States are enumerated
row-major, ``(i, j)`` at index ``i * (j_max + 1) + j``, so the vector reads
``[p00 p01 ... p0J | p10 p11 ... p1J | ...]`` and reshapes to the
``(i_max + 1, j_max + 1)`` grid whose row sums are the ``i``-marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .config import ChainConfig, pending_root, pending_wait, served_rate, validate

DEFAULT_MAX_STATES = 4_000_000
_INITIAL_EXTENT = 16  # auto_truncate's least j_max
_TOL = 1e-9  # frontier mass below which auto_truncate may stop
_STABILITY_RTOL = 1e-3  # relative E[i+j] change at which auto_truncate stops


class SolverError(Exception):
    """A valid configuration the stationary solve could not handle."""


class StateSpaceLimitError(SolverError, ValueError):
    """Requested truncation box exceeds the configured state-count cap."""


class SolverConvergenceError(SolverError, RuntimeError):
    """The stationary solve did not reach the required residual."""


class ReducibleChainError(SolverError, RuntimeError):
    """The generator admits no unique stationary vector."""


class TruncationDidNotConverge(SolverError, RuntimeError):
    """Frontier mass or queue-length stability never met the tolerance
    before the state-count cap; carries the last bounds tried."""

    def __init__(self, message: str, i_max: int, j_max: int, frontier_mass: float):
        super().__init__(message)
        self.i_max = i_max
        self.j_max = j_max
        self.frontier_mass = frontier_mass


class StateSpace:
    """Row-major enumeration of the truncated state box: ``(i, j)`` has
    index ``i * (j_max + 1) + j``."""

    __slots__ = ("i_max", "j_max", "pending", "queued")

    def __init__(self, i_max: int, j_max: int):
        self.i_max = i_max
        self.j_max = j_max
        # i and j coordinate per state
        self.pending, self.queued = np.divmod(
            np.arange((i_max + 1) * (j_max + 1), dtype=np.int64), j_max + 1
        )

    @property
    def count(self) -> int:
        return self.pending.size


def enumerate_states(
    i_max: int, j_max: int, max_states: int = DEFAULT_MAX_STATES
) -> StateSpace:
    """All ``(i, j)`` with ``0 <= i <= i_max``, ``0 <= j <= j_max``, row-major."""
    if i_max < 0 or j_max < 0:
        raise ValueError("truncation bounds must be nonnegative")
    count = (i_max + 1) * (j_max + 1)
    if count > max_states:
        raise StateSpaceLimitError(
            f"box ({i_max}, {j_max}) holds {count} states, above the cap of {max_states}"
        )
    return StateSpace(i_max, j_max)


@dataclass(frozen=True)
class RateMatrix:
    """Sparse generator over a state space, columns holding each state's outflows."""

    matrix: sparse.csc_matrix
    space: StateSpace
    anchor: int = 0  # index of the state the solve pins; it should carry much mass

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def build_generator(config: ChainConfig, space: StateSpace) -> RateMatrix:
    """Assemble the truncated generator for ``config`` on ``space``."""
    validate(config)
    n = space.count
    ii, jj = space.pending, space.queued
    stride = space.j_max + 1  # index step of one pending request
    col_idx = np.arange(n, dtype=np.int64)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def emit(mask: np.ndarray, step: np.ndarray | int, rates: np.ndarray | float) -> None:
        sources = col_idx[mask]
        rows.append(sources + step)
        cols.append(sources)
        vals.append(np.broadcast_to(np.asarray(rates, dtype=np.float64), sources.shape))

    mask = ii < space.i_max
    emit(mask, stride, config.arrival_rate)

    batch = np.minimum(ii, config.block_capacity)
    mask = (ii >= 1) & (jj + batch <= space.j_max)
    # (i - m, j + m) lies m strides back and m states on: -m * stride + m
    emit(mask, -batch[mask] * space.j_max, config.mining_rate)

    mask = jj >= 1
    emit(mask, -1, np.minimum(jj[mask], config.servers) * config.service_rate)

    if config.rejection_rate > 0:
        drop = np.minimum(ii, config.rejection_batch)
        mask = ii >= 1
        emit(mask, -drop[mask] * stride, config.rejection_rate)

    all_rows = np.concatenate(rows)
    all_cols = np.concatenate(cols)
    all_vals = np.concatenate(vals)

    outflow = np.bincount(all_cols, weights=all_vals, minlength=n)
    all_rows = np.concatenate([all_rows, col_idx])
    all_cols = np.concatenate([all_cols, col_idx])
    all_vals = np.concatenate([all_vals, -outflow])

    matrix = sparse.coo_matrix((all_vals, (all_rows, all_cols)), shape=(n, n)).tocsc()
    # About R_a / R_s links are busy on average, so (0, floor(R_a / R_s)) sits
    # near the mode; (0, 0) can carry 1e-17 of the mass with many links.
    # State (0, j) has index j.
    busy = min(space.j_max, int(config.arrival_rate // config.service_rate))
    return RateMatrix(matrix=matrix, space=space, anchor=busy)


@dataclass(frozen=True)
class SteadyStateDistribution:
    """Stationary probabilities over a state space, plus solve diagnostics."""

    probabilities: np.ndarray
    truncation_mass_bound: float
    residual: float
    space: StateSpace


def solve_steady_state(Q: RateMatrix) -> SteadyStateDistribution:
    """Stationary vector of ``Q``: ``Q @ p = 0``, ``sum(p) = 1``.

    Every box goes through one path: a sparse LU factorisation (SuperLU)
    with one refinement step.  The result is verified to a residual of at
    most 1e-9, and sub-1e-12 negative noise is clamped to zero.
    """
    # Pin the anchor's probability at one and solve the remaining balance
    # equations: A @ x = -q_a with A the generator less the anchor's row and
    # column, nonsingular exactly when the chain is irreducible.  Unlike
    # appending a normalisation row, this keeps the factorisation sparse.
    keep = np.flatnonzero(np.arange(Q.dimension) != Q.anchor)
    without_anchor_row = Q.matrix[keep]
    A = without_anchor_row[:, keep].tocsc()
    b = -without_anchor_row[:, [Q.anchor]].toarray().ravel()
    try:
        lu = splu(A)
    except RuntimeError as exc:
        raise ReducibleChainError(f"singular truncated generator: {exc}") from exc
    x = lu.solve(b)
    # One refinement step keeps the residual at rounding level on large boxes.
    x += lu.solve(b - A @ x)
    p = np.insert(x, Q.anchor, 1.0)
    total = p.sum()
    if not np.isfinite(total) or total <= 0:
        raise ReducibleChainError("stationary solve produced no probability mass")
    p = p / total
    if np.min(p) < -1e-12:
        raise SolverConvergenceError(
            f"stationary solve produced probability {np.min(p):.3e} below the clamp threshold"
        )
    p = np.maximum(p, 0.0)
    p = p / p.sum()
    residual = float(np.max(np.abs(Q.matrix @ p)))
    if residual > 1e-9:
        raise SolverConvergenceError(
            f"stationary residual {residual:.3e} exceeds 1e-9 after normalisation"
        )
    grid = p.reshape(Q.space.i_max + 1, Q.space.j_max + 1)
    frontier = float(grid[-1].sum() + grid[:-1, -1].sum())  # row i_max, then column j_max
    return SteadyStateDistribution(
        probabilities=p, truncation_mass_bound=frontier, residual=residual, space=Q.space
    )


def mean_queue_length(dist: SteadyStateDistribution) -> float:
    """Expected number of requests in the system, ``sum((i+j) * p_ij)``."""
    return float(np.dot(dist.space.pending + dist.space.queued, dist.probabilities))


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of the adaptive truncation search."""

    space: StateSpace
    distribution: SteadyStateDistribution
    mean_queue_length: float
    extents_tried: tuple[tuple[int, int], ...]  # (i_max, j_max) of each box solved


def _solve_box(config: ChainConfig, i_max: int, j_max: int, max_states: int) -> TruncationResult:
    space = enumerate_states(i_max, j_max, max_states=max_states)
    dist = solve_steady_state(build_generator(config, space))
    return TruncationResult(
        space=space,
        distribution=dist,
        mean_queue_length=mean_queue_length(dist),
        extents_tried=((i_max, j_max),),
    )


def auto_truncate(config: ChainConfig, max_states: int = DEFAULT_MAX_STATES) -> TruncationResult:
    """Grow the truncation box until the result is insensitive to it.

    The pending count alone has the geometric law ``(1 - z0) z0**i`` (see
    :func:`~branlab.config.pending_root`), so ``i_max`` is set once, as the
    smallest ``i`` with ``z0**i < _TOL / 2``, capped so that the initial box
    fits in ``max_states``.  ``j_max`` starts at the smallest ``16 * 2**m``
    covering twice the offered load ``R_a / R_s`` and doubles until the
    frontier mass is below ``_TOL`` and the mean queue length moved by less
    than 0.1 percent from the previous box; the last box solved is returned.
    """
    validate(config)
    j_max = _INITIAL_EXTENT
    while j_max < 2 * config.arrival_rate / config.service_rate:
        j_max *= 2
    z0 = pending_root(config)
    i_max = 1
    while z0**i_max >= _TOL / 2 and (i_max + 2) * (j_max + 1) <= max_states:
        i_max += 1
    tried = [(i_max, j_max)]
    current = _solve_box(config, i_max, j_max, max_states)
    while True:
        if (i_max + 1) * (2 * j_max + 1) > max_states:
            frontier = current.distribution.truncation_mass_bound
            raise TruncationDidNotConverge(
                f"no convergence below {max_states} states; last box "
                f"({i_max}, {j_max}) left frontier mass {frontier:.3e}",
                i_max=i_max,
                j_max=j_max,
                frontier_mass=frontier,
            )
        j_max *= 2
        tried.append((i_max, j_max))
        previous, current = current, _solve_box(config, i_max, j_max, max_states)
        moved = abs(current.mean_queue_length - previous.mean_queue_length)
        if (
            current.distribution.truncation_mass_bound < _TOL
            and moved <= _STABILITY_RTOL * max(previous.mean_queue_length, 1e-6)
        ):
            return replace(current, extents_tried=tuple(tried))


@lru_cache(maxsize=32)
def _stationary_cached(config: ChainConfig) -> TruncationResult:
    return auto_truncate(config)


def solve_key(config: ChainConfig) -> ChainConfig:
    """The confirmation-free config: configs with one key share one solve.

    The chain dynamics do not involve the confirmation depth, so one solve
    serves a whole sweep over it.
    """
    return replace(config, confirmations=1)


def stationary_solution(config: ChainConfig) -> TruncationResult:
    """Auto-truncated stationary solve, cached on :func:`solve_key`."""
    validate(config)
    return _stationary_cached(solve_key(config))


def latency(config: ChainConfig) -> float:
    """Mean latency of a served request, submission to service start:
    ``z0/(R_a (1 - z0)) + E[j]/lambda - 1/R_s + (N - 1)/R_m``.

    Rejected requests are not counted.  The pending stage is exact: its
    wait and the served throughput ``lambda`` come from the pending law
    (:func:`~branlab.config.pending_wait`, :func:`~branlab.config.served_rate`),
    and the solve gives only ``E[j]``, the access stage's mean occupancy,
    which Little's law turns into its sojourn.
    """
    result = stationary_solution(config)
    space, p = result.space, result.distribution.probabilities
    access = float(np.dot(space.queued, p)) / served_rate(config)
    base = pending_wait(config) + access - 1.0 / config.service_rate
    return base + (config.confirmations - 1) / config.mining_rate
