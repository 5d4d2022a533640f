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
pending count, ``j_max`` starts where the M/M/s law of the access stage
puts less than half the tolerance on ``j = j_max``, and is doubled until
the box is certified (see ``auto_truncate``); the solve of a box may keep
at most ``MAX_SOLVE_BYTES``.
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

Cut into levels along either side of the box, the chain moves one level
down at a single scalar rate and up by at most ``k`` levels: along ``j``,
service moves down and mining up; along ``i``, counted from ``i_max``,
an arrival moves down and mining or rejection up.  The generator is held
in that level form (:class:`RateMatrix`), cut along the longer side so
that the blocks stay small, and solved by linear level reduction (Gaver,
Jacobs & Latouche 1984; Stewart, *Introduction to the Numerical Solution
of Markov Chains*, 1994), in numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import ChainConfig, pending_root, served_rate, validate
from .queueing import LatencyBreakdown

MAX_SOLVE_BYTES = 2**30  # predicted bytes one box's stationary solve may keep
_INITIAL_EXTENT = 16  # auto_truncate's least j_max
_TOL = 1e-9  # frontier mass and pending-marginal gap at which auto_truncate stops
_RESIDUAL_RTOL = 1e-12  # bound on max|Q p| relative to max|diag Q|, the generator's scale


class SolverError(Exception):
    """A valid configuration the stationary solve could not handle."""


class StateSpaceLimitError(SolverError, ValueError):
    """A truncation box whose solve would keep more than ``MAX_SOLVE_BYTES``."""


class SolverConvergenceError(SolverError, RuntimeError):
    """The stationary solve did not reach the required residual."""


class ReducibleChainError(SolverError, RuntimeError):
    """The generator admits no unique stationary vector."""


class TruncationDidNotConverge(SolverError, RuntimeError):
    """Frontier mass or the pending-marginal gap never met the tolerance on a
    box within ``MAX_SOLVE_BYTES``; carries the last box solved."""

    def __init__(self, message: str, i_max: int, j_max: int, frontier_mass: float):
        super().__init__(message)
        self.i_max = i_max
        self.j_max = j_max
        self.frontier_mass = frontier_mass


@dataclass(frozen=True)
class StateSpace:
    """Row-major enumeration of the truncated state box: ``(i, j)`` has
    index ``i * (j_max + 1) + j``."""

    i_max: int
    j_max: int

    @property
    def count(self) -> int:
        return (self.i_max + 1) * (self.j_max + 1)


def enumerate_states(i_max: int, j_max: int) -> StateSpace:
    """All ``(i, j)`` with ``0 <= i <= i_max``, ``0 <= j <= j_max``, row-major."""
    if i_max < 0 or j_max < 0:
        raise ValueError("truncation bounds must be nonnegative")
    return StateSpace(i_max, j_max)


@dataclass(frozen=True)
class RateMatrix:
    """Truncated generator in level form.

    The box is cut into levels along its longer side, so that each level is
    a block of ``L`` phases along the shorter one.  If ``i_max <= j_max``,
    level ``j`` holds the phases ``i = 0 ... i_max``: service is the move one
    level down, and mining ``m`` requests moves ``m`` levels up.  Otherwise
    level ``l`` holds the states with ``i = i_max - l`` and phases ``j``: an
    arrival is the move one level down, and mining or rejecting ``m``
    requests moves ``m`` levels up.  Blocks are column-oriented like the
    generator, ``[to, from]``.

    ``within`` holds the moves inside a level, the same on every level.
    ``up[m - 1]`` moves a level ``m`` levels up, except into the top level,
    where ``into_top[m - 1]`` holds every move from ``m`` levels below: along
    the pending axis a partial block of ``i < k`` requests lands on ``i = 0``.
    Every phase of level ``l`` moves one level down at the one rate
    ``down[l]``.  ``diagonal[l]`` holds minus the outflow of each state of
    level ``l``; transitions that would leave the box are dropped from it.
    """

    within: np.ndarray  # (L, L), zero diagonal
    up: np.ndarray  # (K, L, L), K the longest jump
    into_top: np.ndarray  # (K, L, L)
    down: np.ndarray  # (levels,), zero at level 0
    diagonal: np.ndarray  # (levels, L)
    space: StateSpace
    anchor: int = 0  # level the solve reduces toward; it should carry much mass

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def grid(self, levels: np.ndarray) -> np.ndarray:
        """An array laid out by level, ``[level, phase]``, as the
        ``(i_max + 1, j_max + 1)`` grid of the box, and the grid back."""
        return levels[::-1] if self.space.i_max > self.space.j_max else levels.T

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        """``Q @ p`` for a vector ``p`` in the state order."""
        box = p.reshape(self.space.i_max + 1, self.space.j_max + 1)
        return self.grid(self._apply(self.grid(box))).ravel()

    def _apply(self, P: np.ndarray) -> np.ndarray:
        """``Q @ p`` with ``p`` and the result laid out by level."""
        out = self.diagonal * P + P @ self.within.T
        out[:-1] += self.down[1:, None] * P[1:]
        top = len(P) - 1
        for m, (block, last) in enumerate(zip(self.up, self.into_top), 1):
            out[m:-1] += P[: -m - 1] @ block.T
            if m <= top:
                out[top] += last @ P[top - m]
        return out

    def toarray(self) -> np.ndarray:
        """The dense generator in the state order."""
        return np.column_stack([self @ e for e in np.eye(self.dimension)])


def _level_form(config: ChainConfig, space: StateSpace) -> tuple[int, int, int, int, int]:
    """Levels, phases, longest jump and anchor level of ``space``'s level form
    (:class:`RateMatrix`), and the bytes its solve keeps (see :func:`solve_steady_state`)."""
    along_j = space.i_max <= space.j_max
    levels, phases = sorted((space.i_max + 1, space.j_max + 1), reverse=True)
    depth = min(config.block_capacity, space.i_max)
    # The solve reduces toward the mode: along i, i = 0, the top level; along j, level
    # floor(R_a / R_s) of busy links, as level 0 can hold 1e-17 of the mass with many links.
    anchor = min(levels - 1, int(config.arrival_rate // config.service_rate) if along_j else levels)
    solve_bytes = 8 * (phases**2 * (anchor + depth * (levels - 1 - anchor) + 16 * depth + 16)
                       + 8 * levels * phases)
    return levels, phases, depth, anchor, solve_bytes


def build_generator(config: ChainConfig, space: StateSpace) -> RateMatrix:
    """Assemble the truncated generator for ``config``, which must have passed
    :func:`~branlab.config.validate`, on ``space``; a box whose solve would keep more
    than ``MAX_SOLVE_BYTES`` (see :func:`solve_steady_state`) raises
    :class:`StateSpaceLimitError` before anything of its size is allocated."""
    along_j = space.i_max <= space.j_max
    levels, phases, depth, anchor, solve_bytes = _level_form(config, space)
    if solve_bytes > MAX_SOLVE_BYTES:
        raise StateSpaceLimitError(f"box ({space.i_max}, {space.j_max}) would keep "
                                   f"{solve_bytes} bytes in its solve, above {MAX_SOLVE_BYTES}")
    ii, jj = np.ogrid[: space.i_max + 1, : space.j_max + 1]
    batch = np.minimum(ii, config.block_capacity)  # mined out of i
    served = np.minimum(jj, config.servers) * config.service_rate  # served out of j
    outflow = (
        config.arrival_rate * (ii < space.i_max)
        + served
        + (ii >= 1) * (config.rejection_rate + config.mining_rate * (jj + batch <= space.j_max))
    )
    if along_j:
        # levels j, phases i
        pending = ii[1:, 0]
        within = np.zeros((phases, phases))
        within[pending, pending - 1] = config.arrival_rate
        within[pending - np.minimum(pending, config.rejection_batch), pending] += (
            config.rejection_rate
        )
        up = np.zeros((depth, phases, phases))
        up[batch[1:, 0] - 1, pending - batch[1:, 0], pending] = config.mining_rate
        return RateMatrix(within, up, up, served[0], -outflow.T.copy(), space, anchor)
    # levels i_max - i, phases j
    within = np.diag(served[0, 1:], 1)
    up = np.zeros((depth, phases, phases))
    into_top = np.zeros_like(up)
    for m in range(1, len(up) + 1):
        # a block of m <= k requests from (m, j) lands on (0, j + m)
        into_top[m - 1] = config.mining_rate * np.eye(phases, k=-m)
        if m <= config.rejection_batch:
            into_top[m - 1] += config.rejection_rate * np.eye(phases)
    if config.block_capacity <= space.i_max:
        up[-1] = config.mining_rate * np.eye(phases, k=-config.block_capacity)
    if config.rejection_batch <= space.i_max:
        up[config.rejection_batch - 1] += config.rejection_rate * np.eye(phases)
    arrivals = config.arrival_rate * (np.arange(levels) > 0)  # no arrival leaves i = i_max
    return RateMatrix(within, up, into_top, arrivals, -outflow[::-1].copy(), space, anchor)


@dataclass(frozen=True)
class SteadyStateDistribution:
    """Stationary probabilities over a state space, plus solve diagnostics."""

    probabilities: np.ndarray
    truncation_mass_bound: float
    residual: float
    space: StateSpace


def _censored_null_vector(C: np.ndarray) -> np.ndarray:
    """Unnormalised ``x`` with ``C @ x = 0`` for a small column-oriented
    generator, by GTH elimination (Grassmann, Taqqu & Heyman 1985): it never
    subtracts, so every entry keeps its relative precision."""
    A = C.T.copy()  # A[from, to]
    for n in range(len(A) - 1, 0, -1):
        out = A[n, :n].sum()
        if not out > 0:
            raise ReducibleChainError(f"state {n} of the censored level cannot be left")
        A[:n, n] /= out
        A[:n, :n] += np.outer(A[:n, n], A[n, :n])
    x = np.ones(len(A))
    for n in range(1, len(A)):
        x[n] = x[:n] @ A[:n, n]
    return x


def solve_steady_state(Q: RateMatrix) -> SteadyStateDistribution:
    """Stationary vector of ``Q``: ``Q @ p = 0``, ``sum(p) = 1``.

    Every box goes through one path, a linear level reduction toward the
    anchor level ``a``.  From the bottom, level ``c < a`` gives
    ``p_c = X_c p_{c+1}``; from the top, level ``c > a`` gives ``p_c`` from
    the ``K`` levels below it.  Level ``a`` then holds a censored
    ``L``-state generator, whose null vector is found without subtraction,
    and the levels are filled in outward.  Every multiplier is ``-S^-1 B``
    of a sub-generator ``S`` and a nonnegative ``B``, so it is nonnegative,
    and probabilities shrink away from the mode instead of overflowing.
    The result is verified to ``max|Q p| <= 1e-12 max|diag Q|``, whatever
    the time unit, and sub-1e-12 negative noise is clamped to zero.

    The multipliers are kept until the levels are filled in, in two arrays
    allocated once: ``X``, ``(a, L, L)``, below the anchor and ``U``,
    ``(levels - 1 - a, L, KL)``, above it, with ``L`` the shorter side of
    the box.  Working blocks add about ``16 (K + 1) L**2`` floats and arrays
    of the box's size 8 a state.
    """
    levels, phases = Q.diagonal.shape
    top, a = levels - 1, Q.anchor
    depth = len(Q.up)
    width = depth * phases
    try:
        # Bottom-up: with the levels below c substituted, level c reads
        # (S_c + F) p_c + down[c+1] p_{c+1} = 0, where S_c is its own
        # block; H[m - 1] is what they add to level c + m through p_c.
        X = np.empty((a, phases, phases))
        F = np.zeros((phases, phases))
        H = np.zeros_like(Q.up)
        for c in range(a):
            S = Q.within + np.diag(Q.diagonal[c]) + F
            X[c] = np.linalg.inv(S) * -Q.down[c + 1]
            if depth:
                jumps = Q.up
                if c + depth >= top:
                    jumps = Q.up.copy()
                    jumps[top - c - 1] = Q.into_top[top - c - 1]
                G = (H + jumps) @ X[c]
                F = G[0].copy()
                H[:-1] = G[1:]
                H[-1] = 0.0
        # Top-down: with the levels above c substituted, level c reads
        # A p_c + sum_m B_m p_{c-m} = 0, so p_c = -U_c [p_{c-1}; ...; p_{c-K}]
        # with U_c = A^-1 [B_1 ... B_K] at U[c - a - 1]; the move down carries
        # -down[c] U_c into level c - 1: its first block into A, the others into B.
        Z = np.concatenate([Q.within, *Q.into_top], axis=1)
        template = np.concatenate([Q.within, *Q.up], axis=1)
        Z_diagonal = Z.reshape(-1)[:: Z.shape[1] + 1]
        U = np.empty((top - a, phases, width))
        for c in range(top, a, -1):
            if c < top:
                np.copyto(Z, template)
                Z[:, :width] -= Q.down[c + 1] * U[c - a]
            Z_diagonal += Q.diagonal[c]
            U[c - a - 1] = np.linalg.solve(Z[:, :phases], Z[:, phases:])
        # Level a, with both sides substituted: the censored generator.
        C = Q.within + np.diag(Q.diagonal[a]) + F
        if a < top:
            reach = np.eye(phases)  # p_{a-m+1} in terms of p_a
            for m in range(1, min(depth, a + 1) + 1):
                C -= Q.down[a + 1] * (U[0][:, (m - 1) * phases : m * phases] @ reach)
                if m <= a:
                    reach = X[a - m] @ reach
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"singular level block: {exc}") from exc
    P = np.empty((levels, phases))
    P[a] = _censored_null_vector(C)
    for c in range(a - 1, -1, -1):
        P[c] = X[c] @ P[c + 1]
    for c in range(a + 1, levels):
        below = min(depth, c)
        P[c] = -(U[c - a - 1][:, : below * phases] @ P[c - below : c][::-1].ravel())
    total = P.sum()
    if not np.isfinite(total) or total <= 0:
        raise ReducibleChainError("stationary solve produced no probability mass")
    P /= total
    if np.min(P) < -1e-12:
        raise SolverConvergenceError(
            f"stationary solve produced probability {np.min(P):.3e} below the clamp threshold"
        )
    P = np.maximum(P, 0.0)
    P /= P.sum()
    residual = float(np.max(np.abs(Q._apply(P))))
    bound = _RESIDUAL_RTOL * float(np.max(np.abs(Q.diagonal)))
    if residual > bound:
        raise SolverConvergenceError(
            f"stationary residual {residual:.3e} exceeds {bound:.3e} after normalisation"
        )
    grid = Q.grid(P)
    frontier = float(grid[-1].sum() + grid[:-1, -1].sum())  # row i_max, then column j_max
    return SteadyStateDistribution(probabilities=grid.ravel(), truncation_mass_bound=frontier,
                                   residual=residual, space=Q.space)


def _marginals(dist: SteadyStateDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The ``i``- and ``j``-marginals of ``dist``: its grid's row and column sums."""
    grid = dist.probabilities.reshape(dist.space.i_max + 1, dist.space.j_max + 1)
    return grid.sum(axis=1), grid.sum(axis=0)


def mean_queue_length(dist: SteadyStateDistribution) -> float:
    """Expected number of requests in the system, ``E[i] + E[j]``."""
    pending, access = _marginals(dist)
    return float(np.arange(pending.size) @ pending + np.arange(access.size) @ access)


@dataclass(frozen=True)
class TruncationResult:
    """Outcome of the adaptive truncation search."""

    space: StateSpace
    distribution: SteadyStateDistribution
    mean_queue_length: float
    extents_tried: tuple[tuple[int, int], ...]  # (i_max, j_max) of each box solved
    pending_gap: float  # largest gap between the i-marginal and the exact law
    z0: float  # pending_root of the config solved; the confirmation depth does not enter it


def _pending_extent(z0: float) -> int:
    """The smallest ``i >= 1`` with ``z0**i < _TOL / 2``; logarithms can round it one off."""
    i = int(np.log(_TOL / 2) / np.log(z0)) + 1 if z0 >= _TOL / 2 else 1
    return i + (z0**i >= _TOL / 2) - (z0 ** (i - 1) < _TOL / 2)


def _access_mass(servers: int, load: float, j: int) -> float:
    """``P(j)`` in an M/M/``servers`` queue offered ``load`` erlangs, in
    O(min(j, servers)) steps whenever ``j >= 2 * load``."""
    m = min(j, servers)
    b = 1.0  # Erlang B(n, load): P(n) given at most n in the queue
    for n in range(1, m + 1):
        b = load * b / (n + load * b)
    # Above m the weights, relative to P(m), fall by load / n a step up to servers;
    # from j >= 2 * load that is at most a half, so the sum soon stops moving.
    rho = load / servers
    above, weight = 0.0, 1.0
    for n in range(m + 1, servers + 1):
        weight *= load / n
        above += weight
        if weight <= 2**-53 * above:
            weight = 0.0
            break
    # Past servers they fall by rho a step: P(m) = b / (1 + b (above + weight rho / (1 - rho))).
    return (1 - rho) * b / ((1 - rho) * (1 + b * above) + b * weight * rho) * rho ** (j - m)


def auto_truncate(config: ChainConfig) -> TruncationResult:
    """Grow the truncation box until it is certified.

    The pending count alone has the geometric law ``(1 - z0) z0**i`` (see
    :func:`~branlab.config.pending_root`), so ``i_max`` is set once, as the
    smallest ``i`` with ``z0**i < _TOL / 2``.  The least ``j_max`` is the
    smallest ``16 * 2**m`` covering twice the offered load ``R_a / R_s`` and
    the largest batch ``min(k, i_max)``, so that no state is absorbing.
    Without solving anything, ``j_max`` then doubles while ``P(j = j_max)``
    is at least ``_TOL / 2`` in the M/M/s queue that the served rate
    (:func:`~branlab.config.served_rate`) offers the ``s`` links, but never
    past the largest box within ``MAX_SOLVE_BYTES``.  That law is the access
    stage's own when ``k = 1`` (Burke 1956); bulk arrivals lengthen the
    chain's tail, so for ``k > 1`` the start tends to be low.
    A box's solve reads nothing of the boxes before it, so whenever no rung
    below the start would be certified, the search returns the box it
    would from the least ``j_max``.  From the start, ``j_max`` doubles until
    a box is certified: its frontier mass is below ``_TOL``, and its
    ``i``-marginal is within ``_TOL`` of the exact law at every
    ``i <= i_max``.  A cut at ``j_max`` blocks mining, so it can distort the
    pending process where the frontier mass does not show it.  The first
    certified box from the start is returned.  A box over ``MAX_SOLVE_BYTES`` raises
    :class:`StateSpaceLimitError` from :func:`build_generator` if it is the
    first, and :class:`TruncationDidNotConverge` otherwise.
    """
    z0 = pending_root(config)
    i_max = _pending_extent(z0)
    j_max = _INITIAL_EXTENT
    while j_max < max(2 * config.arrival_rate / config.service_rate,
                      min(config.block_capacity, i_max)):
        j_max *= 2
    load = served_rate(config, z0) / config.service_rate
    while (_access_mass(config.servers, load, j_max) >= _TOL / 2
           and _level_form(config, StateSpace(i_max, 2 * j_max))[-1] <= MAX_SOLVE_BYTES):
        j_max *= 2
    tried = []
    while True:
        space = enumerate_states(i_max, j_max)
        try:
            dist = solve_steady_state(build_generator(config, space))
        except StateSpaceLimitError as exc:
            if not tried:
                raise
            raise TruncationDidNotConverge(
                f"no convergence: {exc}; last box ({i_max}, {j_max // 2}) left frontier "
                f"mass {frontier:.3e} and pending-marginal gap {gap:.3e}", i_max, j_max // 2,
                frontier) from exc
        tried.append((i_max, j_max))
        frontier = dist.truncation_mass_bound
        gap = float(np.max(np.abs(_marginals(dist)[0] - (1 - z0) * z0 ** np.arange(i_max + 1))))
        if frontier < _TOL and gap <= _TOL:
            return TruncationResult(space, dist, mean_queue_length(dist), tuple(tried), gap, z0)
        j_max *= 2


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
    """Mean latency of a served request, submission to service start, as
    :meth:`~branlab.queueing.LatencyBreakdown.of` sums it.

    Rejected requests are not counted.  The solve gives only ``E[j]``, the
    access stage's mean occupancy, which Little's law at the served throughput
    (:func:`~branlab.config.served_rate` at the cached solve's root) turns into its sojourn.
    """
    solution = stationary_solution(config)
    access = _marginals(solution.distribution)[1]
    sojourn = float(np.arange(access.size) @ access) / served_rate(config, solution.z0)
    return LatencyBreakdown.of(config, solution.z0, sojourn).total
