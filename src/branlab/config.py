"""Configuration tuples shared by the analytic and simulation engines.

A single chain deployment is described by four event rates (request
arrivals, block mining, block rejection, per-link service completion),
the number of concurrent access links, and three block-level integers:
the block capacity, the batch removed per rejection event, and the
confirmation depth a request needs before it may be served.

Rates are expressed per unit time; no wall-clock unit is imposed.
Traffic intensity is defined against the service stage,
``rho = arrival_rate / (servers * service_rate)``, because that stage is
the binding bottleneck in the stable operating regimes studied here; the
mining stage carries its own drain-capacity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class ConfigValidationError(ValueError):
    """A configuration violates a range or stability invariant.

    ``code`` names the first violated invariant: ``nonpositive-rate``, ``capacity-violation``,
    ``rate-overflow`` (a rate product, the pending-stage root, or ``R_a (1 - z0)``, that
    floating point cannot hold), ``unstable-service-queue`` (also ``R_a / R_s`` rounding up
    to ``servers``) or ``unstable-mining-queue`` (also a pending-stage root that rounds to one).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one chain: event rates and block-level integers.

    Immutable value object; safe to share between concurrent workers.
    """

    arrival_rate: float
    mining_rate: float
    rejection_rate: float
    service_rate: float
    servers: int = 1
    block_capacity: int = 1
    rejection_batch: int = 1
    confirmations: int = 1

    @property
    def service_capacity(self) -> float:
        return self.servers * self.service_rate

    @property
    def mining_drain(self) -> float:
        """Maximum pending-queue drain rate: full blocks plus rejection batches."""
        return (
            self.block_capacity * self.mining_rate
            + self.rejection_batch * self.rejection_rate
        )


@dataclass(frozen=True)
class HierarchicalConfig:
    """Two nested chains: a primary (toward the base station) and a secondary
    (between an intermediate node and the end user)."""

    primary: ChainConfig
    secondary: ChainConfig


def require_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` from 1 to ``2**53``.

    ``2**53`` is the largest integer a float holds exactly, with every one
    below it; counts meet float rates, so a larger one would round or overflow.
    """
    # bool is an int subclass, but True is not a count.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if value > 2**53:
        # Not the value itself: repr refuses an int of more than 4300 digits.
        raise ValueError(f"{name} must be at most 2**53, got an integer of {value.bit_length()} bits")


def validate(config: ChainConfig | HierarchicalConfig) -> None:
    """Raise :class:`ConfigValidationError` on the first violated invariant.

    A chain is valid exactly when :func:`pending_root` finds its root: the
    checks and their order are that function's.  A hierarchy checks the
    primary, the secondary, then the primary with the secondary's served
    traffic added; a message names the chain.  Deterministic and side-effect free.
    """
    if isinstance(config, HierarchicalConfig):
        roots = []  # one per chain checked, so their count names the chain that failed
        try:
            roots.append(pending_root(config.primary))
            roots.append(pending_root(config.secondary))
            # The primary also carries every request the secondary serves.
            arrivals = config.primary.arrival_rate + served_rate(config.secondary, roots[1])
            pending_root(replace(config.primary, arrival_rate=arrivals))
        except ConfigValidationError as err:
            label = ("primary", "secondary", "primary with handover")[len(roots)]
            raise ConfigValidationError(err.code, f"{label}: {err}") from None
        return
    pending_root(config)


def pending_root(config: ChainConfig) -> float:
    """Root ``z0`` in (0, 1) of ``g(z) = R_m (z + ... + z^k) + R_r (z + ... + z^r) - R_a``.

    Mining and rejection never look at the access stage, so the pending count
    alone is a bulk-service queue with batch rejections whose stationary law is
    geometric, ``P(i) = (1 - z0) z0**i``.  Every rule of a valid chain is
    checked first: rate and integer ranges, the rejection-batch bound, finite
    stage capacities, service- then mining-stage stability.  Then ``g`` is
    increasing and convex on [0, 1] with ``g(0) < 0 < g(1)``, and Newton's
    method from ``z = 1`` decreases onto the root.  An overflowing slope, no
    convergence in 100 steps, or ``R_a (1 - z0)`` rounding to zero raises
    :class:`ConfigValidationError` with code ``rate-overflow``; a root that
    rounds to one, ``unstable-mining-queue``.
    """
    for name in ("arrival_rate", "mining_rate", "rejection_rate", "service_rate"):
        value = getattr(config, name)
        # bool is an int subclass, but True is not a rate.
        if isinstance(value, bool) or not math.isfinite(value) or value < 0:
            raise ConfigValidationError(
                "nonpositive-rate", f"{name} must be finite and nonnegative, got {value!r}"
            )
        if value == 0 and name != "rejection_rate":
            raise ConfigValidationError(
                "nonpositive-rate", f"{name} must be strictly positive, got {value!r}"
            )
    for name in ("servers", "block_capacity", "rejection_batch", "confirmations"):
        try:
            require_count(name, getattr(config, name))
        except ValueError as err:
            raise ConfigValidationError("capacity-violation", str(err)) from None
    if config.rejection_batch > config.block_capacity:
        raise ConfigValidationError(
            "capacity-violation",
            "rejection_batch must not exceed block_capacity "
            f"({config.rejection_batch} > {config.block_capacity})",
        )

    for name in ("service_capacity", "mining_drain"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigValidationError("rate-overflow", f"{name} overflows to {value!r}")
    load = config.arrival_rate / config.service_rate  # can round up to s although R_a < s R_s
    if config.arrival_rate >= config.service_capacity or load >= config.servers:
        raise ConfigValidationError(
            "unstable-service-queue",
            f"arrival_rate {config.arrival_rate} must be below servers * service_rate "
            f"= {config.service_capacity}",
        )
    if config.arrival_rate >= config.mining_drain:
        raise ConfigValidationError(
            "unstable-mining-queue",
            f"arrival_rate {config.arrival_rate} must be below the mining drain capacity "
            f"block_capacity * mining_rate + rejection_batch * rejection_rate "
            f"= {config.mining_drain}",
        )
    # coefficient of z**m in g: R_m + R_r for m <= r, R_m for r < m <= k;
    # picked inline, so no list k long is built
    mining, both = config.mining_rate, config.mining_rate + config.rejection_rate
    r = config.rejection_batch
    z = 1.0
    for _ in range(100):
        # g(z) = z h(z) - R_a; Horner gives h and h'
        h = dh = 0.0
        for m in range(config.block_capacity, 0, -1):
            dh = dh * z + h
            h = h * z + (both if m <= r else mining)
        slope = h + z * dh
        if not math.isfinite(slope):
            break
        step = (z * h - config.arrival_rate) / slope
        z -= step
        if abs(step) <= 1e-14 * z:  # converged; where z h swamps R_a a step overshoots, hence abs
            if z >= 1.0:  # the mining load is one to floating-point precision
                raise ConfigValidationError(
                    "unstable-mining-queue", f"pending_root rounds to {z!r} for {config}"
                )
            if not config.arrival_rate * (1.0 - z) > 0:  # the block wait's divisor, at subnormal rates
                raise ConfigValidationError(
                    "rate-overflow", f"arrival_rate * (1 - pending_root) rounds to 0 for {config}"
                )
            return z
    raise ConfigValidationError("rate-overflow", f"pending_root overflows or stalls for {config}")


def served_rate(config: ChainConfig, z: float) -> float:
    """Served throughput ``R_a - R_r E[min(i, r)] = R_m E[min(i, k)]`` under the law of
    ``config``'s root ``z`` (:func:`pending_root`), ``E[min(i, m)] = z (1 - z**m) / (1 - z)``."""
    rejected = config.rejection_rate * (z * (1.0 - z**config.rejection_batch) / (1.0 - z))
    mined = config.mining_rate * (z * (1.0 - z**config.block_capacity) / (1.0 - z))
    # R_a - rejected cancels where rejection carries most requests; the mined flow does not.
    return config.arrival_rate - rejected if rejected <= mined else mined


def intensity_of(config: ChainConfig) -> float:
    """Service-stage utilisation ``R_a / (s R_s)``; inverse of :func:`with_intensity`."""
    return config.arrival_rate / config.service_capacity


def with_intensity(config: ChainConfig, rho: float) -> ChainConfig:
    """Copy of ``config`` with arrival rate ``rho s R_s``: service-stage utilisation ``rho``."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"traffic intensity must lie in (0, 1), got {rho!r}")
    # Not rho * service_capacity: (rho * s) * R_s rounds differently, and swept rates would move.
    return replace(config, arrival_rate=rho * config.servers * config.service_rate)

