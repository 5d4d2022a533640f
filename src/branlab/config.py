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

    ``code`` names the first violated invariant: ``nonpositive-rate``,
    ``capacity-violation``, ``unstable-service-queue`` or
    ``unstable-mining-queue``.
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


def validate(config: ChainConfig | HierarchicalConfig) -> None:
    """Raise :class:`ConfigValidationError` on the first violated invariant.

    Checks run in a fixed order: rate ranges, integer ranges, the
    rejection-batch bound, service-stage stability, mining-stage stability.
    A hierarchy checks both chains, then the primary again with the
    secondary's served traffic added to its arrivals.
    Deterministic and side-effect free.
    """
    if isinstance(config, HierarchicalConfig):
        validate(config.primary)
        validate(config.secondary)
        # The primary also carries every request the secondary serves.
        arrivals = config.primary.arrival_rate + served_rate(config.secondary)
        try:
            validate(replace(config.primary, arrival_rate=arrivals))
        except ConfigValidationError as err:
            raise ConfigValidationError(err.code, f"primary with handover: {err}") from None
        return

    rates = {
        "arrival_rate": config.arrival_rate,
        "mining_rate": config.mining_rate,
        "rejection_rate": config.rejection_rate,
        "service_rate": config.service_rate,
    }
    for name, value in rates.items():
        # bool is an int subclass, but True is not a rate.
        if isinstance(value, bool) or not math.isfinite(value) or value < 0:
            raise ConfigValidationError(
                "nonpositive-rate", f"{name} must be finite and nonnegative, got {value!r}"
            )
    for name in ("arrival_rate", "mining_rate", "service_rate"):
        if rates[name] <= 0:
            raise ConfigValidationError(
                "nonpositive-rate", f"{name} must be strictly positive, got {rates[name]!r}"
            )

    counts = {
        "servers": config.servers,
        "block_capacity": config.block_capacity,
        "rejection_batch": config.rejection_batch,
        "confirmations": config.confirmations,
    }
    for name, value in counts.items():
        # bool is an int subclass, but True is not a count.
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigValidationError(
                "capacity-violation", f"{name} must be an integer >= 1, got {value!r}"
            )
    if config.rejection_batch > config.block_capacity:
        raise ConfigValidationError(
            "capacity-violation",
            "rejection_batch must not exceed block_capacity "
            f"({config.rejection_batch} > {config.block_capacity})",
        )

    if config.arrival_rate >= config.service_capacity:
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


def pending_root(config: ChainConfig) -> float:
    """Root ``z0`` in (0, 1) of ``g(z) = R_m (z + ... + z^k) + R_r (z + ... + z^r) - R_a``.

    Mining and rejection never look at the access stage, so the pending
    count alone is a bulk-service queue with batch rejections whose
    stationary law is geometric, ``P(i) = (1 - z0) z0**i``.  On [0, 1] ``g``
    is increasing and convex, ``g(0) = -R_a`` and ``g(1) = mining_drain -
    R_a``: the root exists exactly when :func:`validate` passes, and
    Newton's method from ``z = 1`` decreases onto it monotonically.
    """
    validate(config)
    # coefficient of z**m in g, m = 1 .. k; rejection_batch <= block_capacity
    coeffs = [
        config.mining_rate + (config.rejection_rate if m <= config.rejection_batch else 0.0)
        for m in range(1, config.block_capacity + 1)
    ]
    z = 1.0
    while True:
        # g(z) = z h(z) - R_a; Horner gives h and h'
        h = dh = 0.0
        for c in reversed(coeffs):
            dh = dh * z + h
            h = h * z + c
        step = (z * h - config.arrival_rate) / (h + z * dh)
        z -= step
        if step <= 1e-14 * z:  # quadratic convergence: the error is now rounding
            return z


def pending_wait(config: ChainConfig) -> float:
    """Mean pool time ``E[i]/R_a = z0/(R_a (1 - z0))`` under :func:`pending_root`'s law;
    mined or rejected later, a request waits the same, so a served one does too."""
    z = pending_root(config)
    return z / (config.arrival_rate * (1.0 - z))


def served_rate(config: ChainConfig) -> float:
    """Served throughput ``R_a - R_r E[min(i, r)]`` under :func:`pending_root`'s law."""
    z = pending_root(config)
    removed = z * (1.0 - z**config.rejection_batch) / (1.0 - z)  # E[min(i, r)]
    return config.arrival_rate - config.rejection_rate * removed


def intensity_of(config: ChainConfig) -> float:
    """Service-stage utilisation ``R_a / (s R_s)``; inverse of :func:`with_intensity`."""
    return config.arrival_rate / (config.servers * config.service_rate)


def with_intensity(config: ChainConfig, rho: float) -> ChainConfig:
    """Copy of ``config`` with arrival rate ``rho s R_s``: service-stage utilisation ``rho``."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"traffic intensity must lie in (0, 1), got {rho!r}")
    return replace(config, arrival_rate=rho * config.servers * config.service_rate)

