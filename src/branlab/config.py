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
    Deterministic and side-effect free.
    """
    if isinstance(config, HierarchicalConfig):
        validate(config.primary)
        validate(config.secondary)
        return

    rates = {
        "arrival_rate": config.arrival_rate,
        "mining_rate": config.mining_rate,
        "rejection_rate": config.rejection_rate,
        "service_rate": config.service_rate,
    }
    for name, value in rates.items():
        if not math.isfinite(value) or value < 0:
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
        if not isinstance(value, int) or value < 1:
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


def is_valid(config: ChainConfig | HierarchicalConfig) -> bool:
    try:
        validate(config)
    except ConfigValidationError:
        return False
    return True


def arrival_rate_for_intensity(rho: float, config: ChainConfig) -> float:
    """Arrival rate that loads the service stage of ``config`` to utilisation ``rho``."""
    if not (0.0 < rho < 1.0):
        raise ValueError(f"traffic intensity must lie in (0, 1), got {rho!r}")
    return rho * config.servers * config.service_rate


def intensity_of(config: ChainConfig) -> float:
    """Inverse of :func:`arrival_rate_for_intensity`: service-stage utilisation."""
    return config.arrival_rate / (config.servers * config.service_rate)


def with_intensity(config: ChainConfig, rho: float) -> ChainConfig:
    """Copy of ``config`` with the arrival rate set to hit intensity ``rho``."""
    return replace(config, arrival_rate=arrival_rate_for_intensity(rho, config))

