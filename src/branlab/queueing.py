"""Closed-form latency of the decoupled tandem approximation.

The pending stage is treated as a single-server memoryless queue drained at
the mining rate, the access stage as an s-server memoryless queue, and the
confirmation depth adds ``N - 1`` mean block intervals:

    block_wait        = 1 / (R_m - R_a)
    service_stage     = C(s, R_a / R_s) / (s * R_s - R_a) + 1 / R_s
    confirmation_wait = (N - 1) / R_m

with ``C`` the Erlang C delay probability.  The sojourn is their sum and
the reported latency excludes the request's own service time, so
``total = sojourn - 1 / R_s``.

These formulas describe the ``block_capacity == 1``, ``rejection_rate == 0``
special case of the full chain model, where the tandem decouples exactly;
for batched blocks or nonzero rejection they are only an approximation and
are refused unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ChainConfig, ConfigValidationError, validate


class ClosedFormDomainError(ValueError):
    """Closed form requested outside its exact domain without the approximate flag."""


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C delay probability for ``servers`` links at ``offered_load`` erlangs.

    Uses the factorial-free Erlang B recurrence
    ``B(n, a) = a B(n-1, a) / (n + a B(n-1, a))`` and converts with
    ``C = B / (1 - (a/s) (1 - B))``, stable well past 500 servers.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers!r}")
    if offered_load < 0:
        raise ValueError(f"offered load must be nonnegative, got {offered_load!r}")
    if offered_load >= servers:
        raise ValueError(
            f"offered load {offered_load} must stay below the server count {servers}"
        )
    b = 1.0
    for n in range(1, servers + 1):
        b = offered_load * b / (n + offered_load * b)
    rho = offered_load / servers
    return b / (1.0 - rho * (1.0 - b))


@dataclass(frozen=True)
class LatencyBreakdown:
    """Latency components in time units; ``total`` excludes the service time."""

    block_wait: float
    service_stage: float
    confirmation_wait: float
    sojourn: float
    total: float
    approximate: bool = False


def closed_form_latency(config: ChainConfig, approximate: bool = False) -> LatencyBreakdown:
    """Tandem closed form for ``config``.

    Exact for single-request blocks without rejection; with
    ``approximate=True`` the same formulas are evaluated for other
    configurations and the result is labelled approximate.  Raises
    :class:`ConfigValidationError` for a configuration :func:`validate`
    rejects, or whose arrival rate reaches the mining rate.
    """
    if (config.block_capacity != 1 or config.rejection_rate != 0.0) and not approximate:
        raise ClosedFormDomainError(
            "closed form is exact only for block_capacity == 1 and rejection_rate == 0; "
            "pass approximate=True to evaluate it anyway"
        )
    validate(config)
    # The tandem drains its pending stage one request per block, a stricter
    # bound than the batched drain capacity that validate() checks.
    if config.arrival_rate >= config.mining_rate:
        raise ConfigValidationError(
            "unstable-mining-queue",
            f"block-inclusion stage needs arrival_rate < mining_rate "
            f"({config.arrival_rate} >= {config.mining_rate})",
        )

    block_wait = 1.0 / (config.mining_rate - config.arrival_rate)
    delay_prob = erlang_c(config.servers, config.arrival_rate / config.service_rate)
    service_stage = (
        delay_prob / (config.servers * config.service_rate - config.arrival_rate)
        + 1.0 / config.service_rate
    )
    confirmation_wait = (config.confirmations - 1) / config.mining_rate
    sojourn = block_wait + service_stage + confirmation_wait
    return LatencyBreakdown(
        block_wait=block_wait,
        service_stage=service_stage,
        confirmation_wait=confirmation_wait,
        sojourn=sojourn,
        total=sojourn - 1.0 / config.service_rate,
        approximate=config.block_capacity != 1 or config.rejection_rate != 0.0,
    )
