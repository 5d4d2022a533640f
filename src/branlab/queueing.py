"""Closed-form latency of the decoupled tandem.

The pending count alone is a bulk-service queue with batch rejections whose
stationary law is geometric, ``P(i) = (1 - z0) z0**i`` with ``z0`` from
:func:`~branlab.config.pending_root`.  A request's time in the pool does
not depend on whether it is later mined or rejected, so Little's law gives
a served request's pending wait, and the access stage is an s-server
memoryless queue fed by the served throughput ``lambda``:

    block_wait        = z0 / (R_a (1 - z0))
    lambda            = R_a - R_r E[min(i, r)]
    service_stage     = C(s, lambda / R_s) / (s * R_s - lambda) + 1 / R_s
    confirmation_wait = (N - 1) / R_m

with ``C`` the Erlang C delay probability.  The sojourn is their sum and
the reported latency excludes the request's own service time, so
``total = sojourn - 1 / R_s``.

With single-request blocks the mined stream thins a memoryless departure
stream, Poisson by Burke (1956), so the tandem is exact, with or without
rejection; batched blocks arrive in bulk, and the result is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ChainConfig, pending_wait, require_count, served_rate


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C delay probability for ``servers`` links at ``offered_load`` erlangs.

    Uses the factorial-free Erlang B recurrence
    ``B(n, a) = a B(n-1, a) / (n + a B(n-1, a))`` and converts with
    ``C = B / (1 - (a/s) (1 - B))``, stable well past 500 servers.
    """
    require_count("servers", servers)
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


def closed_form_latency(config: ChainConfig) -> LatencyBreakdown:
    """Tandem closed form for ``config``.

    Defined wherever :func:`~branlab.config.validate` passes; elsewhere its
    :class:`~branlab.config.ConfigValidationError` propagates.  Exact for
    ``block_capacity == 1``; otherwise the result is labelled approximate.
    """
    block_wait = pending_wait(config)
    throughput = served_rate(config)
    delay_prob = erlang_c(config.servers, throughput / config.service_rate)
    service_stage = (
        delay_prob / (config.service_capacity - throughput)
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
        approximate=config.block_capacity > 1,
    )
