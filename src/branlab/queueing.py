"""Closed-form latency of the decoupled tandem, and the one latency sum.

Every analytic latency, this module's and the stationary solver's, is
built by :meth:`LatencyBreakdown.of` from the pending root ``z0``, found
once per call, and an access-stage sojourn.  The closed form takes that
sojourn from an s-server memoryless queue fed by the served throughput
``lambda`` (:func:`~branlab.config.served_rate` at ``z0``):

    service_stage = C(s, lambda / R_s) / (s * R_s - lambda) + 1 / R_s

with ``C`` the Erlang C delay probability.

With single-request blocks the mined stream thins a memoryless departure
stream, Poisson by Burke (1956), so the tandem is exact, with or without
rejection; batched blocks arrive in bulk, and the result is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ChainConfig, pending_root, require_count, served_rate


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

    @classmethod
    def of(cls, config: ChainConfig, z0: float, service_stage: float, approximate: bool = False) -> LatencyBreakdown:
        """The latency of a served request of ``config``, with pending root ``z0``,
        whose access-stage sojourn, its own service included, is ``service_stage``.

        A request's pool time does not depend on whether it is later mined or
        rejected, so Little's law under :func:`~branlab.config.pending_root`'s
        law gives a served one's wait, ``block_wait = z0 / (R_a (1 - z0))``;
        then it waits ``confirmation_wait = (N - 1) / R_m`` for further blocks.
        ``sojourn`` sums the three, and ``total`` is ``sojourn - 1 / R_s`` with
        the confirmation term added last, to the part a sweep over ``N`` shares.
        """
        block_wait = z0 / (config.arrival_rate * (1.0 - z0))
        confirmation_wait = (config.confirmations - 1) / config.mining_rate
        base = block_wait + service_stage
        return cls(block_wait, service_stage, confirmation_wait, base + confirmation_wait,
                   (base - 1.0 / config.service_rate) + confirmation_wait, approximate)


def closed_form_latency(config: ChainConfig) -> LatencyBreakdown:
    """Tandem closed form for ``config``.

    Defined wherever :func:`~branlab.config.validate` passes; elsewhere its
    :class:`~branlab.config.ConfigValidationError` propagates.  Exact for
    ``block_capacity == 1``; otherwise the result is labelled approximate.
    """
    z0 = pending_root(config)
    throughput = served_rate(config, z0)
    delay_prob = erlang_c(config.servers, throughput / config.service_rate)
    service_stage = (
        delay_prob / (config.service_capacity - throughput)
        + 1.0 / config.service_rate
    )
    return LatencyBreakdown.of(config, z0, service_stage, approximate=config.block_capacity > 1)
