"""Success probability of an alternate-history attack on a chain.

The attacker forks the chain privately and mines while the official chain
accumulates the ``N`` confirmations a victim waits for.  Every block race
goes to the official chain with probability ``1 / (1 + beta)`` and to the
attacker with probability ``beta / (1 + beta)``, where ``beta`` is the
attacker-to-official mining-rate ratio.  The number of blocks the attacker
pre-mines during the confirmation window is therefore negative binomial,
``NB(N, 1 / (1 + beta))``.  The subsequent race is a gambler's-ruin walk on
the attacker's deficit: overtaking (deficit below zero) wins, falling
``N_g`` blocks behind abandons.

Conditioning the walk on its first step gives the recursion

    P_n = P_{n+1} / (1 + beta) + beta * P_{n-1} / (1 + beta),  0 <= n < N_g

with boundaries ``P_{-1} = 1`` and ``P_{N_g} = 0``, whose solution is

    P_n = (beta^{n+1} - beta^{N_g+1}) / (1 - beta^{N_g+1})   (beta != 1)
    P_n = (N_g - n) / (N_g + 1)                              (beta == 1)

The overall success probability is the negative-binomial mixture of
``P_{N - n_Y}``.  Because every pre-mining count above ``N`` wins outright,
the infinite mixture collapses to ``N + 1`` terms plus the tail mass
``P(n_Y > N)``.  Winning more than ``N`` of the first ``2N`` races is the
same event, so the tail is the binomial tail ``P(Bin(2N, x) > N)`` at
``x = beta / (1 + beta)`` (Rosenfeld 2014): ``N`` more positive terms
``C(2N, j) x^j (1 - x)^{2N-j}``, ``N < j <= 2N``, each evaluated in log
space.  Every term is nonnegative and none is subtracted from one, so the
sum keeps its relative precision down to the smallest probabilities.  The
paper's one-line closed form (valid for ``N_g > N``) subtracts from one;
it is kept only as a reference.

The Monte Carlo oracle draws each trial's pre-mining count, then walks how
many trials stand at each deficit, splitting each deficit's count
binomially between the two moves at every step.  It costs O(trials) draws
plus O(steps x occupied deficits), and no array is sized by ``N`` or
``N_g``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import require_count


class ClosedFormRangeError(ValueError):
    """Closed form evaluated outside its ``giveup_threshold > confirmations`` domain."""


@dataclass(frozen=True)
class AttackParams:
    """Attack scenario: confirmation depth, relative mining power, give-up threshold."""

    confirmations: int
    relative_power: float
    giveup_threshold: int

    def __post_init__(self):
        require_count("confirmations", self.confirmations)
        power = self.relative_power
        # bool is an int subclass, but True is not a power.
        if isinstance(power, bool) or not (power > 0 and math.isfinite(power)):
            raise ValueError(f"relative_power must be finite and > 0, got {power!r}")
        require_count("giveup_threshold", self.giveup_threshold)


@dataclass(frozen=True)
class AttackResult:
    probability: float
    method: str
    std_error: float = 0.0
    trials: int | None = None


def negbin_pmf(attacker_blocks: int, confirmations: int, relative_power: float) -> float:
    """Probability the attacker pre-mines exactly ``attacker_blocks`` blocks
    while the official chain mines ``confirmations``.

    ``C(n+N-1, n) * (1/(1+beta))^N * (beta/(1+beta))^n`` evaluated in log
    space, so block counts in the hundreds neither overflow nor underflow.
    Callers pass ``attacker_blocks >= 0`` and a validated ``relative_power > 0``.
    """
    n, k = attacker_blocks, confirmations
    log_comb = math.lgamma(n + k) - math.lgamma(n + 1) - math.lgamma(k)
    log_p = -k * math.log1p(relative_power)
    log_q = n * (math.log(relative_power) - math.log1p(relative_power))
    return math.exp(log_comb + log_p + log_q)


def catch_up_probability(deficit: int, params: AttackParams) -> float:
    """Probability the attacker overtakes starting ``deficit`` blocks behind."""
    n_g = params.giveup_threshold
    if deficit < 0:
        return 1.0
    if deficit >= n_g:
        return 0.0
    beta = params.relative_power
    if beta == 1.0:
        return (n_g - deficit) / (n_g + 1)
    log_beta = math.log(beta)
    if log_beta < 0:
        # (beta^{n+1} - beta^{Ng+1}) / (1 - beta^{Ng+1}), expm1 keeps the
        # differences accurate as beta approaches one.
        num = math.exp((deficit + 1) * log_beta) * -math.expm1((n_g - deficit) * log_beta)
        den = -math.expm1((n_g + 1) * log_beta)
    else:
        # Same ratio scaled by beta^{-(Ng+1)} so exponents stay negative.
        num = -math.expm1((deficit - n_g) * log_beta)
        den = -math.expm1(-(n_g + 1) * log_beta)
    return num / den


def attack_success_closed(params: AttackParams) -> AttackResult:
    """The paper's one-line closed form, valid only for ``giveup_threshold > confirmations``.

    Kept as a reference for :func:`attack_success`: it subtracts from one,
    so it loses relative precision on small probabilities.

    ``1 - sum_{n=0}^{N} C(n+N-1, n) (1/(1+b))^N (b/(1+b))^n
    (1 - b^{N-n+1}) / (1 - b^{Ng+1})`` for ``beta != 1``; at ``beta == 1``
    the ratio degenerates to ``(N - n + 1) / (N_g + 1)`` with the mixture
    weights reducing to powers of one half.
    """
    n_conf, beta, n_g = params.confirmations, params.relative_power, params.giveup_threshold
    if n_g <= n_conf:
        raise ClosedFormRangeError(
            "closed form needs giveup_threshold > confirmations "
            f"({n_g} <= {n_conf}); use attack_success"
        )
    if beta == 1.0:
        acc = math.fsum(
            math.comb(n + n_conf - 1, n)
            * (n_conf - n + 1)
            / (n_g + 1)
            / 2.0 ** (n_conf + n)
            for n in range(n_conf + 1)
        )
    else:
        log_beta = math.log(beta)

        def defeat_ratio(n: int) -> float:
            # (1 - beta^{N-n+1}) / (1 - beta^{Ng+1}) on the stable side of one
            m = n_conf - n + 1
            if log_beta < 0:
                return math.expm1(m * log_beta) / math.expm1((n_g + 1) * log_beta)
            return (
                math.exp((m - n_g - 1) * log_beta)
                * math.expm1(-m * log_beta)
                / math.expm1(-(n_g + 1) * log_beta)
            )

        acc = math.fsum(
            negbin_pmf(n, n_conf, beta) * defeat_ratio(n) for n in range(n_conf + 1)
        )
    return AttackResult(probability=1.0 - acc, method="closed-form")


_DEFAULT_CHUNK = 1 << 18


def attack_success_montecarlo(params: AttackParams, trials: int, seed: int) -> AttackResult:
    """Monte Carlo oracle: simulate the pre-mining draw and the deficit walk.

    Trials run in partitions of ``2**18``, each on an independent stream
    derived from ``(seed, partition_index)``, so the merged estimate is
    identical however the partitions are assigned to workers.  The walk
    steps how many trials stand at each occupied deficit, not each trial:
    of the ``c`` trials at a deficit, ``Bin(c, beta / (1 + beta))`` move one
    block closer and the rest fall one behind.  The trials are independent,
    so the win count has the law of a walk of each trial.  Where trials are
    few and spread over many deficits, a step costs more than a uniform
    draw per trial would.  From ``N beta = 2**56`` up every trial wins, and
    none is drawn.
    """
    require_count("trials", trials)
    n_conf, beta, n_g = params.confirmations, params.relative_power, params.giveup_threshold
    if n_conf * beta >= 2**56:
        # numpy refuses the negative-binomial draw from about N beta = 1e18.
        # Here a pre-mining count <= N, the only kind that does not win
        # outright, has probability at most C(2N, N) p^N <= (4p)^N < 6e-17 a
        # trial at p = 1 / (1 + beta), so every trial counts as won undrawn.
        return AttackResult(probability=1.0, method="monte-carlo", std_error=0.0, trials=trials)
    p_honest = 1.0 / (1.0 + beta)
    attacker_step = beta / (1.0 + beta)
    wins = 0
    for part, start in enumerate(range(0, trials, _DEFAULT_CHUNK)):
        size = min(_DEFAULT_CHUNK, trials - start)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(part,)))
        )
        deficit = rng.negative_binomial(n_conf, p_honest, size=size)
        np.subtract(n_conf, deficit, out=deficit)
        wins += int(np.count_nonzero(deficit < 0))
        # Deficits 0 .. N_g - 1 walk; the rest won or lost outright.  The
        # mask is narrowed in place, so at most two boolean arrays are live.
        walks = deficit < n_g
        walks &= deficit >= 0
        deficit = deficit[walks]
        if not deficit.size:
            continue
        # counts[i] trials stand at deficit low + cells[i], and cells[0] is 0.
        low = int(deficit.min())
        deficit -= low
        window = np.bincount(deficit)
        del deficit
        cells = np.flatnonzero(window)
        counts = window[cells]
        while True:
            attackers = rng.binomial(counts, attacker_step)
            # window[i] trials stand at deficit low - 1 + i: the attackers at
            # each deficit move one lower, the rest one higher.
            window = np.zeros(int(cells[-1]) + 3, dtype=np.int64)
            window[cells] = attackers
            window[cells + 2] += counts - attackers
            low -= 1
            if low < 0:  # overtaken at deficit -1
                wins += int(window[0])
                window[0] = 0
            if low + window.size > n_g:  # abandoned at deficit N_g
                window[-1] = 0
            cells = np.flatnonzero(window)
            if not cells.size:
                break
            counts = window[cells]
            low += int(cells[0])
            cells -= cells[0]
    p_hat = wins / trials
    std_error = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return AttackResult(
        probability=p_hat, method="monte-carlo", std_error=std_error, trials=trials
    )


def _tail_terms(confirmations: int, relative_power: float) -> Iterator[float]:
    """Yield the ``N`` terms of ``P(n_Y > N) = P(Bin(2N, x) > N)``, ``x = beta / (1 + beta)``.

    Each ``C(2N, j) x^j (1 - x)^{2N-j}`` is evaluated in log space, so a
    large ``N`` underflows only terms too small to matter to the sum.
    """
    races = 2 * confirmations
    log_races_factorial = math.lgamma(races + 1)
    log_honest = -math.log1p(relative_power)
    log_attacker = math.log(relative_power) + log_honest
    for j in range(confirmations + 1, races + 1):
        yield math.exp(
            log_races_factorial - math.lgamma(j + 1) - math.lgamma(races - j + 1)
            + j * log_attacker + (races - j) * log_honest
        )


def attack_success(params: AttackParams) -> AttackResult:
    """Negative-binomial mixture of catch-up probabilities, summed exactly.

    Pre-mining counts above the confirmation depth win with certainty, so
    their whole mass enters as the binomial tail and no term is ever
    dropped or subtracted.  The ``2N + 1`` terms are summed as they are made,
    so no list ``N`` long is kept.
    """
    n_conf, beta = params.confirmations, params.relative_power
    head = (
        negbin_pmf(n, n_conf, beta) * catch_up_probability(n_conf - n, params)
        for n in range(n_conf + 1)
    )
    total = math.fsum(itertools.chain(head, _tail_terms(n_conf, beta)))
    return AttackResult(probability=min(1.0, total), method="direct-sum")


# Only the benchmark tracer needs this second name.
attack_success_direct = attack_success
