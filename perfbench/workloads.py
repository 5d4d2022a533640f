"""The benchmark's workloads: inputs, timed operations and output checks.

Each workload is a fixed list of operations that one client process runs
back to back, with no arrival schedule (a closed loop of one caller).  An
operation fails when it raises or when its output check fails; checks run
after the timed region.

Engine functions are looked up on their module at call time
(``markov.latency``, not a name bound at import) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from branlab import attack, cli, des, markov, queueing, scenarios
from branlab.config import ChainConfig, HierarchicalConfig

# Operations that fail at the commit the benchmark was defined on, with the
# reason.  They stay in the workloads and count as failed operations; only an
# unexpected failure makes a run incorrect.
KNOWN_DEFECTS = {
    "solver-heavy": {
        "s50-rho0.8": "ReducibleChainError from the pinned p(0,0) normalisation",
        "s100-rho0.5": "ReducibleChainError from the pinned p(0,0) normalisation",
    },
    "stochastic": {
        "chain-reject-k3-r3": "solver latency counts rejected requests, which are never served",
        "chain-reject-k3": "solver latency counts rejected requests, which are never served",
        # Seed-dependent: one mined block can start several services in one
        # event, and the stop flag is read only between events.
        "chain-s10-k3": "served can overshoot the target by up to k - 1 (about one seed in five)",
        "hier-fig11-s8": "served can overshoot the target by up to k - 1 (about one seed in fifty)",
    },
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def derive_seed(seed: int, op_name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{op_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _chain(arrival, mining, rejection, service, servers=1, capacity=1, batch=1, confirmations=1):
    return ChainConfig(arrival, mining, rejection, service, servers, capacity, batch, confirmations)


# Two rejection configurations on which the solver and the
# simulator disagree.
_REJECT_K3_R3 = _chain(0.8, 1.0, 0.5, 1.0, capacity=3, batch=3)
_REJECT_K3 = _chain(0.5, 2.5, 0.25, 1.0, capacity=3)


def _many_links(servers: int, rho: float) -> ChainConfig:
    return _chain(rho * servers, 1.25 * servers, 0.0, 1.0, servers=servers, capacity=3)


class Workload:
    """``ops`` maps operation names to zero-argument callables; ``check``
    raises :class:`CheckFailed` when an operation's result is wrong."""

    jobs = 1
    ops: dict

    def check(self, op_name: str, result) -> None:
        raise NotImplementedError

    def metadata(self) -> dict:
        return {}


class Presets(Workload):
    """All seven presets through the command line, one preset per operation.

    Each CSV's sha256 goes into the metadata, so that ``run.py`` can require
    a pooled run to write the same bytes as a serial one.
    """

    def __init__(self, seed: int, jobs: int, workdir: Path):
        self.seed = seed
        self.jobs = jobs
        self.workdir = workdir
        self.expected_rows = {
            preset: sum(spec.point_count for spec in scenarios.preset_specs(preset))
            for preset, _ in scenarios.list_presets()
        }
        self.ops = {
            preset: lambda argv=self._argv(preset): cli.main(argv) for preset in self.expected_rows
        }
        self.digests: dict[str, str] = {}

    def _argv(self, preset: str) -> list[str]:
        return [
            "preset", preset, "--jobs", str(self.jobs), "--no-timestamp",
            "--seed", str(self.seed), "--out", str(self.workdir / f"{preset}.csv"),
        ]

    def check(self, op_name: str, result) -> None:
        if result != 0:
            raise CheckFailed(f"exit code {result}")
        path = self.workdir / f"{op_name}.csv"
        data = path.read_bytes()
        self.digests[op_name] = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(data.decode().splitlines()))
        bad = [row["point_index"] for row in rows if row["status"] != "ok"]
        if bad or len(rows) != self.expected_rows[op_name]:
            raise CheckFailed(
                f"{len(rows)} rows (expected {self.expected_rows[op_name]}), "
                f"{len(bad)} not ok"
            )

    def metadata(self) -> dict:
        return {"jobs": self.jobs, "rows": sum(self.expected_rows.values()), "csv_sha256": self.digests}


class SolverHeavy(Workload):
    """One cold ``markov.latency`` per distinct configuration: large boxes,
    many links and rejection.  Deterministic, so the seed is unused."""

    def __init__(self, seed: int):
        self.configs = {
            "rho0.9-k1": _chain(0.9, 2.5, 0.0, 1.0),
            "rho0.9-k3": _chain(0.9, 2.5, 0.0, 1.0, capacity=3),
            "rho0.95-k1": _chain(0.95, 2.5, 0.0, 1.0),
            "s10-rho0.8": _many_links(10, 0.8),
            "s25-rho0.8": _many_links(25, 0.8),
            "s50-rho0.8": _many_links(50, 0.8),
            "s100-rho0.5": _many_links(100, 0.5),
            "reject-k3-r3": _REJECT_K3_R3,
            "reject-k3": _REJECT_K3,
        }
        self.ops = {name: (lambda c=c: markov.latency(c)) for name, c in self.configs.items()}

    def check(self, op_name: str, result) -> None:
        config = self.configs[op_name]
        if not math.isfinite(result):
            raise CheckFailed(f"latency {result!r} is not finite")
        frontier = markov.stationary_solution(config).distribution.truncation_mass_bound
        if not frontier < 1e-9:
            raise CheckFailed(f"frontier mass {frontier:.3e} is not below 1e-9")
        if config.block_capacity == 1 and config.rejection_rate == 0.0:
            exact = queueing.closed_form_latency(config).total
            if abs(result - exact) > 0.02 * exact:
                raise CheckFailed(f"latency {result:.6g} is not within 2% of closed form {exact:.6g}")


class Stochastic(Workload):
    """Long single-chain and hierarchical simulations and Monte Carlo attack
    estimates, each seeded from the workload seed and the operation name."""

    CHAIN_SERVED = 200_000
    HIER_SERVED = 100_000
    MC_TRIALS = 4_000_000

    def __init__(self, seed: int):
        self.seed = seed
        self.chains = {
            "chain-k1": (_chain(0.8, 2.5, 0.0, 1.0), "additive"),
            "chain-s10-k3": (_many_links(10, 0.8), "additive"),
            "chain-n3-additive": (_chain(0.8, 2.5, 0.0, 1.0, capacity=3, confirmations=3), "additive"),
            "chain-n3-event": (_chain(0.8, 2.5, 0.0, 1.0, capacity=3, confirmations=3), "event-driven"),
            "chain-reject-k3-r3": (_REJECT_K3_R3, "additive"),
            "chain-reject-k3": (_REJECT_K3, "additive"),
        }
        # fig11's primary and its secondary at eight links.
        self.hierarchy = HierarchicalConfig(
            primary=_chain(10.0, 200.0, 0.0, 10.0, servers=10, capacity=3),
            secondary=_chain(3.2, 4.0, 0.0, 1.0, servers=8),
        )
        self.attacks = {
            f"mc-N{n}-beta{beta}-Ng{ng}": attack.AttackParams(n, beta, ng)
            for n, beta, ng in ((3, 0.3, 8), (6, 0.9, 8), (1, 0.5, 4))
        }
        self.ops = {}
        for name, (config, mode) in self.chains.items():
            self.ops[name] = lambda c=config, m=mode, s=derive_seed(seed, name): des.simulate_chain(
                c, self.CHAIN_SERVED, s, m
            )
        self.ops["hier-fig11-s8"] = lambda s=derive_seed(seed, "hier-fig11-s8"): des.simulate_hierarchical(
            self.hierarchy, self.HIER_SERVED, s
        )
        for name, params in self.attacks.items():
            self.ops[name] = lambda p=params, s=derive_seed(seed, name): attack.attack_success_montecarlo(
                p, self.MC_TRIALS, s
            )

    def check(self, op_name: str, result) -> None:
        if op_name in self.attacks:
            exact = attack.attack_success(self.attacks[op_name]).probability
            if abs(result.probability - exact) > 5 * result.std_error:
                raise CheckFailed(
                    f"estimate {result.probability:.6g} is more than 5 standard errors "
                    f"({result.std_error:.3g}) from {exact:.6g}"
                )
            return
        target = self.HIER_SERVED if op_name == "hier-fig11-s8" else self.CHAIN_SERVED
        if result.served_count != target:
            raise CheckFailed(f"served {result.served_count}, target {target}")
        if op_name == "hier-fig11-s8":
            parts = result.breakdown["secondary"].mean + result.breakdown["primary"].mean
            if not math.isclose(result.mean, parts, rel_tol=1e-9):
                raise CheckFailed(f"end-to-end mean {result.mean!r} != secondary + primary {parts!r}")
            return
        config, mode = self.chains[op_name]
        if mode != "additive":
            return
        solver = markov.latency(config)
        low, high = result.confidence_interval_95
        half_width = (high - low) / 2
        if abs(result.mean - solver) > 4 * half_width:
            raise CheckFailed(
                f"simulated mean {result.mean:.6g} is {abs(result.mean - solver) / half_width:.1f} "
                f"half-widths from the solver's {solver:.6g}"
            )


def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "presets":
        return Presets(seed, 1, workdir)
    if name == "presets-jobs2":
        return Presets(seed, 2, workdir)
    if name == "solver-heavy":
        return SolverHeavy(seed)
    if name == "stochastic":
        return Stochastic(seed)
    raise ValueError(f"unknown workload {name!r}")
