"""Scenario definitions, sweep execution, and the figure presets.

A scenario is a JSON document (or an equivalent dict) with a versioned
schema::

    {
      "schema_version": 1,
      "name": "my-sweep",
      "engine": "markov",                  # or closed-form | simulation |
                                           #   attack | hierarchical-simulation
      "base": { ...chain fields... },      # hierarchical engines take
                                           #   {"primary": {...}, "secondary": {...}}
      "sweep": [ {"path": "intensity", "values": [0.2, 0.5, 0.8]},
                 {"path": "block_capacity", "values": [1, 3, 6]} ],
      "replication": {"seed": 7, "target_served": 100000, "trials": 1000000},
      "attack": {"relative_power": 0.3, "giveup_threshold": 8, "method": "auto"},
      "output": {"path": "out.csv", "format": "csv"}
    }

Unknown fields and non-object sections are rejected so typos surface
immediately, and so are attack values outside the attack model's range, in
the section or in a sweep.  Each engine's record in ``_ENGINES`` says
whether an attack section is required, allowed or refused and which
methods it accepts: ``attack`` requires one, with method ``auto`` (the
analytic direct sum) or ``monte-carlo``; ``markov`` takes an optional one,
``auto`` only, and adds the attack columns to its rows.  Sweep paths name
real configuration fields; the pseudo-field ``intensity`` (or
``secondary.intensity`` etc.) sets the arrival rate to hit a service-stage
utilisation and is applied after any other swept field of the same point,
so it may not be swept together with the same chain's ``arrival_rate``.

Rows come out in row-major grid order.  Every point goes through one
loop, :func:`evaluate`: materialise, validate, then the ``run`` of the
engine's record, the one place that holds what the runner knows about an
engine.  Row statuses are set in two places.  The loop reports a point
that is not a valid configuration (an intensity outside (0, 1), or one
that fails :func:`config.validate`) as ``skipped-unstable``.  Engine
evaluators raise, and :func:`_run_task` reports a pending pool that runs
away (:class:`des.SimulationUnstableError`) as ``skipped-unstable`` and a
:class:`markov.SolverError` as ``solver-failed``.  Neither aborts the run,
and both leave the result columns blank.
Per-point seeds derive from ``sha256("<master_seed>:<point_index>")``, so
extending a value list never perturbs existing points.  Output rows echo
the full materialised configuration, making every row self-describing and
re-runnable.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from collections.abc import Callable, Hashable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import attack as attack_mod
from . import des, markov, queueing
from .config import (
    ChainConfig,
    HierarchicalConfig,
    intensity_of,
    validate,
    with_intensity,
)

SCHEMA_VERSION = 1
_FORMATS = ("csv", "jsonl")

_CHAIN_FIELDS = tuple(field.name for field in fields(ChainConfig))
# config.py postpones annotations, so each field's type is its source text.
_INT_FIELDS = {field.name for field in fields(ChainConfig) if field.type == "int"}


class MalformedSpecError(ValueError):
    """Scenario document violates the schema; message carries the field path."""


@dataclass(frozen=True)
class SweepParam:
    path: str
    values: tuple


@dataclass(frozen=True)
class Replication:
    seed: int = 0
    target_served: int = 100_000
    trials: int = 1_000_000


@dataclass(frozen=True)
class AttackSection:
    relative_power: float
    giveup_threshold: int
    method: str = "auto"


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    engine: str
    base: ChainConfig | HierarchicalConfig
    sweep: tuple[SweepParam, ...]
    replication: Replication
    attack: AttackSection | None = None
    output_path: str | None = None
    output_format: str = "csv"

    @property
    def point_count(self) -> int:
        return math.prod(len(param.values) for param in self.sweep)


@dataclass(frozen=True)
class RunSummary:
    points_total: int
    points_ok: int
    points_skipped: int
    out_path: str


# --------------------------------------------------------------------------
# parsing


def _require_keys(section, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise MalformedSpecError(f"{where}: expected an object")
    unknown = set(section) - allowed
    if unknown:
        raise MalformedSpecError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise MalformedSpecError(f"{where}: missing required field(s) {sorted(missing)}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedSpecError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise MalformedSpecError(f"{where}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise MalformedSpecError(f"{where}: expected an integer, got {value!r}")


def _parse_value(path: str, value, where: str):
    """``value`` as the type of the field that ``path`` names."""
    if path.rpartition(".")[2] in (*_INT_FIELDS, "giveup_threshold"):
        return _as_int(value, where)
    return _as_number(value, where)


def _parse_chain(section, where: str) -> ChainConfig:
    _require_keys(section, set(_CHAIN_FIELDS), set(_CHAIN_FIELDS), where)
    return ChainConfig(
        **{name: _parse_value(name, section[name], f"{where}.{name}") for name in _CHAIN_FIELDS}
    )


def _paths(engine: str, has_attack: bool) -> list[str]:
    """The values a scenario may sweep, in the order its rows echo them.

    Each path's echo column is the path with ``.`` replaced by ``_``.
    """
    chain = [*_CHAIN_FIELDS, "intensity"]
    if _ENGINES[engine].hierarchical:
        return [f"{side}.{name}" for side in ("primary", "secondary") for name in chain]
    if has_attack:
        return chain + ["attack.relative_power", "attack.giveup_threshold"]
    return chain


def _check_attack(section: AttackSection, where: str) -> None:
    """Reject attack values that :class:`attack.AttackParams` would refuse.

    The confirmation depth comes from each point's chain, so a valid
    placeholder stands in for it here.
    """
    try:
        attack_mod.AttackParams(1, section.relative_power, section.giveup_threshold)
    except ValueError as exc:
        raise MalformedSpecError(f"{where}: {exc}") from exc


def parse_scenario(source) -> ScenarioSpec:
    """Parse and strictly validate a scenario from a dict or a JSON file path."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedSpecError(f"cannot read scenario file {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedSpecError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    else:
        doc = source
    _require_keys(
        doc,
        {"schema_version", "name", "engine", "base", "sweep", "replication", "attack", "output"},
        {"schema_version", "name", "engine", "base", "sweep"},
        "scenario",
    )
    if _as_int(doc["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise MalformedSpecError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']!r}"
        )
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise MalformedSpecError("name: expected a nonempty string")
    engine = doc["engine"]
    if engine not in ENGINES:
        raise MalformedSpecError(f"engine: expected one of {ENGINES}, got {engine!r}")
    entry = _ENGINES[engine]

    if entry.hierarchical:
        base_doc = doc["base"]
        _require_keys(base_doc, {"primary", "secondary"}, {"primary", "secondary"}, "base")
        base: ChainConfig | HierarchicalConfig = HierarchicalConfig(
            primary=_parse_chain(base_doc["primary"], "base.primary"),
            secondary=_parse_chain(base_doc["secondary"], "base.secondary"),
        )
    else:
        base = _parse_chain(doc["base"], "base")

    attack_section = None
    if "attack" in doc:
        if not entry.attack_methods:
            raise MalformedSpecError(f"attack: not allowed for engine {engine!r}")
        sec = doc["attack"]
        _require_keys(
            sec,
            {"relative_power", "giveup_threshold", "method"},
            {"relative_power", "giveup_threshold"},
            "attack",
        )
        method = sec.get("method", "auto")
        if method not in entry.attack_methods:
            raise MalformedSpecError(
                f"attack.method: expected one of {entry.attack_methods} for engine "
                f"{engine!r}, got {method!r}"
            )
        attack_section = AttackSection(
            relative_power=_as_number(sec["relative_power"], "attack.relative_power"),
            giveup_threshold=_as_int(sec["giveup_threshold"], "attack.giveup_threshold"),
            method=method,
        )
        _check_attack(attack_section, "attack")
    elif entry.attack_required:
        raise MalformedSpecError(f"attack: required for engine {engine!r}")

    sweep_doc = doc["sweep"]
    if not isinstance(sweep_doc, list) or not (1 <= len(sweep_doc) <= 2):
        raise MalformedSpecError("sweep: expected a list of one or two swept parameters")
    allowed_paths = _paths(engine, attack_section is not None)
    sweep: list[SweepParam] = []
    for pos, item in enumerate(sweep_doc):
        where = f"sweep[{pos}]"
        _require_keys(item, {"path", "values"}, {"path", "values"}, where)
        path = item["path"]
        if path not in allowed_paths:
            raise MalformedSpecError(
                f"{where}.path: {path!r} is not a sweepable field for this scenario"
            )
        values = item["values"]
        if not isinstance(values, list) or not values:
            raise MalformedSpecError(f"{where}.values: expected a nonempty list")
        values = [_parse_value(path, v, f"{where}.values[{i}]") for i, v in enumerate(values)]
        if path.startswith("attack."):
            leaf = path.rpartition(".")[2]
            for i, v in enumerate(values):
                _check_attack(replace(attack_section, **{leaf: v}), f"{where}.values[{i}]")
        sweep.append(SweepParam(path=path, values=tuple(values)))
    paths = {p.path for p in sweep}
    if len(paths) != len(sweep):
        raise MalformedSpecError("sweep: the two parameters must target distinct paths")
    for path in paths:
        rate = path.replace("intensity", "arrival_rate")
        if rate != path and rate in paths:
            raise MalformedSpecError(f"sweep: {path!r} sets {rate!r}, so only one may be swept")

    repl_doc = doc.get("replication", {})
    _require_keys(repl_doc, {field.name for field in fields(Replication)}, set(), "replication")
    replication = Replication(
        **{name: _as_int(value, f"replication.{name}") for name, value in repl_doc.items()}
    )
    if replication.target_served < 1:
        raise MalformedSpecError("replication.target_served: must be >= 1")
    if replication.trials < 1:
        raise MalformedSpecError("replication.trials: must be >= 1")

    out = doc.get("output", {})
    _require_keys(out, {"path", "format"}, set(), "output")
    out_path = out.get("path")
    if "path" in out and not (isinstance(out_path, str) and out_path):
        raise MalformedSpecError(f"output.path: expected a nonempty string, got {out_path!r}")
    out_format = out.get("format", "csv")
    if out_format not in _FORMATS:
        raise MalformedSpecError(f"output.format: expected one of {_FORMATS}, got {out_format!r}")

    return ScenarioSpec(
        name=name,
        engine=engine,
        base=base,
        sweep=tuple(sweep),
        replication=replication,
        attack=attack_section,
        output_path=out_path,
        output_format=out_format,
    )


# --------------------------------------------------------------------------
# materialisation and evaluation


def point_seed(master_seed: int, point_index: int) -> int:
    """Stable per-point RNG seed; independent of every other point."""
    digest = hashlib.sha256(f"{master_seed}:{point_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _owners(spec: ScenarioSpec) -> dict:
    """The objects a sweep path addresses, keyed by the path's part before its last ``.``."""
    if _ENGINES[spec.engine].hierarchical:
        return {"primary": spec.base.primary, "secondary": spec.base.secondary, "attack": None}
    return {"": spec.base, "attack": spec.attack}


def _materialize(spec: ScenarioSpec, values: tuple) -> dict:
    """:func:`_owners` with one grid point's ``values`` applied."""
    owners = _owners(spec)
    # Intensity sets the arrival rate from the other fields, so it goes last.
    points = sorted(zip(spec.sweep, values), key=lambda pair: pair[0].path.endswith("intensity"))
    for param, value in points:
        owner, _, name = param.path.rpartition(".")
        target = owners[owner]
        if name == "intensity":
            owners[owner] = with_intensity(target, value)
        else:
            owners[owner] = replace(target, **{name: value})
    return owners


def _path_value(path: str, owners: dict):
    """The materialised value at ``path``, one of :func:`_paths`.

    Intensity is undefined without service capacity, so a chain with no
    servers or a zero service rate echoes it as an empty cell; ``validate``
    then refuses the point.
    """
    owner, _, name = path.rpartition(".")
    config = owners[owner]
    if name != "intensity":
        return getattr(config, name)
    return intensity_of(config) if config.servers * config.service_rate else ""


# Written only by scenarios that carry an attack section.
_ATTACK_COLUMNS = ("attack_probability", "attack_method")


def _markov(config, attack_section, replication, seed) -> dict:
    solution = markov.stationary_solution(config)
    out = {
        "latency": markov.latency(config),
        "mean_queue_length": solution.mean_queue_length,
        "frontier_mass": solution.distribution.truncation_mass_bound,
        "box_i_max": solution.space.i_max,
        "box_j_max": solution.space.j_max,
        "std_error": 0.0,
    }
    if attack_section is not None:
        attack = _attack(config, attack_section, replication, seed)
        out.update((col, attack[col]) for col in _ATTACK_COLUMNS)
    return out


def _closed_form(config, attack_section, replication, seed) -> dict:
    breakdown = queueing.closed_form_latency(config)
    return {
        "latency": breakdown.total,
        "block_wait": breakdown.block_wait,
        "service_stage": breakdown.service_stage,
        "confirmation_wait": breakdown.confirmation_wait,
        "sojourn": breakdown.sojourn,
        "approximate": breakdown.approximate,
        "std_error": 0.0,
    }


def _attack(config, attack_section, replication, seed) -> dict:
    params = attack_mod.AttackParams(
        confirmations=config.confirmations,
        relative_power=attack_section.relative_power,
        giveup_threshold=attack_section.giveup_threshold,
    )
    if attack_section.method == "monte-carlo":
        result = attack_mod.attack_success_montecarlo(params, replication.trials, seed)
    else:
        result = attack_mod.attack_success(params)
    return {
        "attack_probability": result.probability,
        "attack_method": result.method,
        "std_error": result.std_error,
        "trials": "" if result.trials is None else result.trials,
    }


_SIM_COUNT_COLUMNS = ("served", "rejected", "generated", "in_flight", "point_seed")


def _sim_counts(sim: des.SimResult, seed: int) -> dict:
    counts = (sim.served_count, sim.rejected_count, sim.generated_count, sim.in_flight_count, seed)
    return dict(zip(_SIM_COUNT_COLUMNS, counts))


def _simulation(config, attack_section, replication, seed) -> dict:
    sim = des.simulate_chain(config, replication.target_served, seed)
    out = {"latency": sim.mean, "variance": sim.variance}
    out["ci_low"], out["ci_high"] = sim.confidence_interval_95
    return {**out, **_sim_counts(sim, seed)}


def _hierarchical_simulation(config, attack_section, replication, seed) -> dict:
    sim = des.simulate_hierarchical(config, replication.target_served, seed)
    out = {}
    for key in ("e2e", "secondary", "primary"):
        stats = sim.breakdown[key]
        out[f"{key}_latency"] = stats.mean
        out[f"{key}_ci_low"], out[f"{key}_ci_high"] = stats.confidence_interval_95
    out.update(_sim_counts(sim, seed))
    return out


@dataclass(frozen=True)
class _Engine:
    """Everything the sweep runner knows about one engine, so that adding
    or changing an engine edits one record of ``_ENGINES``.

    ``run(config, attack_section, replication, seed)`` returns the result
    columns of one valid point and raises on a typed engine failure, which
    :func:`_run_task` turns into the point's status.
    """

    columns: tuple[str, ...]  # result columns, in row order
    run: Callable[..., dict]
    hierarchical: bool = False  # base is {"primary": ..., "secondary": ...}
    attack_methods: tuple[str, ...] = ()  # accepted attack.method; empty forbids the section
    attack_required: bool = False
    # Points whose configs map to one key share a task, so one solve serves them.
    solve_key: Callable[[ChainConfig], Hashable] | None = None


_ENGINES = {
    "markov": _Engine(
        ("latency", "mean_queue_length", "frontier_mass", "box_i_max", "box_j_max",
         "std_error", *_ATTACK_COLUMNS),
        _markov,
        attack_methods=("auto",),
        solve_key=markov.solve_key,
    ),
    "closed-form": _Engine(
        ("latency", "block_wait", "service_stage", "confirmation_wait", "sojourn",
         "approximate", "std_error"),
        _closed_form,
    ),
    "simulation": _Engine(
        ("latency", "variance", "ci_low", "ci_high", *_SIM_COUNT_COLUMNS),
        _simulation,
    ),
    "attack": _Engine(
        (*_ATTACK_COLUMNS, "std_error", "trials"),
        _attack,
        attack_methods=("auto", "monte-carlo"),
        attack_required=True,
    ),
    "hierarchical-simulation": _Engine(
        tuple(f"{key}_{stat}" for key in ("e2e", "secondary", "primary")
              for stat in ("latency", "ci_low", "ci_high")) + _SIM_COUNT_COLUMNS,
        _hierarchical_simulation,
        hierarchical=True,
    ),
}
ENGINES = tuple(_ENGINES)

_BASE_COLUMNS = ["scenario", "engine", "point_index", "status", "param_1", "value_1", "param_2", "value_2"]


def scenario_header(spec: ScenarioSpec) -> list[str]:
    results = _ENGINES[spec.engine].columns
    if spec.attack is None:
        results = [col for col in results if col not in _ATTACK_COLUMNS]
    echo = [path.replace(".", "_") for path in _paths(spec.engine, spec.attack is not None)]
    return [*_BASE_COLUMNS, *echo, *results]


def _run_task(engine: str, config, attack_section, replication, seed) -> dict:
    """Result columns of one valid point, or the status of its engine's typed
    failure; any other exception stops the run."""
    try:
        return _ENGINES[engine].run(config, attack_section, replication, seed)
    except markov.SolverError:
        return {"status": "solver-failed"}
    except des.SimulationUnstableError:
        return {"status": "skipped-unstable"}


def _run_tasks(tasks: list[tuple]) -> list[dict]:
    return [_run_task(*task) for task in tasks]


def evaluate(specs: list[ScenarioSpec], jobs: int = 1) -> list[dict]:
    """One row per grid point of every spec in ``specs``, in grid order.

    Each point is materialised, echoed and validated here, then run through
    :func:`_run_task`.  Points whose configs map to one ``solve_key`` of
    their engine form one task, so one solve serves them all: a markov
    sweep over confirmation depth solves its chain once.  When ``jobs`` and
    the task count both exceed 1, the tasks run in one process pool of
    ``min(jobs, tasks)`` workers for the whole call.
    """
    # bool is an int subclass, but True is not a count.
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    rows: list[dict] = []
    groups: dict = {}
    for spec in specs:
        paths = _paths(spec.engine, spec.attack is not None)
        solve_key = _ENGINES[spec.engine].solve_key
        grid = itertools.product(*(param.values for param in spec.sweep))
        for index, values in enumerate(grid):
            row = dict.fromkeys(_BASE_COLUMNS, "")
            row.update(scenario=spec.name, engine=spec.engine, point_index=index, status="ok")
            for pos, (param, value) in enumerate(zip(spec.sweep, values), 1):
                row[f"param_{pos}"], row[f"value_{pos}"] = param.path, value
            rows.append(row)
            try:
                owners = _materialize(spec, values)
                row.update((path.replace(".", "_"), _path_value(path, owners)) for path in paths)
                config = owners[""] if "" in owners else HierarchicalConfig(
                    owners["primary"], owners["secondary"]
                )
                validate(config)
            except ValueError:
                # An intensity outside (0, 1) or a config that fails validation.
                row["status"] = "skipped-unstable"
                continue
            seed = point_seed(spec.replication.seed, index)
            task = (spec.engine, config, owners["attack"], spec.replication, seed)
            key = solve_key(config) if solve_key else len(rows)
            groups.setdefault(key, []).append((row, task))
    batches = list(groups.values())
    work = [[task for _, task in batch] for batch in batches]
    # A worker beyond the batch count would only be forked to sit idle.
    workers = min(jobs, len(work))
    if workers <= 1:
        results = map(_run_tasks, work)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_tasks, work))
    for batch, outputs in zip(batches, results):
        for (row, _), output in zip(batch, outputs):
            row.update(output)
    return rows


# --------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(specs: list[ScenarioSpec], path, fmt: str, jobs: int) -> RunSummary:
    if fmt not in _FORMATS:
        raise ValueError(f"fmt: expected one of {_FORMATS}, got {fmt!r}")
    rows = evaluate(specs, jobs)
    header = scenario_header(specs[0])
    with open(path, "w", newline="") as handle:
        if fmt == "csv":
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row.get(col, "")) for col in header])
        else:
            for row in rows:
                ordered = {col: row.get(col, "") for col in header}
                handle.write(json.dumps(ordered) + "\n")
    ok = sum(1 for row in rows if row["status"] == "ok")
    return RunSummary(
        points_total=len(rows),
        points_ok=ok,
        points_skipped=len(rows) - ok,
        out_path=str(path),
    )


def _with_seed(specs: list[ScenarioSpec], seed: int | None) -> list[ScenarioSpec]:
    if seed is None:
        return specs
    return [replace(s, replication=replace(s.replication, seed=seed)) for s in specs]


def run_scenario(
    spec: ScenarioSpec,
    out_path=None,
    fmt: str | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> RunSummary:
    """Evaluate every sweep point of ``spec`` and persist one row per point."""
    resolved_out = out_path or spec.output_path
    if resolved_out is None:
        raise MalformedSpecError("no output path: pass out_path or set output.path")
    return _write_rows(_with_seed([spec], seed), resolved_out, fmt or spec.output_format, jobs)


# --------------------------------------------------------------------------
# presets mirroring the reference experiment sweeps


_PRESET_SEED = 20240801


def _chain_doc(*args, **kwargs) -> dict:
    return asdict(ChainConfig(*args, **kwargs))


# Reference single chain used by the latency presets: one access link of unit
# rate, blocks mined at 2.5 per unit time.  Rejections are disabled here so
# the block-capacity series isolate the batching effect; the fig7 preset
# contrasts a rejecting chain explicitly.
def _reference_chain(arrival_rate=0.5, **overrides) -> dict:
    doc = _chain_doc(arrival_rate, 2.5, 0.0, 1.0)
    doc.update(overrides)
    return doc


def _fig9_primary() -> dict:
    # Generously provisioned uplink chain: the injected secondary traffic is
    # small against its drain capacity, so its latency stays flat.
    return _chain_doc(10.0, 200.0, 0.0, 10.0, servers=10, block_capacity=3)


def _preset_fig6() -> list[dict]:
    return [
        {
            "name": f"fig6/rho-{rho}",
            "engine": "markov",
            "base": _reference_chain(arrival_rate=rho),
            "sweep": [
                {"path": "block_capacity", "values": [1, 3, 6]},
                {"path": "confirmations", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
            ],
        }
        for rho in (0.8, 0.2)
    ]


def _preset_fig7() -> list[dict]:
    variants = [
        ("conventional", _reference_chain(block_capacity=1)),
        ("batched", _reference_chain(block_capacity=3, rejection_rate=0.25)),
    ]
    return [
        {
            "name": f"fig7/{label}",
            "engine": "markov",
            "base": base,
            "sweep": [
                {"path": "intensity", "values": [0.2, 0.5, 0.8]},
                {"path": "confirmations", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
            ],
        }
        for label, base in variants
    ]


def _preset_fig8() -> list[dict]:
    return [
        {
            "name": "fig8",
            "engine": "markov",
            "base": _reference_chain(),
            "sweep": [
                {"path": "intensity", "values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]},
                {"path": "block_capacity", "values": [1, 3, 6]},
            ],
        }
    ]


def _preset_fig9() -> list[dict]:
    return [
        {
            "name": "fig9",
            "engine": "hierarchical-simulation",
            "base": {
                "primary": _fig9_primary(),
                "secondary": _chain_doc(1.0, 10.0, 0.0, 5.0),
            },
            "sweep": [{"path": "secondary.intensity", "values": [0.2, 0.5, 0.8]}],
            "replication": {"seed": _PRESET_SEED, "target_served": 20000},
        }
    ]


def _preset_fig10() -> list[dict]:
    betas = [round(0.05 * k, 2) for k in range(1, 21)]
    specs = []
    for confirmations in (1, 3):
        for giveup in (4, 8):
            specs.append(
                {
                    "name": f"fig10/N-{confirmations}-Ng-{giveup}",
                    "engine": "attack",
                    "base": _chain_doc(0.5, 1.0, 0.0, 1.0, confirmations=confirmations),
                    "sweep": [{"path": "attack.relative_power", "values": betas}],
                    "attack": {"relative_power": 0.5, "giveup_threshold": giveup},
                }
            )
    return specs


def _preset_fig11() -> list[dict]:
    return [
        {
            "name": "fig11",
            "engine": "hierarchical-simulation",
            "base": {
                "primary": _fig9_primary(),
                "secondary": _chain_doc(3.2, 4.0, 0.0, 1.0, servers=4),
            },
            "sweep": [
                {"path": "secondary.servers", "values": [4, 6, 8, 12, 16]},
                {"path": "secondary.block_capacity", "values": [1, 3]},
            ],
            "replication": {"seed": _PRESET_SEED, "target_served": 20000},
        }
    ]


def _preset_fig12() -> list[dict]:
    # A fixed-capability attacker faces chains provisioned in proportion to
    # their link pool, so better-provisioned chains see a lower relative
    # mining power and win on both latency and security.
    attacker_rate = 3.75
    specs = []
    for servers in (10, 25):
        mining_rate = 1.25 * servers
        for capacity in (1, 2, 3):
            specs.append(
                {
                    "name": f"fig12/s-{servers}-k-{capacity}",
                    "engine": "markov",
                    "base": _chain_doc(
                        0.5 * servers, mining_rate, 0.0, 1.0,
                        servers=servers, block_capacity=capacity,
                    ),
                    "sweep": [{"path": "confirmations", "values": [1, 2, 3, 4, 5, 6]}],
                    "attack": {
                        "relative_power": attacker_rate / mining_rate,
                        "giveup_threshold": 8,
                    },
                }
            )
    return specs


_PRESETS: dict[str, tuple[str, callable]] = {
    "fig6": ("latency vs confirmations for block capacities 1/3/6 at intensities 0.8 and 0.2, single chain", _preset_fig6),
    "fig7": ("latency vs confirmations, conventional (capacity 1, no rejection) vs batched chain, at three intensities", _preset_fig7),
    "fig8": ("latency vs traffic intensity, single chain, block capacity in {1,3,6}", _preset_fig8),
    "fig9": ("hierarchical latency vs secondary traffic intensity, primary held fixed", _preset_fig9),
    "fig10": ("attack success probability vs relative mining power for confirmation/give-up combinations", _preset_fig10),
    "fig11": ("hierarchical latency vs secondary link count for block capacities 1 and 3", _preset_fig11),
    "fig12": ("security vs latency frontier across link pools and block capacities as confirmations grow", _preset_fig12),
}


def list_presets() -> list[tuple[str, str]]:
    """Preset names and one-line descriptions, in a fixed order."""
    return [(name, desc) for name, (desc, _) in _PRESETS.items()]


def preset_specs(name: str) -> list[ScenarioSpec]:
    """Parsed sub-scenarios of a preset (a preset may bundle several sweeps)."""
    if name not in _PRESETS:
        known = ", ".join(_PRESETS)
        raise KeyError(f"unknown preset {name!r}; available: {known}")
    return [
        parse_scenario({"schema_version": SCHEMA_VERSION, **doc}) for doc in _PRESETS[name][1]()
    ]


def run_preset(
    name: str,
    out_path,
    fmt: str = "csv",
    seed: int | None = None,
    jobs: int = 1,
) -> RunSummary:
    """Run every sub-scenario of a preset into a single output file."""
    return _write_rows(_with_seed(preset_specs(name), seed), out_path, fmt, jobs)
