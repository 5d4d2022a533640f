import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import branlab
from branlab import des, markov, queueing, scenarios
from branlab.attack import (
    AttackParams,
    attack_success,
    attack_success_closed,
    attack_success_montecarlo,
)
from branlab.cli import main as cli_main
from branlab.config import ChainConfig, HierarchicalConfig
from branlab.scenarios import (
    MalformedSpecError,
    list_presets,
    parse_scenario,
    point_seed,
    preset_specs,
    run_preset,
    run_scenario,
    scenario_header,
)


def chain_doc(**overrides):
    doc = {
        "arrival_rate": 0.5, "mining_rate": 2.5, "rejection_rate": 0.0,
        "service_rate": 1.0, "servers": 1, "block_capacity": 1,
        "rejection_batch": 1, "confirmations": 1,
    }
    doc.update(overrides)
    return doc


def markov_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "unit",
        "engine": "markov",
        "base": chain_doc(),
        "sweep": [{"path": "intensity", "values": [0.2, 0.5]}],
    }
    doc.update(overrides)
    return doc


def sim_doc(**overrides):
    doc = markov_doc(engine="simulation")
    doc["replication"] = {"seed": 7, "target_served": 1500}
    doc.update(overrides)
    return doc


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ------------------------------------------------------------------- schema


def test_round_trip_parse():
    spec = parse_scenario(markov_doc())
    assert spec.engine == "markov"
    assert spec.point_count == 2
    assert spec.sweep[0].path == "intensity"


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.update(sweep=[]), "one or two"),
        (lambda d: d.update(sweep=[{"path": "intensity", "values": [0.1]}] * 3), "one or two"),
        (lambda d: d.update(engine="quantum"), "engine"),
        (lambda d: d["base"].pop("mining_rate"), "missing required"),
        (lambda d: d["base"].update(bogus=2), "unknown field"),
        (lambda d: d.update(sweep=[{"path": "warp", "values": [1]}]), "not a sweepable"),
        (lambda d: d.update(sweep=[{"path": "intensity", "values": []}]), "nonempty"),
        (lambda d: d.update(sweep=[{"path": "servers", "values": [1.5]}]), "integer"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(schema_version=True), "schema_version: expected an integer"),
        (lambda d: d["base"].update(arrival_rate="fast"), "number"),
        (
            lambda d: d.update(
                sweep=[
                    {"path": "intensity", "values": [0.1]},
                    {"path": "intensity", "values": [0.2]},
                ]
            ),
            "distinct",
        ),
        # Every section that must be an object refuses a non-object, naming its path.
        (lambda d: [d], "scenario: expected an object"),
        (lambda d: d.update(base=[1]), "base: expected an object"),
        (
            lambda d: d.update(engine="hierarchical-simulation",
                               base={"primary": 3, "secondary": chain_doc()}),
            "base.primary: expected an object",
        ),
        (lambda d: d.update(attack="auto"), "attack: expected an object"),
        (lambda d: d.update(sweep=["intensity"]), "sweep[0]: expected an object"),
        (lambda d: d.update(replication=7), "replication: expected an object"),
        (lambda d: d.update(output="out.csv"), "output: expected an object"),
        (lambda d: d.update(replication={"target_served": 0}), "replication.target_served"),
        (lambda d: d.update(replication={"trials": -1}), "replication.trials"),
        (lambda d: d.update(replication={"trials": True}), "replication.trials"),
        (lambda d: d.update(name=""), "name: expected a nonempty string"),
        (lambda d: d.update(name=3), "name: expected a nonempty string"),
        (lambda d: d.update(output={"format": "xml"}), "output.format: expected one of"),
        (
            lambda d: d.update(attack={"relative_power": "x", "giveup_threshold": 8}),
            "attack.relative_power: expected a number",
        ),
        (
            lambda d: d.update(attack={"relative_power": 0.3, "giveup_threshold": 2.5}),
            "attack.giveup_threshold: expected an integer",
        ),
        (
            lambda d: d.update(
                attack={"relative_power": 0.3, "giveup_threshold": 8},
                sweep=[{"path": "attack.giveup_threshold", "values": [2.5]}],
            ),
            "sweep[0].values[0]: expected an integer",
        ),
        # Whole numbers past 2**53, or past float range, are refused without
        # echoing them: repr refuses an int of more than 4300 digits.
        (
            lambda d: d.update(sweep=[{"path": "mining_rate", "values": [2.5, 10**5000]}]),
            "sweep[0].values[1]: expected a number in float range",
        ),
        (
            lambda d: d.update(attack={"relative_power": 0.3, "giveup_threshold": 10**400}),
            "attack: giveup_threshold must be at most 2**53",
        ),
        (
            lambda d: d.update(
                attack={"relative_power": 0.3, "giveup_threshold": 8},
                sweep=[{"path": "attack.giveup_threshold", "values": [8, 2**53 + 1]}],
            ),
            "sweep[0].values[1]: giveup_threshold must be at most 2**53",
        ),
        (
            lambda d: d.update(replication={"target_served": 10**5000}),
            "replication.target_served: target_served must be at most 2**53",
        ),
        (
            lambda d: d.update(replication={"trials": 2**53 + 1}),
            "replication.trials: trials must be at most 2**53",
        ),
    ],
)
def test_malformed_documents_are_rejected(mutate, fragment):
    doc = markov_doc()
    root = mutate(doc)
    if isinstance(root, list):  # the mutation built a non-object root
        doc = root
    with pytest.raises(MalformedSpecError) as err:
        parse_scenario(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "make_doc, rate, intensity",
    [
        (lambda: markov_doc(engine="closed-form"), "arrival_rate", "intensity"),
        (lambda: hier_doc(), "secondary.arrival_rate", "secondary.intensity"),
    ],
    ids=["chain", "hierarchy"],
)
def test_arrival_rate_and_intensity_are_not_swept_together(make_doc, rate, intensity):
    # intensity is applied last and would overwrite every swept arrival rate
    doc = make_doc()
    doc["sweep"] = [
        {"path": rate, "values": [0.1, 0.3]},
        {"path": intensity, "values": [0.5, 0.6]},
    ]
    with pytest.raises(MalformedSpecError) as err:
        parse_scenario(doc)
    assert rate in str(err.value) and intensity in str(err.value)


# engine -> (accepted attack.method values, empty where the section is refused;
#            whether the section is required)
ATTACK_RULES = {
    "markov": (("auto",), False),
    "attack": (("auto", "monte-carlo"), True),
    "closed-form": ((), False),
    "simulation": ((), False),
    "hierarchical-simulation": ((), False),
}


@pytest.mark.parametrize("engine", list(ATTACK_RULES))
def test_attack_section_rules(engine):
    assert set(ATTACK_RULES) == set(scenarios.ENGINES)
    methods, required = ATTACK_RULES[engine]
    doc = hier_doc() if engine == "hierarchical-simulation" else markov_doc(engine=engine)
    if required:
        with pytest.raises(MalformedSpecError, match="attack: required"):
            parse_scenario(doc)
    else:
        assert parse_scenario(doc).attack is None

    for method in ("auto", "monte-carlo"):
        doc["attack"] = {"relative_power": 0.3, "giveup_threshold": 6, "method": method}
        if not methods:
            with pytest.raises(MalformedSpecError, match="attack: not allowed"):
                parse_scenario(doc)
        elif method in methods:
            assert parse_scenario(doc).attack.method == method
        else:
            with pytest.raises(MalformedSpecError, match="attack.method"):
                parse_scenario(doc)

    if methods:
        del doc["attack"]["method"]
        doc["sweep"] = [{"path": "attack.relative_power", "values": [0.1, 0.2]}]
        spec = parse_scenario(doc)
        assert spec.attack.method == "auto"
        assert "attack_probability" in scenario_header(spec)


def attack_doc(engine="attack", relative_power=0.3, giveup=8, method="auto", sweep=None):
    doc = markov_doc(engine=engine)
    doc["attack"] = {"relative_power": relative_power, "giveup_threshold": giveup,
                     "method": method}
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


@pytest.mark.parametrize(
    "doc,fragment",
    [
        (attack_doc(relative_power=0.0), "attack: relative_power"),
        (attack_doc(relative_power=-0.5), "attack: relative_power"),
        (attack_doc(relative_power=float("nan")), "attack: relative_power"),
        (attack_doc(relative_power=float("inf")), "attack: relative_power"),
        (attack_doc(engine="markov", giveup=0), "attack: giveup_threshold"),
        (
            attack_doc(sweep=[{"path": "attack.relative_power", "values": [0.0, 0.5]}]),
            "sweep[0].values[0]: relative_power",
        ),
        (
            attack_doc(engine="markov",
                       sweep=[{"path": "attack.giveup_threshold", "values": [0, 8]}]),
            "sweep[0].values[0]: giveup_threshold",
        ),
    ],
)
def test_out_of_range_attack_values_are_malformed(tmp_path, doc, fragment):
    with pytest.raises(MalformedSpecError) as err:
        parse_scenario(doc)
    assert fragment in str(err.value)
    scenario = tmp_path / "bad-attack.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        attack_doc(method="closed-form", sweep=[
            {"path": "confirmations", "values": [3]},
            {"path": "attack.giveup_threshold", "values": [2, 8]},
        ]),
        attack_doc(engine="markov", method="closed-form", giveup=8,
                   sweep=[{"path": "confirmations", "values": [1, 8, 12]}]),
        attack_doc(method="closed-form", giveup=1),
        attack_doc(method="direct-sum"),
        attack_doc(engine="markov", method="direct-sum"),
    ],
)
def test_closed_form_attack_outside_its_domain_is_malformed(doc):
    # the closed form is no longer a selectable method anywhere; the
    # analytic default covers its domain and the rest
    with pytest.raises(MalformedSpecError, match="attack.method"):
        parse_scenario(doc)


def test_closed_form_attack_inside_its_domain_runs(tmp_path):
    doc = attack_doc(engine="markov", giveup=8,
                     sweep=[{"path": "confirmations", "values": [1, 7]}])
    out = tmp_path / "rows.csv"
    summary = run_scenario(parse_scenario(doc), out)
    assert summary.points_ok == 2
    rows = read_rows(out)
    assert {r["attack_method"] for r in rows} == {"direct-sum"}
    for n_conf, row in zip((1, 7), rows):
        closed = attack_success_closed(AttackParams(n_conf, 0.3, 8)).probability
        assert float(row["attack_probability"]) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("path", [7, 1, "", None, True, ["rows.csv"]])
def test_output_path_must_be_a_nonempty_string(path):
    with pytest.raises(MalformedSpecError, match="output.path"):
        parse_scenario(markov_doc(output={"path": path}))


def test_integer_values_may_arrive_as_round_floats():
    doc = markov_doc(sweep=[{"path": "block_capacity", "values": [1.0, 3.0]}])
    spec = parse_scenario(doc)
    assert spec.sweep[0].values == (1, 3)


def test_json_file_parsing_and_diagnostics(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(markov_doc()))
    assert parse_scenario(path).name == "unit"
    path.write_text("{ not json")
    with pytest.raises(MalformedSpecError, match="line 1"):
        parse_scenario(path)
    # JSON text is UTF-8 (RFC 8259, section 8.1), whatever the locale says.
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(MalformedSpecError, match="scenario.json"):
        parse_scenario(path)
    # json refuses an integer literal of more than 4300 digits; the message
    # names the file and leaves the literal out.
    path.write_text(json.dumps(markov_doc()).replace("2.5", "7" * 5000))
    with pytest.raises(MalformedSpecError, match="scenario.json") as err:
        parse_scenario(path)
    assert "7" * 100 not in str(err.value)


# ----------------------------------------------------------------- execution


def test_intensity_path_sets_the_arrival_rate(tmp_path):
    out = tmp_path / "rows.csv"
    run_scenario(parse_scenario(markov_doc()), out)
    rows = read_rows(out)
    assert [float(r["arrival_rate"]) for r in rows] == [0.2, 0.5]
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["std_error"]) == 0.0 for r in rows)


def test_unstable_points_are_reported_not_fatal(tmp_path):
    doc = markov_doc(sweep=[{"path": "arrival_rate", "values": [0.5, 9.0]}])
    out = tmp_path / "rows.csv"
    summary = run_scenario(parse_scenario(doc), out)
    assert (summary.points_ok, summary.points_skipped) == (1, 1)
    rows = read_rows(out)
    assert rows[1]["status"] == "skipped-unstable"
    assert rows[1]["latency"] == ""
    # the materialised config is still echoed on skipped rows
    assert float(rows[1]["arrival_rate"]) == 9.0


def test_a_refused_intensity_echoes_the_rest_of_the_chain():
    doc = markov_doc(engine="closed-form", sweep=[{"path": "intensity", "values": [0.5, 1.2]}])
    ok, skipped = scenarios.evaluate([parse_scenario(doc)])
    assert skipped["status"] == "skipped-unstable"
    # Only the cells that the refused intensity would set are empty.
    assert skipped["arrival_rate"] == skipped["intensity"] == ""
    others = [field.name for field in fields(ChainConfig) if field.name != "arrival_rate"]
    assert [skipped[name] for name in others] == [ok[name] for name in others]


def test_a_refused_secondary_intensity_echoes_the_primary():
    doc = hier_doc(sweep=[{"path": "secondary.intensity", "values": [1.2]}])
    [row] = scenarios.evaluate([parse_scenario(doc)])
    assert row["status"] == "skipped-unstable"
    primary = [value for name, value in row.items() if name.startswith("primary_")]
    assert len(primary) == 9 and "" not in primary
    assert row["secondary_arrival_rate"] == row["secondary_intensity"] == ""
    assert row["secondary_mining_rate"] == 10.0


def test_an_overflowing_intensity_echoes_the_link_count():
    # rho * servers overflows a float, so no arrival rate can be set.
    doc = markov_doc(base=chain_doc(servers=10**400), sweep=[{"path": "intensity", "values": [0.5]}])
    [row] = scenarios.evaluate([parse_scenario(doc)])
    assert row["status"] == "skipped-unstable"
    assert row["servers"] == 10**400
    assert row["arrival_rate"] == row["intensity"] == ""
    assert row["mining_rate"] == 2.5


@pytest.mark.parametrize("doc", [markov_doc(), sim_doc()], ids=["markov", "simulation"])
@pytest.mark.parametrize("field", ["servers", "service_rate"])
def test_zero_service_capacity_is_skipped(doc, field):
    # The intensity echo divides by servers * service_rate; it used to raise
    # ZeroDivisionError before validate could refuse the point.
    spec = parse_scenario({**doc, "sweep": [{"path": field, "values": [0, 1]}]})
    rows = scenarios.evaluate([spec])
    assert [row["status"] for row in rows] == ["skipped-unstable", "ok"]
    assert rows[0][field] == 0 and rows[0]["intensity"] == ""
    assert rows[1]["intensity"] == 0.5


def test_rows_echo_the_materialised_config(tmp_path):
    doc = markov_doc(
        sweep=[
            {"path": "intensity", "values": [0.4]},
            {"path": "confirmations", "values": [1, 3]},
        ]
    )
    out = tmp_path / "rows.csv"
    run_scenario(parse_scenario(doc), out)
    rows = read_rows(out)
    assert [int(r["confirmations"]) for r in rows] == [1, 3]
    assert all(float(r["intensity"]) == pytest.approx(0.4) for r in rows)
    header = scenario_header(parse_scenario(doc))
    assert list(rows[0]) == header


def test_simulation_rows_have_nonzero_intervals(tmp_path):
    out = tmp_path / "sim.csv"
    run_scenario(parse_scenario(sim_doc()), out)
    rows = read_rows(out)
    for row in rows:
        assert float(row["ci_high"]) > float(row["ci_low"])
        assert int(row["served"]) >= 1500


def test_closed_form_engine_rows(tmp_path):
    doc = markov_doc(engine="closed-form")
    doc["sweep"] = [
        {"path": "intensity", "values": [0.4]},
        {"path": "block_capacity", "values": [1, 3]},
    ]
    out = tmp_path / "cf.csv"
    run_scenario(parse_scenario(doc), out)
    rows = read_rows(out)
    for row in rows:
        parts = (
            float(row["block_wait"])
            + float(row["service_stage"])
            + float(row["confirmation_wait"])
        )
        assert float(row["sojourn"]) == pytest.approx(parts)
        assert float(row["std_error"]) == 0.0
    # capacity-one row is exact, the batched row is labelled approximate
    assert rows[0]["approximate"] == "false"
    assert rows[1]["approximate"] == "true"


def test_attack_engine_method_dispatch(tmp_path):
    # the analytic default runs on both sides of giveup_threshold = confirmations
    out = tmp_path / "atk.csv"
    for engine in ("attack", "markov"):
        doc = attack_doc(engine=engine, relative_power=0.4, giveup=6,
                         sweep=[{"path": "confirmations", "values": [1, 2, 7]}])
        del doc["attack"]["method"]
        run_scenario(parse_scenario(doc), out)
        rows = read_rows(out)
        assert [row["attack_method"] for row in rows] == ["direct-sum"] * 3
        assert all(0.0 < float(row["attack_probability"]) < 1.0 for row in rows)
        assert all(float(row["std_error"]) == 0.0 for row in rows)

    doc = attack_doc(relative_power=0.4, giveup=6,
                     sweep=[{"path": "confirmations", "values": [1, 2]}])

    doc["attack"]["method"] = "monte-carlo"
    doc["replication"] = {"seed": 11, "trials": 50_000}
    run_scenario(parse_scenario(doc), out)
    rows = read_rows(out)
    assert all(row["attack_method"] == "monte-carlo" for row in rows)
    assert all(float(row["std_error"]) > 0.0 for row in rows)
    assert all(int(row["trials"]) == 50_000 for row in rows)


def test_rerun_is_byte_identical(tmp_path):
    spec = parse_scenario(sim_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(spec, a)
    run_scenario(spec, b)
    assert a.read_bytes() == b.read_bytes()


def test_default_output_is_header_first(tmp_path):
    # Files hold the header and the rows only, so a default run is byte-reproducible.
    spec = parse_scenario(markov_doc())
    header = scenario_header(spec)
    out = tmp_path / "rows.csv"
    run_scenario(spec, out)
    with open(out, newline="") as handle:
        lines = list(csv.reader(handle))
    assert lines[0] == header
    assert len(lines) == 1 + 2

    out = tmp_path / "rows.jsonl"
    run_scenario(spec, out, fmt="jsonl")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    assert all(list(record) == header for record in records)

    # The benchmark's preset argv still passes the hidden --no-timestamp.
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    assert cli_main(["preset", "fig8", "--out", str(plain)]) == 0
    assert cli_main(["preset", "fig8", "--out", str(flagged), "--no-timestamp"]) == 0
    assert plain.read_bytes() == flagged.read_bytes()


def test_seed_override_changes_stochastic_rows(tmp_path):
    spec = parse_scenario(sim_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(spec, a)
    run_scenario(spec, b, seed=99)
    assert a.read_bytes() != b.read_bytes()


def test_extending_a_sweep_preserves_existing_points(tmp_path):
    short = parse_scenario(sim_doc(sweep=[{"path": "intensity", "values": [0.2, 0.5]}]))
    longer = parse_scenario(sim_doc(sweep=[{"path": "intensity", "values": [0.2, 0.5, 0.7]}]))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(short, a)
    run_scenario(longer, b)
    assert read_rows(b)[:2] == read_rows(a)


def test_parallel_execution_matches_serial(tmp_path, monkeypatch):
    pools = []

    class CountedPool(scenarios.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", CountedPool)
    # Several points of the markov sweep share one solve.
    markov_sweep = markov_doc(
        sweep=[
            {"path": "intensity", "values": [0.2, 0.5]},
            {"path": "confirmations", "values": [1, 2, 3]},
        ]
    )
    for doc in (sim_doc(), markov_sweep):
        spec = parse_scenario(doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        markov._stationary_cached.cache_clear()
        run_scenario(spec, a, jobs=1)
        markov._stationary_cached.cache_clear()
        run_scenario(spec, b, jobs=2)
        assert a.read_bytes() == b.read_bytes()

    # Two sub-scenarios, one with rejection, through a single pool.
    markov._stationary_cached.cache_clear()
    serial = scenarios.evaluate(preset_specs("fig7"), jobs=1)
    markov._stationary_cached.cache_clear()
    pools.clear()
    assert repr(scenarios.evaluate(preset_specs("fig7"), jobs=2)) == repr(serial)
    assert len(pools) == 1


def test_pool_has_no_idle_workers(monkeypatch):
    # A stand-in executor records its size and maps in this process, and a
    # stand-in engine call records the batches, so no process or engine runs.
    sizes, batches = [], []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    def fake_tasks(tasks):
        batches.append(len(tasks))
        return [{} for _ in tasks]

    monkeypatch.setattr(scenarios, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(scenarios, "_run_tasks", fake_tasks)

    scenarios.evaluate(preset_specs("fig9"), jobs=8)
    assert sizes == [3] and batches == [1, 1, 1]

    # Three confirmation depths of one chain share one solve: one batch.
    sizes.clear()
    batches.clear()
    one_batch = parse_scenario(markov_doc(sweep=[{"path": "confirmations", "values": [1, 2, 3]}]))
    scenarios.evaluate([one_batch], jobs=4)
    assert sizes == [] and batches == [3]

    # Every point skipped: nothing to run, and no pool.
    sizes.clear()
    batches.clear()
    unstable = parse_scenario(markov_doc(sweep=[{"path": "arrival_rate", "values": [5.0, 6.0]}]))
    rows = scenarios.evaluate([unstable], jobs=4)
    assert [row["status"] for row in rows] == ["skipped-unstable"] * 2
    assert sizes == [] and batches == []


def test_closed_form_points_past_the_mining_rate_are_ok(tmp_path):
    # Batched mining drains 1.2 > 0.5 per unit time, so R_a >= R_m is stable.
    doc = markov_doc(
        engine="closed-form",
        base=chain_doc(arrival_rate=0.5, mining_rate=0.4, block_capacity=3),
        sweep=[{"path": "confirmations", "values": [1, 2]}],
    )
    out = tmp_path / "cf.csv"
    summary = run_scenario(parse_scenario(doc), out)
    assert (summary.points_ok, summary.points_skipped) == (2, 0)
    rows = read_rows(out)
    assert [r["approximate"] for r in rows] == ["true"] * 2
    assert float(rows[1]["latency"]) - float(rows[0]["latency"]) == pytest.approx(1 / 0.4)


def test_overflowing_pending_root_is_skipped_not_fatal(tmp_path):
    # Every rate product is finite, but the pending-stage root overflows, so
    # validation refuses the point.
    doc = markov_doc(
        engine="closed-form",
        base=chain_doc(arrival_rate=1e307, mining_rate=8e307, service_rate=1e308,
                       block_capacity=2),
        sweep=[{"path": "confirmations", "values": [1, 2]}],
    )
    out = tmp_path / "cf.csv"
    summary = run_scenario(parse_scenario(doc), out)
    assert (summary.points_total, summary.points_skipped) == (2, 2)
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["skipped-unstable"] * 2
    assert all(r["latency"] == "" and r["block_wait"] == "" for r in rows)


# Chains that pass every check before the pending-stage root: Newton's slope
# overflows, the mining load is one to floating-point precision, or
# R_a (1 - z0), the divisor of the block wait, rounds to zero.
ROOTLESS_CHAINS = {
    "slope-overflow": chain_doc(arrival_rate=1e307, mining_rate=8e307, service_rate=1e308,
                                block_capacity=2),
    "root-rounds-to-one": chain_doc(arrival_rate=3.9e-05, mining_rate=1e-05,
                                    rejection_rate=3e-06, service_rate=7.8e-05,
                                    block_capacity=3, rejection_batch=3),
    "block-wait-divisor-rounds-to-zero": chain_doc(arrival_rate=5e-324, mining_rate=1e-323,
                                                   service_rate=1e-323),
}


@pytest.mark.parametrize("chain", ROOTLESS_CHAINS)
@pytest.mark.parametrize("engine, side", [
    ("markov", None), ("closed-form", None), ("simulation", None), ("attack", None),
    ("hierarchical-simulation", "primary"), ("hierarchical-simulation", "secondary"),
])
def test_a_chain_without_a_pending_root_is_skipped(tmp_path, engine, side, chain):
    sweep = [{"path": "confirmations" if side is None else f"{side}.confirmations",
              "values": [1, 2]}]
    if side is not None:
        doc = hier_doc(sweep=sweep)
        doc["base"][side] = ROOTLESS_CHAINS[chain]
    else:
        doc = attack_doc(sweep=sweep) if engine == "attack" else sim_doc(engine=engine, sweep=sweep)
        doc["base"] = ROOTLESS_CHAINS[chain]
    spec = parse_scenario(doc)
    out = tmp_path / "rows.csv"
    summary = run_scenario(spec, out)
    assert (summary.points_total, summary.points_skipped) == (2, 2)
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["skipped-unstable"] * 2
    echo = [path.replace(".", "_") for path in scenarios._paths(engine, spec.attack is not None)]
    results = set(scenario_header(spec)) - {*scenarios._BASE_COLUMNS, *echo}
    assert results and all(r[c] == "" for r in rows for c in results)


def edge_rate_sweeps():
    """Sweeps at the edges of the valid ranges, each with the statuses of its
    rows: three that once stopped with a traceback (a simulation whose
    variance passes the float64 range, Monte Carlo attacks numpy cannot draw,
    and a chain whose block wait has no divisor) and Monte Carlo attacks at
    the largest give-up threshold, where an array sized by it could not be
    allocated.  CI runs the same documents without scipy."""
    slow = sim_doc(base=chain_doc(arrival_rate=0.5e-200, mining_rate=2.5e-200, service_rate=1e-200),
                   sweep=[{"path": "arrival_rate", "values": [0.5e-200]}],
                   replication={"seed": 1, "target_served": 2000})
    strong = attack_doc(relative_power=1e19, method="monte-carlo",
                        sweep=[{"path": "confirmations", "values": [1, 2]}])
    strong["replication"] = {"seed": 1, "trials": 1000}
    patient = attack_doc(relative_power=2.0, giveup=2**53, method="monte-carlo",
                         sweep=[{"path": "confirmations", "values": [1, 2**40]}])
    patient["replication"] = {"seed": 1, "trials": 1000}
    subnormal = markov_doc(engine="closed-form", base=chain_doc(arrival_rate=5e-324),
                           sweep=[{"path": "mining_rate", "values": [1e-323, 1.0]}])
    return [(slow, ["ok"]), (strong, ["ok", "ok"]), (subnormal, ["skipped-unstable", "ok"]),
            (patient, ["ok", "ok"])]


@pytest.mark.parametrize("doc, statuses", edge_rate_sweeps())
def test_edge_rate_sweeps_write_every_row(doc, statuses):
    rows = scenarios.evaluate([parse_scenario(doc)])
    assert [row["status"] for row in rows] == statuses
    if doc["engine"] == "simulation":
        assert rows[0]["variance"] == math.inf and math.isfinite(rows[0]["latency"])
    if doc["engine"] == "attack":
        assert [row["attack_probability"] for row in rows] == [1.0, 1.0]


def test_a_simulation_whose_clock_overflows_is_skipped():
    doc = sim_doc(base=chain_doc(arrival_rate=0.5e-305, mining_rate=2.5e-305, service_rate=1e-305),
                  sweep=[{"path": "arrival_rate", "values": [0.5e-305]}],
                  replication={"seed": 1, "target_served": 2000})
    rows = scenarios.evaluate([parse_scenario(doc)])
    assert [row["status"] for row in rows] == ["skipped-unstable"]


@pytest.mark.parametrize("engine", ["markov", "closed-form", "simulation", "attack"])
@pytest.mark.parametrize("field", ["servers", "block_capacity", "confirmations"])
def test_counts_past_two_to_the_53_are_skipped(engine, field):
    # Such counts overflow a rate product, or make a sum over confirmations
    # endless; validate refuses them, so the rest of the sweep still runs.
    sweep = [{"path": field, "values": [1, 2**53 + 1, 10**400]}]
    doc = attack_doc(sweep=sweep) if engine == "attack" else sim_doc(engine=engine, sweep=sweep)
    rows = scenarios.evaluate([parse_scenario(doc)])
    assert [row["status"] for row in rows] == ["ok", "skipped-unstable", "skipped-unstable"]


def test_single_request_blocks_match_the_solver_with_rejection(tmp_path):
    doc = markov_doc(
        engine="closed-form",
        base=chain_doc(mining_rate=2.5, servers=3, confirmations=2),
        sweep=[
            {"path": "rejection_rate", "values": [0.0, 0.25, 1.25]},
            {"path": "intensity", "values": [0.3, 0.8]},
        ],
    )
    out = tmp_path / "cf.csv"
    run_scenario(parse_scenario(doc), out)
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 6
    for row in rows:
        assert row["approximate"] == "false"
        cfg = ChainConfig(
            float(row["arrival_rate"]), 2.5, float(row["rejection_rate"]), 1.0,
            servers=3, confirmations=2,
        )
        assert float(row["latency"]) == pytest.approx(markov.latency(cfg), rel=1e-7)


@pytest.mark.parametrize(
    "error",
    [
        markov.ReducibleChainError("stationary solve produced no probability mass"),
        markov.SolverConvergenceError("stationary residual 1e-6 exceeds 1e-9"),
        markov.TruncationDidNotConverge("no convergence", i_max=40, j_max=512,
                                        frontier_mass=1e-3),
        markov.StateSpaceLimitError("box (40, 512) would keep 1394089984 bytes in its solve, "
                                    "above 1073741824"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_solver_failure_is_reported_not_fatal(tmp_path, monkeypatch, error):
    assert isinstance(error, markov.SolverError)

    def fail(config):
        raise error

    # No cheap valid configuration fails to solve, so the failure is injected.
    monkeypatch.setattr(markov, "stationary_solution", fail)
    doc = markov_doc(
        base=chain_doc(arrival_rate=40.0, mining_rate=62.5, servers=50, block_capacity=3),
        sweep=[{"path": "confirmations", "values": [1, 2]}],
    )
    spec = parse_scenario(doc)
    out = tmp_path / "rows.csv"
    summary = run_scenario(spec, out)
    assert (summary.points_total, summary.points_ok) == (2, 0)
    rows = read_rows(out)
    assert list(rows[0]) == scenario_header(spec)
    assert [r["status"] for r in rows] == ["solver-failed"] * 2
    assert all(r["latency"] == "" and r["box_i_max"] == "" for r in rows)
    assert [int(r["confirmations"]) for r in rows] == [1, 2]


def test_untyped_solver_exception_propagates(tmp_path, monkeypatch):
    # Only typed solver errors become rows; anything else is a bug and stops the run.
    def fail(config):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(markov, "stationary_solution", fail)
    spec = parse_scenario(markov_doc())
    out = tmp_path / "rows.csv"
    with pytest.raises(ZeroDivisionError):
        run_scenario(spec, out)
    assert not out.exists()


def hier_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "hier",
        "engine": "hierarchical-simulation",
        "base": {
            "primary": chain_doc(arrival_rate=2.0, mining_rate=50.0, service_rate=4.0,
                                 servers=4, block_capacity=3),
            "secondary": chain_doc(mining_rate=10.0, service_rate=5.0),
        },
        "sweep": [{"path": "secondary.intensity", "values": [0.3, 0.6]}],
        "replication": {"seed": 3, "target_served": 800},
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "make_doc",
    [
        markov_doc,
        lambda: attack_doc(engine="markov"),
        lambda: markov_doc(engine="closed-form"),
        sim_doc,
        attack_doc,
        lambda: {**attack_doc(method="monte-carlo"), "replication": {"seed": 1, "trials": 1000}},
        hier_doc,
    ],
    ids=["markov", "markov-attack", "closed-form", "simulation", "attack", "attack-monte-carlo",
         "hierarchical-simulation"],
)
def test_engine_rows_fill_exactly_their_result_columns(make_doc):
    # A row pairs its engine's columns with the evaluator's values by
    # position, and the writer blanks a header column that no row key fills,
    # so each cell is checked against a direct call of its engine.
    spec = parse_scenario(make_doc())
    echo = [path.replace(".", "_") for path in scenarios._paths(spec.engine, spec.attack is not None)]
    prefix = {*scenarios._BASE_COLUMNS, *echo}
    results = set(scenario_header(spec)) - prefix
    rows = scenarios.evaluate([spec])
    assert rows and all(row["status"] == "ok" for row in rows)
    for row in rows:
        assert set(row) - prefix == results
        direct = direct_result(spec, row, point_seed(spec.replication.seed, row["point_index"]))
        assert {col: row[col] for col in results} == direct


def echoed_chain(row, prefix=""):
    names = [field.name for field in fields(ChainConfig)]
    return ChainConfig(**{name: row[prefix + name] for name in names})


def direct_result(spec, row, seed):
    """The result cells of ``row``, from a direct call of its engine."""
    replication = spec.replication
    if spec.engine == "hierarchical-simulation":
        config = HierarchicalConfig(echoed_chain(row, "primary_"), echoed_chain(row, "secondary_"))
        sim = des.simulate_hierarchical(config, replication.target_served, seed)
        out = {}
        for key, stats in sim.breakdown.items():
            out[f"{key}_latency"] = stats.mean
            out[f"{key}_ci_low"], out[f"{key}_ci_high"] = stats.confidence_interval_95
        return {**out, **sim_counts(sim, seed)}
    config = echoed_chain(row)
    if spec.engine == "simulation":
        sim = des.simulate_chain(config, replication.target_served, seed)
        low, high = sim.confidence_interval_95
        return {"latency": sim.mean, "variance": sim.variance, "ci_low": low, "ci_high": high,
                **sim_counts(sim, seed)}
    if spec.engine == "closed-form":
        breakdown = queueing.closed_form_latency(config)
        return {"latency": breakdown.total, "block_wait": breakdown.block_wait,
                "service_stage": breakdown.service_stage,
                "confirmation_wait": breakdown.confirmation_wait, "sojourn": breakdown.sojourn,
                "approximate": breakdown.approximate, "std_error": 0.0}
    out = {}
    if spec.attack is not None:
        params = AttackParams(config.confirmations, row["attack_relative_power"],
                              row["attack_giveup_threshold"])
        if spec.attack.method == "monte-carlo":
            attack = attack_success_montecarlo(params, replication.trials, seed)
        else:
            attack = attack_success(params)
        out = {"attack_probability": attack.probability, "attack_method": attack.method}
        if spec.engine == "attack":
            trials = "" if attack.trials is None else attack.trials
            return {**out, "std_error": attack.std_error, "trials": trials}
    solution = markov.stationary_solution(config)
    return {
        "latency": markov.latency(config),
        "mean_queue_length": solution.mean_queue_length,
        "frontier_mass": solution.distribution.truncation_mass_bound,
        "box_i_max": solution.space.i_max,
        "box_j_max": solution.space.j_max,
        "std_error": 0.0,
        **out,
    }


def sim_counts(sim, seed):
    return {"served": sim.served_count, "rejected": sim.rejected_count,
            "generated": sim.generated_count, "in_flight": sim.in_flight_count,
            "point_seed": seed}


@pytest.mark.parametrize("doc", [sim_doc(), hier_doc()], ids=["chain", "hierarchy"])
def test_runaway_simulation_is_reported_not_fatal(tmp_path, monkeypatch, doc):
    def runaway(config, target_served, seed):
        raise des.SimulationUnstableError("pending pool exceeded 1000000 on chain 'primary'")

    # A real runaway grows a million pending records before it raises, so
    # the failure is injected.
    monkeypatch.setattr(des, "simulate_chain", runaway)
    monkeypatch.setattr(des, "simulate_hierarchical", runaway)
    spec = parse_scenario(doc)
    out = tmp_path / "rows.csv"
    summary = run_scenario(spec, out)
    assert (summary.points_total, summary.points_ok) == (2, 0)
    rows = read_rows(out)
    assert list(rows[0]) == scenario_header(spec)
    assert [r["status"] for r in rows] == ["skipped-unstable"] * 2
    header = scenario_header(spec)
    results = [c for c in header if c.endswith("latency") or c == "served"]
    assert results and all(r[c] == "" for r in rows for c in results)
    echoes = [c for c in header if c.endswith("mining_rate")]
    assert echoes and all(r[c] for r in rows for c in echoes)


def test_overloaded_primary_is_skipped_without_simulating(tmp_path, monkeypatch):
    def never(config, target_served, seed):
        raise AssertionError("an invalid hierarchy reached the simulator")

    monkeypatch.setattr(des, "simulate_hierarchical", never)
    # the primary's mining stage carries 0.99 plus the secondary's 0.5
    doc = hier_doc(
        base={
            "primary": chain_doc(arrival_rate=0.99, mining_rate=1.0, servers=4),
            "secondary": chain_doc(arrival_rate=0.5, mining_rate=1.0),
        },
        sweep=[{"path": "secondary.arrival_rate", "values": [0.5]}],
    )
    out = tmp_path / "rows.csv"
    summary = run_scenario(parse_scenario(doc), out)
    assert (summary.points_total, summary.points_skipped) == (1, 1)
    assert read_rows(out)[0]["status"] == "skipped-unstable"


def test_jsonl_output(tmp_path):
    out = tmp_path / "rows.jsonl"
    spec = parse_scenario(markov_doc())
    run_scenario(spec, out, fmt="jsonl")
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert list(row) == scenario_header(spec)
    # Formats are case-sensitive: "CSV" used to fall through to JSON lines.
    upper = tmp_path / "rows.CSV"
    with pytest.raises(ValueError, match="'CSV'"):
        run_scenario(spec, upper, fmt="CSV")
    with pytest.raises(ValueError, match="'CSV'"):
        run_preset("fig10", upper, fmt="CSV")
    assert not upper.exists()



@pytest.mark.parametrize("jobs", [0, -3, True, 2.5, "2"])
def test_jobs_must_be_a_positive_integer(tmp_path, jobs):
    # The API refuses what the CLI's --jobs refuses, before any file is made.
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_scenario(parse_scenario(markov_doc()), out, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_preset("fig10", out, jobs=jobs)
    assert not out.exists()

def test_point_seed_is_stable():
    assert point_seed(7, 0) == point_seed(7, 0)
    assert point_seed(7, 0) != point_seed(7, 1)
    assert point_seed(8, 0) != point_seed(7, 0)


def test_output_section_supplies_path_and_format(tmp_path):
    out = tmp_path / "from-spec.jsonl"
    doc = markov_doc(output={"path": str(out), "format": "jsonl"})
    summary = run_scenario(parse_scenario(doc))
    assert summary.out_path == str(out)
    assert len(out.read_text().splitlines()) == 2
    with pytest.raises(MalformedSpecError, match="output path"):
        run_scenario(parse_scenario(markov_doc()))


def test_hierarchical_sweep_paths(tmp_path):
    out = tmp_path / "hier.csv"
    summary = run_scenario(parse_scenario(hier_doc()), out)
    assert summary.points_ok == 2
    rows = read_rows(out)
    assert [float(r["secondary_arrival_rate"]) for r in rows] == [1.5, 3.0]
    assert all(float(r["e2e_latency"]) > float(r["primary_latency"]) for r in rows)


# ------------------------------------------------------------------- presets


def test_preset_catalogue():
    entries = list_presets()
    names = [name for name, _ in entries]
    assert names == ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]
    byname = dict(entries)
    assert "traffic intensity" in byname["fig8"] and "single chain" in byname["fig8"]
    assert "hierarchical" in byname["fig9"] and "secondary" in byname["fig9"]
    assert len(entries) == 7


def test_every_preset_parses():
    for name, _ in list_presets():
        specs = preset_specs(name)
        assert specs
        for spec in specs:
            assert spec.point_count >= 1


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_preset_sub_scenarios_share_one_header(name):
    # A preset's rows are all written under its first sub-scenario's header.
    headers = {tuple(scenario_header(spec)) for spec in preset_specs(name)}
    assert len(headers) == 1


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset_specs("fig99")


def test_preset_run_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    summary = run_preset("fig10", a)
    assert summary.points_ok == summary.points_total == 80
    run_preset("fig10", b)
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert {r["scenario"] for r in rows} == {
        "fig10/N-1-Ng-4", "fig10/N-1-Ng-8", "fig10/N-3-Ng-4", "fig10/N-3-Ng-8",
    }


# ----------------------------------------------------------------------- cli


def test_cli_run_and_exit_codes(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(markov_doc()))
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out), "--no-timestamp"]) == 0
    assert out.exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli_main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    bad.write_bytes(b"\xff\xfe{}")
    assert cli_main(["run", "--scenario", str(bad), "--out", str(out)]) == 2

    missing = tmp_path / "missing" / "out.csv"
    assert cli_main(["preset", "fig10", "--out", str(missing)]) == 3

    assert cli_main(["preset", "fig99", "--out", str(out)]) == 2


def test_cli_output_is_utf8_under_an_ascii_locale(tmp_path):
    # The CSV must not take the locale's encoding: a non-ASCII scenario name
    # under LC_ALL=C would stop the writer half way through the file.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(markov_doc(name="\u03c1-sweep"), ensure_ascii=False), "utf-8")
    out = tmp_path / "out.csv"
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONPATH": str(Path(branlab.__file__).resolve().parents[1]),
    }
    argv = ["run", "--scenario", str(scenario), "--out", str(out)]
    run = subprocess.run([sys.executable, "-m", "branlab.cli", *argv], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    assert "\u03c1-sweep" in out.read_text(encoding="utf-8")


def test_cli_key_error_from_evaluation_propagates(tmp_path, monkeypatch, capsys):
    # Only an unknown preset name is a usage error; a KeyError raised while
    # evaluating is a fault, so it propagates with its traceback.
    def broken(config, attack_section, replication, seed):
        raise KeyError("latency")

    monkeypatch.setitem(
        scenarios._ENGINES, "markov", replace(scenarios._ENGINES["markov"], run=broken)
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(markov_doc()))
    out = tmp_path / "out.csv"
    with pytest.raises(KeyError, match="latency"):
        cli_main(["run", "--scenario", str(scenario), "--out", str(out)])
    with pytest.raises(KeyError, match="latency"):
        cli_main(["preset", "fig6", "--out", str(out)])
    assert not out.exists()

    assert cli_main(["preset", "fig99", "--out", str(out)]) == 2
    assert "unknown preset 'fig99'" in capsys.readouterr().err


def test_cli_run_out_defaults_to_the_output_path(tmp_path, capsys):
    out = tmp_path / "from-spec.csv"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(markov_doc(output={"path": str(out)})))
    assert cli_main(["run", "--scenario", str(scenario), "--no-timestamp"]) == 0
    assert len(read_rows(out)) == 2

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(markov_doc()))
    assert cli_main(["run", "--scenario", str(bare)]) == 2
    assert "no output path" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exit_:
        cli_main(["preset", "fig10"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-2", str(2**53 + 1)])
def test_cli_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(markov_doc()))
    out = tmp_path / "out.csv"
    for argv in (["run", "--scenario", str(scenario)], ["preset", "fig10"]):
        with pytest.raises(SystemExit) as exit_:
            cli_main([*argv, "--out", str(out), "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_cli_list_presets(capsys):
    assert cli_main(["list-presets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[2].startswith("fig8\t")


def test_cli_all_points_skipped_is_failure(tmp_path):
    doc = markov_doc(sweep=[{"path": "arrival_rate", "values": [5.0, 9.0]}])
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
