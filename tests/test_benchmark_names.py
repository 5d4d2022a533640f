"""The benchmark tracer wraps branlab names by module and attribute, and its
workloads call branlab's command line and engines, so a renamed or deleted
name, option or argument breaks it; this catches that without running it."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import branlab  # noqa: F401  (the tracer installs after the package import)
from branlab import attack, cli, des

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load("spans")
    assert spans.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("branlab.scenarios").ProcessPoolExecutor)


def test_every_workload_call_fits_its_signature(tmp_path):
    workloads = load("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    built = {entry["name"]: workloads.build(entry["name"], 1, tmp_path) for entry in declared}

    parser = cli._build_parser()
    for name in ("presets", "presets-jobs2"):
        for preset in built[name].ops:
            parser.parse_args(built[name]._argv(preset))  # a usage error exits

    stochastic = built["stochastic"]
    for config, mode in stochastic.chains.values():
        inspect.signature(des.simulate_chain).bind(config, stochastic.CHAIN_SERVED, 0, mode)
    inspect.signature(des.simulate_hierarchical).bind(stochastic.hierarchy, stochastic.HIER_SERVED, 0)
    for params in stochastic.attacks.values():
        inspect.signature(attack.attack_success_montecarlo).bind(params, stochastic.MC_TRIALS, 0)
