"""The package's top-level names are the user API; everything else is
imported from its module."""

import importlib
import inspect
import types

import branlab
from branlab import des, markov

API = {
    "ChainConfig", "HierarchicalConfig", "ConfigValidationError", "validate",
    "with_intensity", "intensity_of",
    "latency", "stationary_solution",
    "closed_form_latency",
    "AttackParams", "attack_success", "attack_success_montecarlo",
    "simulate_chain", "simulate_hierarchical", "SimulationUnstableError", "write_trace_csv",
    "parse_scenario", "run_scenario", "run_preset", "preset_specs", "list_presets",
    "MalformedSpecError",
}

# Solver internals, helpers and result types: imported from their modules.
MODULE_ONLY = {
    "markov": ("RateMatrix", "StateSpace", "SteadyStateDistribution", "auto_truncate",
               "build_generator", "enumerate_states", "mean_queue_length",
               "solve_steady_state"),
    "queueing": ("LatencyBreakdown", "erlang_c"),
    "attack": ("AttackResult", "catch_up_probability", "negbin_pmf"),
    "des": ("RequestRecord", "SimResult"),
    "scenarios": ("ScenarioSpec",),
}


def test_package_exports_exactly_the_user_api():
    public = {
        name for name, value in vars(branlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == API
    missing = [
        f"branlab.{module}.{name}"
        for module, names in MODULE_ONLY.items()
        for name in names
        if not hasattr(importlib.import_module(f"branlab.{module}"), name)
    ]
    assert missing == []


def test_caps_are_module_constants():
    # Each cap had one value outside the tests, so no function takes it.
    assert des.MAX_PENDING == 10**6
    assert markov.MAX_SOLVE_BYTES == 2**30
    for entry in (des.simulate_chain, des.simulate_hierarchical, markov.enumerate_states,
                  markov.build_generator, markov.auto_truncate):
        caps = {"max_pending", "max_states", "max_solve_bytes"}
        assert not caps & set(inspect.signature(entry).parameters)
