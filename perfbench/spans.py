"""Spans around calls into branlab's layers, and the per-layer metrics.

The tracer wraps public functions under the name their caller looks up, so
``src/`` stays untouched.  Spans live in memory while the timed operations
run and are written out at the end.  Each span records its name, start,
end, parent and a few attributes read from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import time

# Solves of at most this many states count as small.  It is the dense/sparse
# cut-over of the solver at the time the benchmark was defined.
SMALL_BOX_STATES = 2048


def _states_of_space(args, result):
    return {"states": result.count} if result is not None else {}


def _states_of_matrix(args, result):
    return {"states": args[0].dimension}


def _accepted_states(args, result):
    return {"states": result.space.count} if result is not None else {}


def _sim_counts(args, result):
    if result is None:
        return {}
    return {"served": result.served_count, "generated": result.generated_count}


def _trials(args, result):
    return {"trials": result.trials} if result is not None else {}


def _points(args, result):
    return {"points": result.points_total} if result is not None else {}


# (module, attribute, span name, attribute reader)
TRACED = [
    ("branlab.markov", "enumerate_states", "markov.enumerate_states", _states_of_space),
    ("branlab.markov", "build_generator", "markov.build_generator", None),
    ("branlab.markov", "solve_steady_state", "markov.solve_steady_state", _states_of_matrix),
    ("branlab.markov", "auto_truncate", "markov.auto_truncate", _accepted_states),
    ("branlab.markov", "stationary_solution", "markov.stationary_solution", None),
    ("branlab.markov", "latency", "markov.latency", None),
    ("branlab.des", "simulate_chain", "des.simulate_chain", _sim_counts),
    ("branlab.des", "simulate_hierarchical", "des.simulate_hierarchical", _sim_counts),
    ("branlab.attack", "attack_success", "attack.attack_success", None),
    ("branlab.attack", "attack_success_closed", "attack.attack_success_closed", None),
    ("branlab.attack", "attack_success_direct", "attack.attack_success_direct", None),
    ("branlab.attack", "attack_success_montecarlo", "attack.attack_success_montecarlo", _trials),
    ("branlab.cli", "run_preset", "scenarios.run_preset", _points),
    ("branlab.config", "validate", "config.validate", None),
    ("branlab.markov", "validate", "config.validate", None),
    ("branlab.des", "validate", "config.validate", None),
    ("branlab.scenarios", "validate", "config.validate", None),
]

class Tracer:
    """Records spans while ``recording`` is true; wrappers pass through otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, read_attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
                if read_attrs is not None:
                    span.update(read_attrs(args, result))

        return traced

    def install(self) -> None:
        for module_name, attr, name, read_attrs in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), read_attrs))
        scenarios = importlib.import_module("branlab.scenarios")
        tracer = self

        class CountedPool(scenarios.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                if tracer.recording:
                    tracer._close(tracer._open("scenarios.ProcessPoolExecutor"))
                super().__init__(*args, **kwargs)

        scenarios.ProcessPoolExecutor = CountedPool


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], reach)
        if child["end"] > start:
            covered += child["end"] - start
            reach = child["end"]
    return (span["end"] - span["start"]) - covered


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[dict], child_cpu_s: float, wall_s: float, jobs: int) -> dict:
    """Per-layer metrics from one traced run's spans.

    ``child_cpu_s`` is the CPU time of reaped child processes over the
    timed region; pool workers keep their own spans, so for a pooled run
    the pool's work shows only through it.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def duration(s):
        return s["end"] - s["start"]

    def total(items):
        return sum(duration(s) for s in items)

    def top_level(layer):
        # Spans of a layer entered from outside it.
        return [
            s for s in spans
            if _layer(s["name"]) == layer
            and (s["parent"] is None or _layer(by_id[s["parent"]]["name"]) != layer)
        ]

    solves = named("markov.solve_steady_state")
    small = [s for s in solves if s["states"] <= SMALL_BOX_STATES]
    large = [s for s in solves if s["states"] > SMALL_BOX_STATES]
    states_solved = sum(s["states"] for s in solves)
    accepted = sum(s.get("states", 0) for s in named("markov.auto_truncate"))
    lookups = named("markov.stationary_solution")
    hits = [
        s for s in lookups
        if not any(c["name"] == "markov.auto_truncate" for c in children.get(s["id"], []))
    ]
    chains = named("des.simulate_chain")
    chain_s = total(chains)
    chain_served = sum(s.get("served", 0) for s in chains)
    chain_generated = sum(s.get("generated", 0) for s in chains)
    hiers = named("des.simulate_hierarchical")
    hier_s = total(hiers)
    mc = named("attack.attack_success_montecarlo")
    mc_s = total(mc)
    analytic = [s for s in top_level("attack") if s["name"] != "attack.attack_success_montecarlo"]
    presets = named("scenarios.run_preset")

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "markov.solve_s.large": (total(large), "s"),
        "markov.states_solved": (states_solved, "count"),
        "markov.max_box_states": (max((s["states"] for s in solves), default=0), "count"),
        "markov.useful_states_ratio": (ratio(accepted, states_solved), "ratio"),
        "markov.solve_s.small": (total(small), "s"),
        "markov.enumerate_s": (total(named("markov.enumerate_states")), "s"),
        "markov.assemble_s": (
            sum(self_time(s, children.get(s["id"], [])) for s in named("markov.build_generator")),
            "s",
        ),
        "markov.boxes_solved": (len(solves), "count"),
        "markov.cache_hit_ratio": (ratio(len(hits), len(lookups)), "ratio"),
        "markov.truncate_calls": (len(named("markov.auto_truncate")), "count"),
        "markov.failures": (sum(1 for s in top_level("markov") if "error" in s), "count"),
        "des.chain_s": (chain_s, "s"),
        "des.chain_served_per_s": (ratio(chain_served, chain_s), "1/s"),
        "des.generated_per_served": (ratio(chain_generated, chain_served), "ratio"),
        "des.hier_s": (hier_s, "s"),
        "des.hier_served_per_s": (ratio(sum(s.get("served", 0) for s in hiers), hier_s), "1/s"),
        "attack.mc_s": (mc_s, "s"),
        "attack.mc_trials_per_s": (ratio(sum(s.get("trials", 0) for s in mc), mc_s), "1/s"),
        "attack.analytic_calls": (len(analytic), "count"),
        "attack.analytic_s": (total(analytic), "s"),
        "scenarios.self_s": (
            sum(self_time(s, children.get(s["id"], [])) for s in presets), "s"
        ),
        "scenarios.points": (sum(s.get("points", 0) for s in presets), "count"),
        "scenarios.pools_started": (len(named("scenarios.ProcessPoolExecutor")), "count"),
        "scenarios.worker_cpu_s": (child_cpu_s, "s"),
        "scenarios.worker_util": (ratio(child_cpu_s, wall_s * jobs) if jobs > 1 else 0.0, "ratio"),
        "config.validate_calls": (len(named("config.validate")), "count"),
    }
