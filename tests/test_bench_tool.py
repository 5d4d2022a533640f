"""``tools/bench.py`` builds its file from ``perfbench/run.py`` output.

The runs here are canned: no benchmark, Tier-1 suite or git command runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(workload: str, trace: int, wall: float, failed: int = 0) -> str:
    """What ``run.py`` prints: a summary, the metadata line and the record line."""
    if trace:
        # presets-jobs2 runs a pool, whose workers' spans the traced run does
        # not see; only stochastic simulates a single chain.
        pooled, chained = workload == "presets-jobs2", workload == "stochastic"
        metrics = {
            "markov.states_solved": {"value": 0 if pooled else 28851, "unit": "count"},
            "markov.boxes_solved": {"value": 0 if pooled else 33, "unit": "count"},
            "markov.max_box_states": {"value": 0 if pooled else 4096, "unit": "count"},
            "markov.solve_s.large": {"value": 0.05, "unit": "s"},
            "des.chain_s": {"value": 0.5 if chained else 0.0, "unit": "s"},
            "des.generated_per_served": {"value": 1.25 if chained else 0.0, "unit": "ratio"},
            "des.hier_s": {"value": 0.6, "unit": "s"},
            "attack.analytic_calls": {"value": 0 if pooled else 12, "unit": "count"},
            "scenarios.points": {"value": 249, "unit": "count"},
            "scenarios.pools_started": {"value": int(pooled), "unit": "count"},
        }
    else:
        metrics = {
            "setup_s": {"value": 0.2, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": wall + 0.01, "unit": "s"},
            "peak_rss_mb": {"value": 41.5, "unit": "MB"},
        }
    meta = {"workload": workload, "seed": 1, "trace": trace, "python": "3.11.7",
            "src_lines": 2800, "public_names": 22, "workload_detail": {}}
    record = {"correct": not failed, "attempted": 7, "failed": failed, "metrics": metrics}
    return "\n".join([
        f"workload {workload}, seed 1, 1 pass(es), trace {trace}",
        "  wall_s            0.8 s",
        json.dumps({"meta": meta}, sort_keys=True),
        json.dumps(record),
    ]) + "\n"


def test_bench_file_is_built_from_canned_runs(bench, tmp_path, monkeypatch):
    walls = iter([0.9, 0.7, 0.8, 1.3, 0.6] * len(bench.WORKLOADS))
    calls = []

    def fake_run(root, args):
        workload, trace = args[args.index("--workload") + 1], int(args[args.index("--trace") + 1])
        calls.append((workload, trace))
        failed = int(workload == "stochastic" and trace == 0 and len(calls) < 5)
        return _canned(workload, trace, next(walls) if not trace else 0.0, failed)

    monkeypatch.setattr(bench, "_run", fake_run)
    monkeypatch.setattr(bench, "_tier1", lambda root: {"wall_s": 30.0, "exit_code": 0, "summary": "472 passed"})
    monkeypatch.setattr(bench, "_revision", lambda root: {"revision": "abc123", "dirty": False})
    monkeypatch.chdir(ROOT)
    out = tmp_path / "BENCH_T.json"
    assert bench.main(["--out", str(out)]) == 0

    # Five untraced runs of each workload, taken in turn, then one traced run each.
    assert calls[:4] == [(name, 0) for name in bench.WORKLOADS]
    assert calls[-4:] == [(name, 1) for name in bench.WORKLOADS]
    assert len(calls) == 6 * len(bench.WORKLOADS)
    data = json.loads(out.read_text())
    assert (data["revision"], data["dirty"], data["src_lines"], data["public_names"]) == ("abc123", False, 2800, 22)
    assert data["tier1"]["summary"] == "472 passed"
    assert data["settings"] == {"runs": 5, "seed": 1, "seconds": 0}
    presets = data["workloads"]["presets"]
    wall = presets["metrics"]["wall_s"]
    # Runs of presets read 0.9, 0.6, 1.3, 0.8 and 0.7 s in that order.
    assert sorted(wall["values"]) == [0.6, 0.7, 0.8, 0.9, 1.3]
    assert wall["median"] == pytest.approx(0.8)
    assert (wall["q1"], wall["q3"]) == pytest.approx((0.7, 0.9))
    assert wall["iqr"] == pytest.approx(0.2)
    assert wall["unit"] == "s"
    assert set(presets["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    assert (presets["runs"], presets["attempted"], presets["failed"], presets["correct"]) == (5, 35, 0, True)
    # Only counts that repeat exactly; no per-layer time.  A count the traced
    # run cannot see is None, not the 0 it reads.
    assert presets["counts"] == {
        "markov.states_solved": 28851, "markov.boxes_solved": 33, "markov.max_box_states": 4096,
        "des.generated_per_served": None, "attack.analytic_calls": 12, "scenarios.points": 249,
    }
    assert data["workloads"]["presets-jobs2"]["counts"] == {
        "markov.states_solved": None, "markov.boxes_solved": None, "markov.max_box_states": None,
        "des.generated_per_served": None, "attack.analytic_calls": None, "scenarios.points": 249,
    }
    assert data["workloads"]["stochastic"]["counts"]["des.generated_per_served"] == 1.25
    assert presets["meta"]["workload"] == "presets" and presets["meta"]["trace"] == 0
    stochastic = data["workloads"]["stochastic"]
    assert (stochastic["failed"], stochastic["correct"]) == (1, False)


def test_bench_refuses_to_run_outside_a_checkout(bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "_run", lambda root, args: pytest.fail("ran the benchmark"))
    assert bench.main(["--out", str(tmp_path / "BENCH_T.json")]) == 2
    assert not (tmp_path / "BENCH_T.json").exists()
