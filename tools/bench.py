"""Write one point of the benchmark trajectory, a ``BENCH_<n>.json`` file.

Run from the root of a checkout:

    python3 tools/bench.py --out BENCH_<n>.json

It drives ``perfbench/run.py`` unchanged, as a user would:

* Each workload gets ``RUNS`` runs at ``--trace 0 --seconds 0``, taken in
  turn across the workloads so that a slow spell of the machine spreads
  over all of them.  Each run is one set-up-only pass and the workload's
  fewest timed passes.  The file keeps, across runs, the median and
  quartiles of ``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mb``, each
  run's value, and the failed and attempted operations.
* One ``--trace 1`` run per workload gives the counts that repeat exactly
  (``COUNTS``).  A single traced pass cannot resolve per-layer times, so
  they are left out.  A count the traced run cannot see is ``null``, not
  0: pool workers keep their own spans, so a pooled run sees none of the
  markov, des and attack layers' counts, and ``des.generated_per_served``
  needs a single-chain simulation.
* The Tier-1 suite is timed once.  The git revision, whether tracked files
  differ from it, ``src_lines``, ``public_names`` and each workload's run
  metadata go in beside the numbers.

Every file is made at the same ``RUNS`` and ``SEED``, so that any two can
be compared; they are recorded under ``settings``.

Wall-time budget: 2.5 minutes on a 2-core machine.
One such run took 103 s: about 10 s a round of the four workloads, 10 s
of traced runs and 40 s of Tier-1.  The file records what its run took.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("presets", "presets-jobs2", "solver-heavy", "stochastic")
RUNS = 5  # untraced runs per workload
SEED = 1  # the workloads' seed
TIMINGS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
COUNTS = (
    "markov.states_solved",
    "markov.boxes_solved",
    "markov.max_box_states",
    "des.generated_per_served",
    "attack.analytic_calls",
    "scenarios.points",
)
WORKER_LAYERS = ("markov.", "des.", "attack.")  # counted inside pool workers, when there are any
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def parse_run(stdout: str) -> dict:
    """The record on ``run.py``'s last line, with the ``meta`` of the line before it."""
    *rest, last = stdout.strip().splitlines()
    record = json.loads(last)
    record["meta"] = next(json.loads(line)["meta"] for line in reversed(rest) if line.startswith('{"meta"'))
    return record


def summarise(records: list[dict]) -> dict:
    """Median, quartiles and every value of each timing across runs of one workload."""
    metrics = {}
    for name in TIMINGS:
        values = [r["metrics"][name]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {
            "unit": records[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values,
        }
    return {
        "runs": len(records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "correct": all(r["correct"] for r in records),
        "metrics": metrics,
    }


def counts(metrics: dict) -> dict:
    """``COUNTS`` of one traced run, ``None`` where the run cannot see one."""
    pooled = metrics["scenarios.pools_started"]["value"] > 0
    chained = metrics["des.chain_s"]["value"] > 0
    unseen = {c for c in COUNTS if pooled and c.startswith(WORKER_LAYERS)}
    if not chained:
        unseen.add("des.generated_per_served")
    return {c: None if c in unseen else metrics[c]["value"] for c in COUNTS}


def build(timed: dict[str, list[str]], traced: dict[str, str], tier1: dict, revision: dict) -> dict:
    """The file's content from ``run.py``'s standard output of each run."""
    workloads = {}
    for name, outputs in timed.items():
        records = [parse_run(out) for out in outputs]
        entry = summarise(records)
        entry["counts"] = counts(parse_run(traced[name])["metrics"])
        entry["meta"] = records[0]["meta"]
        workloads[name] = entry
    env = next(iter(workloads.values()))["meta"]
    return {
        **revision,
        "src_lines": env["src_lines"],
        "public_names": env["public_names"],
        "tier1": tier1,
        "workloads": workloads,
    }


def _run(root: Path, args: list[str]) -> str:
    done = subprocess.run(args, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(args[1:])} exited with code {done.returncode}")
    return done.stdout


def _tier1(root: Path) -> dict:
    """Time the Tier-1 suite once; a failing suite is recorded, not hidden."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    started = time.monotonic()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {
        "wall_s": time.monotonic() - started,
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
    }


def _revision(root: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout
    return {
        "revision": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="file to write, BENCH_<n>.json by convention")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        print("no perfbench/run.py here: run from the root of a checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    bench = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "0"]
    timed = {name: [] for name in WORKLOADS}
    for _ in range(RUNS):
        for name in WORKLOADS:
            timed[name].append(_run(root, bench + ["--workload", name, "--trace", "0"]))
    traced = {name: _run(root, bench + ["--workload", name, "--trace", "1"]) for name in WORKLOADS}
    result = build(timed, traced, _tier1(root), _revision(root))
    result["settings"] = {"runs": RUNS, "seed": SEED, "seconds": 0}
    result["elapsed_s"] = time.monotonic() - started
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {result['elapsed_s']:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
