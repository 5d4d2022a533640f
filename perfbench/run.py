"""branlab's benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 8 --trace 0

Workloads (see ``workloads.py``): ``presets`` and ``presets-jobs2`` run all
seven presets through the command line at ``--jobs 1`` and ``--jobs 2``;
``solver-heavy`` makes cold stationary solves on large and many-link
configurations; ``stochastic`` makes long simulations and Monte Carlo attack
estimates.

Every pass runs in a fresh interpreter, because the solve cache lives in
the process and a command-line user pays the cold cost on every call.

With ``--trace 0`` it first starts a few interpreters that only set up, for
the median ``setup_s``, then runs timed passes until their wall time adds
up to ``--seconds`` (at least one), and reports medians of ``setup_s``,
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and prints ``fail_ratio``, the
share of operations that raised or failed their output check.  With ``--trace 1`` it runs one untraced and one traced pass and
reports per-layer metrics from the traced pass's spans, with the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it are a readable summary and the run's metadata.

Failed operations are counted in ``failed`` and ``fail_ratio``; ``correct``
is false only when one fails that is not among the known defects listed in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("presets", "presets-jobs2", "solver-heavy", "stochastic")
# Interpreters started only to time set-up; each timed pass adds one more sample.
SETUP_ONLY_RUNS = 1
# With two pool workers each running OpenBLAS threads on two CPUs, one pass of
# presets-jobs2 takes anywhere from 14 to 19 s; a median over two passes
# narrows the spread between runs.
MIN_PASSES = {"presets-jobs2": 2}
# The whole run must end within 180 s; stop starting passes well before.
DEADLINE_S = 165.0


class BenchError(RuntimeError):
    pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker's process group and wait until every member has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_worker(root: Path, workload: str, seed: int, mode: str, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    result_path = workdir / "result.json"
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    # Fixed string hashing: with random hashing the memory layout, and with it
    # peak RSS, changed by a quarter between runs of the same inputs.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workdir", str(workdir), "--result", str(result_path),
        "--spans-out", str(spans_path),
    ]
    try:
        launched = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--launched", repr(launched)],
            cwd=root, env=env, stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass of {workload} ran past the deadline") from None
        finally:
            _stop_group(proc)
        if code != 0:
            raise BenchError(f"{mode} pass of {workload} exited with code {code}")
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check_against_serial(passes: list[dict], serial: dict) -> None:
    """Count each pooled preset whose CSV differs from the serial run's as failed."""
    expected = serial["workload_meta"]["csv_sha256"]
    for p in passes:
        for preset, digest in p["workload_meta"]["csv_sha256"].items():
            if expected.get(preset) != digest:
                p["errors"][preset] = "check failed: CSV differs from the serial run"
                p["unexpected"].append(preset)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "branlab" / "__init__.py").is_file():
        print("no branlab sources under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    def run(mode, workload=args.workload):
        return _run_worker(root, workload, args.seed, mode, deadline)

    try:
        if args.trace:
            passes = [run("timed"), run("traced")]
            setups = []
        else:
            setups = [run("setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
            passes = []
            min_passes = MIN_PASSES.get(args.workload, 1)
            while len(passes) < min_passes or sum(p["wall_s"] for p in passes) < args.seconds:
                started = time.monotonic()
                passes.append(run("timed"))
                took = time.monotonic() - started
                if time.monotonic() + 2 * took > deadline:
                    break
        if args.workload == "presets-jobs2":
            _check_against_serial(passes, run("timed", workload="presets"))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    unexpected = sorted({name for p in passes for name in p["unexpected"]})
    walls = [p["wall_s"] for p in passes]
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), trace {args.trace}")
    if args.trace:
        untraced, traced = passes
        metrics = {name: _metric(value, unit) for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = _metric(traced["wall_s"] - untraced["wall_s"], "s")
        print(f"  untraced wall_s {untraced['wall_s']:.4f} s, traced wall_s {traced['wall_s']:.4f} s")
        if args.workload == "presets-jobs2":
            print(
                "  pool workers keep their own spans: per-layer figures come from the "
                "parent's spans plus RUSAGE_CHILDREN"
            )
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        print(f"  setup_s samples {len(setups)}, wall_s samples {len(walls)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':28s} {failed / attempted:14.6g} ratio ({failed} of {attempted} operations)")
    steal = ", ".join(f"{p['steal_s']:.2f}" for p in passes)
    print(f"  CPU time stolen by the hypervisor during each pass (s, all CPUs): {steal}")
    for p in passes:
        for name, error in p["errors"].items():
            tag = "UNEXPECTED" if name in p["unexpected"] else "known defect"
            print(f"    {tag}: {name}: {error}")

    meta = dict(passes[0]["env"], workload=args.workload, seed=args.seed, trace=args.trace)
    meta["workload_detail"] = passes[-1]["workload_meta"]
    print(json.dumps({"meta": meta}, sort_keys=True))
    record = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, meta=meta, errors=[p["errors"] for p in passes]), indent=1)
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
