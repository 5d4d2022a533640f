"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports branlab,
builds the workload's inputs, runs the operations back to back in the timed
region, then checks their outputs, and writes one JSON result file.

``--launched`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start-up, ``import
branlab`` and building the inputs.  The monotonic clock is system-wide on
Linux, so the two processes' readings compare.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _steal_s() -> float:
    # Time the hypervisor ran other guests on this machine's CPUs, summed over
    # CPUs.  Wall time grows with it while CPU time does not.
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest reaped child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _environment(src: Path) -> dict:
    """Versions, machine and code-size facts recorded beside the numbers."""
    import multiprocessing
    import platform
    import types

    import branlab
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
        "public_names": sum(
            1 for name, value in vars(branlab).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    args = parser.parse_args()

    import branlab
    import workloads

    src = (Path.cwd() / "src").resolve()
    if src not in Path(branlab.__file__).resolve().parents:
        print(f"branlab imported from {branlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        args.result.write_text(json.dumps(result))
        return 0

    errors: dict[str, str] = {}
    outputs = {}
    if tracer is not None:
        tracer.recording = True
    own0, kids0 = _cpu_s()
    steal0 = _steal_s()
    start = time.perf_counter()
    for name, op in workload.ops.items():
        try:
            outputs[name] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[name] = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    own1, kids1 = _cpu_s()
    steal_s = _steal_s() - steal0
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.recording = False

    for name, output in outputs.items():
        try:
            workload.check(name, output)
        except workloads.CheckFailed as exc:
            errors[name] = f"check failed: {exc}"
        except Exception as exc:
            errors[name] = f"check raised {type(exc).__name__}: {exc}"
            traceback.print_exc()

    result.update(
        wall_s=wall_s,
        cpu_s=(own1 - own0) + (kids1 - kids0),
        child_cpu_s=kids1 - kids0,
        steal_s=steal_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(workload.ops),
        errors=errors,
        unexpected=sorted(set(errors) - set(workloads.KNOWN_DEFECTS.get(args.workload, {}))),
        env=_environment(src),
        workload_meta=workload.metadata(),
    )
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, kids1 - kids0, wall_s, workload.jobs)
        args.spans_out.write_text(json.dumps(tracer.spans))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
