#!/usr/bin/env python3
"""The ReSim benchmark: one named workload per invocation.

    python3 resimbench/run.py --workload sweep-queue --seed 3 \\
        --seconds 12 --trace 0

Run from the repository root.  The simulator is imported from
``src/`` (no install step); queue workers inherit the path through
``PYTHONPATH``.  Scratch files live under ``.bench_work/`` and are
removed on exit.

``--trace 0`` times the workload with no instrumentation and reports
the end-to-end metrics; ``--trace 1`` runs it alternately with and
without span wrappers (the difference is ``bench.trace_overhead_frac``)
and then reports the per-layer metrics of :mod:`layers`, each with the
end-to-end metric it should move.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

where ``failed`` counts operations that raised, failed correctness
checks (statistics digests against ``expected.json``, resumed sweeps
against cold ones, the region-sampling error bound, the specialized
engine tier against the reference tier) and queue workers that died.
``--record`` stores this run's digest in ``expected.json`` for its
seed's variant.

Exits 2 without printing a result when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

#: End-to-end metrics, printed on every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ips": "1/s",
    "cold_job_s": "s",
    "warm_job_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-up runs at least this often per invocation, and keeps
#: repeating (up to SETUP_MAX) until SETUP_MIN_SECONDS have passed.
SETUP_MIN, SETUP_MAX, SETUP_MIN_SECONDS = 3, 9, 1.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _setup(workload, work: Path) -> list[float]:
    """Run the workload's set-up repeatedly; keep the last one."""
    times: list[float] = []
    while len(times) < SETUP_MIN or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX):
        workload.close()
        directory = work / f"setup-{len(times)}"
        directory.mkdir()
        times.append(workload.clock.time(
            lambda: workload.setup(directory))[1])
        if len(times) > 1:
            shutil.rmtree(work / f"setup-{len(times) - 2}")
    return times


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload, work: Path, seconds: float) -> dict[str, float]:
    setups = _setup(workload, work)
    workload.prepare_oracle()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    return {
        "setup_s": _median(setups),
        "wall_s": _median([t for r in rounds for t in r.wall]),
        "sim_ips": _median([ips for r in rounds for ips in r.ips]),
        "cold_job_s": _median([t for r in rounds for t in r.cold]),
        "warm_job_s": _median([t for r in rounds for t in r.warm]),
    }


def per_layer(workload, work: Path, seconds: float) -> dict[str, float]:
    import layers
    from spans import Tracer

    _setup(workload, work)
    workload.prepare_oracle()
    plain: list[float] = []
    traced: list[float] = []
    tracer = Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        began = time.perf_counter()
        workload.round()
        plain.append(time.perf_counter() - began)
        with tracer:
            began = time.perf_counter()
            workload.round()
            traced.append(time.perf_counter() - began)
    overhead = (_median(traced) - _median(plain)) / _median(plain)
    print(f"[resimbench] spans over {len(traced)} traced round(s):",
          file=sys.stderr)
    for name, row in sorted(tracer.summary().items(),
                            key=lambda item: -item[1]["self_s"]):
        print(f"  {name:<34} calls {row['calls']:>6}  "
              f"total {row['total_s']:9.4f}s  self {row['self_s']:9.4f}s",
              file=sys.stderr)
    scratch = work / "layers"
    scratch.mkdir()
    values = layers.measure(workload, scratch, overhead)
    print(f"[resimbench] per-layer metrics on {workload.name}:",
          file=sys.stderr)
    for name, (unit, _, moves) in layers.LAYER_METRICS.items():
        print(f"  {name:<28} {values.get(name, math.nan):>14.6g} "
              f"{unit:<6} moves: {moves}", file=sys.stderr)
    return {name: values[name] for name in layers.LAYER_METRICS
            if name in values}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's statistics digest in "
                             "expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Queue workers are `python -m repro.exec` subprocesses: without
    # the source path they die with "No module named repro".
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    from workloads import VARIANTS, WORKLOADS, Oracle
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    oracle = Oracle(args.workload, args.seed, record=args.record)
    workload = WORKLOADS[args.workload](args.seed, work, oracle)
    try:
        measure = per_layer if args.trace else end_to_end
        values = oracle.run("workload", lambda: measure(
            workload, work, args.seconds)) or {}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it
    if not args.trace:
        # After close(): only reaped workers count as children.
        values["peak_rss_mb"] = _peak_rss_mb()
    if args.record:
        oracle.save()

    if args.trace:
        from layers import LAYER_METRICS
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, math.nan)
        if not math.isfinite(value):
            oracle.fail(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}

    provenance = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "variant": args.seed % VARIANTS,
        "generator_seed": workload.gen_seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": max(1, oracle.attempted),
        "failed": oracle.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
