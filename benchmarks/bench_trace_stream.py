"""Peak-RSS and throughput benchmark: streaming vs. in-memory ingestion.

The streaming trace pipeline's whole point is that simulating a trace
*file* should cost constant memory in the trace length (bounded by the
segment size), while the legacy path materializes every record as a
Python object first.  This harness measures both, honestly:

* the trace is generated **once**, streamed straight to a segmented v2
  file (`write_workload_trace`, so even generation never holds the
  record list);
* a legacy v1 (monolithic-payload) copy of the same trace is written
  next to it, so the chunked v1 stream reader is measured too (in a
  spawned process: the copy holds every record, and a child inherits
  its parent's peak RSS at fork);
* each ingestion mode (in-memory, streamed v2, streamed v1) then runs
  in a **fresh subprocess** — peak RSS is a process-wide high-water
  mark, so measuring the modes in one process would let the first
  pollute the others;
* the child reports its `ru_maxrss`, wall-clock, and a digest of the
  full `SimulationStatistics`; the parent asserts the digests are
  **bit-identical** across all modes before printing any numbers, because a fast wrong
  answer is not a result.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_stream.py             # ~1M records
    PYTHONPATH=src python benchmarks/bench_trace_stream.py --smoke     # CI-sized
    PYTHONPATH=src python benchmarks/bench_trace_stream.py --budget 2000000

A ``--budget 1000000`` run (the default) demonstrates the acceptance
criterion: a >1M-record trace simulated through ``FileSource`` with
peak RSS within a few MB of the empty-interpreter baseline, against
hundreds of MB for the materialized path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SMOKE_BUDGET = 15_000
DEFAULT_BUDGET = 1_000_000
WORKLOAD = "gzip"
SEED = 7
#: Ingestion modes, each run in its own child process.
MODES = ("in-memory", "streaming", "streaming-v1")


def _rss_kb() -> int:
    """Peak resident set size of this process, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_child(trace_path: str, mode: str) -> None:
    """Child entry: simulate one ingestion mode, print JSON."""
    from repro.core import PAPER_4WIDE_PERFECT
    from repro.serialize import stats_to_dict
    from repro.session import Simulation

    baseline_kb = _rss_kb()  # interpreter + imports, before any trace
    start = time.perf_counter()
    session = Simulation.for_trace_file(
        trace_path, PAPER_4WIDE_PERFECT,
        streaming=(mode != "in-memory"),
    ).run()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(
        json.dumps(stats_to_dict(session.stats),
                   sort_keys=True).encode()).hexdigest()[:16]
    print(json.dumps({
        "mode": mode,
        "records": int(session.stats.trace_records_consumed),
        "cycles": session.major_cycles,
        "seconds": seconds,
        "baseline_rss_kb": baseline_kb,
        "peak_rss_kb": _rss_kb(),
        "stats_digest": digest,
    }))


def write_v1_copy(trace_path: Path, v1_path: Path) -> None:
    """Rewrite a v2 trace as v1, keeping every metadata key."""
    from repro.trace.fileio import read_trace_file, write_trace_file

    header, records = read_trace_file(trace_path)
    extra = {key: value for key, value in header.metadata.items()
             if key not in ("predictor", "benchmark", "seed")}
    write_trace_file(v1_path, records, predictor=header.predictor_config,
                     benchmark=header.metadata["benchmark"],
                     seed=header.metadata["seed"], extra=extra,
                     version=1)


def run_parent(budget: int, segment_records: int) -> int:
    from repro.workloads.tracegen import write_workload_trace
    from repro.core import PAPER_4WIDE_PERFECT

    with tempfile.TemporaryDirectory(prefix="resim-bench-") as tmp:
        trace_path = Path(tmp) / "bench.rtrc"
        print(f"generating {WORKLOAD} trace (budget={budget:,}, "
              f"segment_records={segment_records:,})...",
              file=sys.stderr)
        start = time.perf_counter()
        written = write_workload_trace(
            WORKLOAD, PAPER_4WIDE_PERFECT, trace_path,
            budget=budget, seed=SEED,
            segment_records=segment_records)
        print(f"  {written.record_count:,} records, "
              f"{written.bytes_written / 1e6:.1f} MB on disk, "
              f"{time.perf_counter() - start:.1f}s "
              f"(generator peak RSS {_rss_kb() / 1024:.0f} MB)",
              file=sys.stderr)

        v1_path = Path(tmp) / "bench-v1.rtrc"
        copier = multiprocessing.get_context("spawn").Process(
            target=write_v1_copy, args=(trace_path, v1_path))
        copier.start()
        copier.join()
        if copier.exitcode != 0:
            print("FAIL: could not write the v1 copy", file=sys.stderr)
            return 1

        results = {}
        for mode in MODES:
            print(f"running {mode} child...", file=sys.stderr)
            path = v1_path if mode == "streaming-v1" else trace_path
            proc = subprocess.run(
                [sys.executable, __file__, "--child", mode,
                 "--trace-file", str(path)],
                capture_output=True, text=True, check=True)
            results[mode] = json.loads(proc.stdout)

    memory, streaming = results["in-memory"], results["streaming"]
    for mode, row in results.items():
        if row["stats_digest"] != memory["stats_digest"]:
            print(f"FAIL: {mode} statistics differ from in-memory "
                  f"({row['stats_digest']} != "
                  f"{memory['stats_digest']})", file=sys.stderr)
            return 1

    print(f"\n{WORKLOAD} x {memory['records']:,} records, "
          f"{memory['cycles']:,} cycles "
          f"(stats digest {memory['stats_digest']}, identical in "
          f"all {len(results)} modes)")
    header = (f"{'mode':13s} {'peak RSS':>12s} {'over baseline':>14s} "
              f"{'records/s':>12s} {'seconds':>9s}")
    print(header)
    print("-" * len(header))
    for mode, row in results.items():
        delta_mb = (row["peak_rss_kb"] - row["baseline_rss_kb"]) / 1024
        rate = row["records"] / row["seconds"]
        print(f"{mode:13s} {row['peak_rss_kb'] / 1024:10.1f} MB "
              f"{delta_mb:+12.1f} MB {rate:12,.0f} "
              f"{row['seconds']:9.2f}")
    ratio = ((memory["peak_rss_kb"] - memory["baseline_rss_kb"])
             / max(1, streaming["peak_rss_kb"]
                   - streaming["baseline_rss_kb"]))
    print(f"\nstreaming uses {ratio:.1f}x less trace-dependent memory")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="correct-path instructions to generate")
    parser.add_argument("--segment-records", type=int, default=4096)
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI-sized run (budget {SMOKE_BUDGET})")
    parser.add_argument("--child", choices=MODES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        run_child(args.trace_file, args.child)
        return 0
    budget = SMOKE_BUDGET if args.smoke else args.budget
    return run_parent(budget, args.segment_records)


if __name__ == "__main__":
    raise SystemExit(main())
