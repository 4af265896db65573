#!/usr/bin/env python3
"""Sharded design points: split one long simulation across workers.

A bulk sweep parallelizes *across* design points, so a 2-point grid
can keep at most 2 workers busy no matter how long the trace is.
Sharding parallelizes *within* a point: the shared v2 trace splits at
segment-table boundaries into ``--shards`` cold-start slices, every
slice becomes an ordinary work unit (here drained by local directory-
queue workers, exactly as multi-host workers would), and a statistics
reducer merges the per-shard results back into one document per
design point — so a 2-point x 4-shard sweep keeps 8 queue workers
busy.

The merge is exact where the trace is authoritative (committed
instruction/branch/load/store counts, trace records, mispredictions)
and approximate where warm state matters (cycles, hence IPC): shards
start with cold predictors/caches and a drained pipeline.  This
script runs the same tiny grid monolithically and sharded, verifies
the exact-sum counters agree, and prints the monolithic-vs-sharded
IPC delta that the cold starts cost.

Run:  python examples/sharded_sweep.py \
          [--budget N] [--shards N] [--workers N]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.exec import EXACT_SUM_COUNTERS, DirectoryQueueBackend
from repro.serialize import stats_to_dict
from repro.sweep import SweepRunner, SweepSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=6000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4,
                        help="local queue workers to spawn")
    args = parser.parse_args()

    spec = SweepSpec(axes={"rob_entries": (16, 32)})
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        print(f"== monolithic reference (serial, budget "
              f"{args.budget}) ==")
        monolithic = SweepRunner(
            spec, "gzip", results_dir=scratch / "monolithic",
            budget=args.budget, segment_records=256).run()

        print(f"== sharded sweep ({len(spec.expand())} points x "
              f"{args.shards} shards through a {args.workers}-worker "
              f"directory queue) ==")
        backend = DirectoryQueueBackend(
            scratch / "queue", workers=args.workers,
            poll_seconds=0.05, timeout=600)
        try:
            sharded = SweepRunner(
                spec, "gzip", results_dir=scratch / "sharded",
                budget=args.budget, segment_records=256,
                backend=backend, shards=args.shards).run()
        finally:
            # A drain returns once every result is written, but a
            # worker may still be moving its last lease into done/:
            # stop the workers before the queue directory goes.
            backend.close()

        print(f"\n{'point':>16} {'mono IPC':>9} {'shard IPC':>9} "
              f"{'delta':>7}  exact-sum counters")
        for mono, shard in zip(monolithic, sharded, strict=True):
            mono_stats = stats_to_dict(mono.stats)
            shard_stats = stats_to_dict(shard.stats)
            for counter in EXACT_SUM_COUNTERS:
                assert shard_stats[counter] == mono_stats[counter], (
                    f"{counter} diverged: {shard_stats[counter]} != "
                    f"{mono_stats[counter]}"
                )
            delta = (shard.ipc - mono.ipc) / mono.ipc
            print(f"{mono.label:>16} {mono.ipc:9.4f} "
                  f"{shard.ipc:9.4f} {delta:+7.2%}  identical")
        shards = sharded.outcomes[0].stats.shards
        print(f"\nexact-sum counters verified: "
              f"{', '.join(EXACT_SUM_COUNTERS)}")
        print(f"shard provenance of the first point: "
              f"{len(shards)} shard(s), "
              f"{[entry['records'] for entry in shards]} records")
        print("IPC differs only by the cold-start approximation "
              "documented in README 'Sharded design points'.")


if __name__ == "__main__":
    main()
