#!/usr/bin/env python3
"""Adaptive design-space search: find the best configuration without
simulating the whole grid.

A grid sweep answers "what does *every* configuration score?"; most
campaigns only ask "which configuration is *best*?".  This example
searches a 24-point ROB x LSQ x width grid two ways through
:mod:`repro.sweep.search`:

* **hill-climb** — start at the smallest machine, evaluate the axis
  neighbors, move while IPC strictly improves;
* **seeded random sampling** — a fixed-seed sample of the grid (the
  repo's own xorshift generator, so reruns are bit-for-bit
  identical).

Both strategies evaluate points through exactly the machinery a grid
sweep uses — one shared persisted trace, per-point checkpoints, any
execution backend — so the final full sweep in this script resumes
every point the searches already visited for free, and then serves
as the ground truth the strategies are judged against.

Run:  python examples/adaptive_search.py \
          [--budget N] [--results-dir DIR]

One :class:`~repro.sweep.SweepRunner` serves all three: ``.search(
strategy)`` for each strategy, ``.run()`` for the grid.  (For
multi-host execution, pass a DirectoryQueueBackend as its
``backend=`` and start ``resim worker <queue-dir>`` on any machine
sharing the filesystem — the search itself does not change.)
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.sweep import HillClimb, RandomSearch, SweepRunner, SweepSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=4000)
    parser.add_argument("--results-dir", type=Path, default=None,
                        help="reuse to resume / share checkpoints "
                             "(default: a throwaway temp directory)")
    args = parser.parse_args()

    results_dir = args.results_dir
    cleanup = None
    if results_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        results_dir = Path(cleanup.name)

    spec = SweepSpec(axes={
        "rob_entries": (8, 16, 32, 64),
        "lsq_entries": (4, 8, 16),
        "width": (2, 4),
    })
    grid_points = len(spec.expand())
    print(f"design space: {grid_points} valid points\n")
    runner = SweepRunner(spec, "gzip", results_dir=results_dir,
                         budget=args.budget)

    # -- hill-climb: pay only for the ridge it walks ------------------
    climb = runner.search(HillClimb(spec))
    print("== hill-climb ==")
    print(climb.table())
    print(f"\n{climb.summary()}")
    trajectory = climb.result.metadata["search"]["trajectory"]
    print(f"trajectory: {' -> '.join(trajectory)}")
    print(f"evaluations: {len(climb)}/{grid_points} grid points\n")

    # -- seeded random sampling: reproducible by construction ---------
    sampled = runner.search(RandomSearch(spec, samples=6, seed=42))
    print("== random sample (seed 42) ==")
    print(f"{sampled.summary()}")
    resumed = sampled.result.resumed_count
    if resumed:
        print(f"({resumed} point(s) the climb already simulated came "
              f"straight from checkpoints)")

    # -- ground truth: the full grid, resuming everything above -------
    full = runner.run()
    best = full.best("ipc")
    print("\n== full grid (ground truth) ==")
    print(f"grid best: {best.label}  ipc={best.ipc:.4f} "
          f"({full.resumed_count}/{len(full)} points resumed from "
          f"search checkpoints)")
    gap = (best.ipc - climb.best.ipc) / best.ipc * 100.0
    print(f"hill-climb reached {climb.best.ipc:.4f} "
          f"({gap:.1f}% from optimal) in {len(climb)} evaluations")

    if cleanup is not None:
        cleanup.cleanup()


if __name__ == "__main__":
    main()
