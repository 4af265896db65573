#!/usr/bin/env python3
"""Design-space sweep quickstart: the paper's bulk-simulation mode.

ReSim's traces are *"prepared off-line ... for bulk simulations with
varying design parameters"*.  This example shows that workflow through
:mod:`repro.sweep`: one gzip trace is generated and persisted once,
then a grid of ROB/LSQ/width design points is simulated against it in
parallel, checkpointing every finished point.  Running the script a
second time with the same ``--results-dir`` resumes from checkpoints
and simulates nothing.

Run:  python examples/sweep_quickstart.py \
          [--budget N] [--workers N] [--results-dir DIR]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.fpga.device import VIRTEX4_LX40
from repro.perf.comparison import comparison_table, render_table
from repro.perf.tables import sweep_table
from repro.sweep import SweepRunner, SweepSpec, default_backend


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=4000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--results-dir", type=Path, default=None,
                        help="reuse to resume an interrupted sweep "
                             "(default: a throwaway temp directory)")
    args = parser.parse_args()

    results_dir = args.results_dir
    cleanup = None
    if results_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        results_dir = Path(cleanup.name)

    # 16 raw grid points; the spec collapses duplicates and filters
    # combinations the processor's own invariants reject.
    spec = SweepSpec(axes={
        "rob_entries": (8, 16, 32, 64),
        "lsq_entries": (4, 8),
        "width": (2, 4),
    })
    expansion = spec.expand()
    print(f"sweeping {len(expansion)} design points "
          f"({expansion.skipped_invalid} invalid, "
          f"{expansion.skipped_duplicates} duplicates dropped) "
          f"with {args.workers} worker(s)\n")

    with default_backend(args.workers) as backend:
        result = SweepRunner(spec, "gzip", results_dir=results_dir,
                             budget=args.budget, backend=backend).run()

    print(sweep_table(result, sort_key="ipc", limit=8))
    if result.resumed_count:
        print(f"\n(resumed {result.resumed_count}/{len(result)} points "
              f"from checkpoints — nothing was re-simulated)")

    # The best design points can join the paper's Table 2 comparison.
    best = result.top(2)
    print("\n== best design points vs. published simulators ==")
    print(render_table(comparison_table({})
                       + best.comparison_entries(VIRTEX4_LX40)))

    result.to_csv(results_dir / "sweep.csv", devices=(VIRTEX4_LX40,))
    print(f"\nwrote {results_dir / 'sweep.csv'}")

    if cleanup is not None:
        cleanup.cleanup()


if __name__ == "__main__":
    main()
