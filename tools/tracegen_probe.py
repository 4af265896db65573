"""Report how fast workload traces are generated into files.

Run from the repository root::

    PYTHONPATH=src python -m tools.tracegen_probe

It writes three traces shaped like the ones the benchmark's set-up
generates (gzip on ``4wide-perfect`` with a 20,000-instruction budget,
gzip on ``2wide-cache`` with 12,000, and vpr on ``4wide-perfect`` with
24,000 in 256-record segments), and the first again with a ``gshare``
predictor, the inline form the other three (``twolevel``, ``perfect``)
leave out, through
:func:`repro.workloads.tracegen.write_workload_trace`, and prints the
median wall time of five writes of each and the records written per
second.  The numbers are a report, not a gate.
"""

from __future__ import annotations

import dataclasses
import statistics
import tempfile
import time
from pathlib import Path

from repro.session.simulation import CONFIGS
from repro.workloads.tracegen import write_workload_trace

RUNS = 5

#: (workload, base configuration, predictor scheme or None for the
#: configuration's own, budget, segment records, seed).
TRACES = (
    ("gzip", "4wide-perfect", None, 20_000, 4096, 104),
    ("gzip", "2wide-cache", None, 12_000, 4096, 101),
    ("vpr", "4wide-perfect", None, 24_000, 256, 102),
    ("gzip", "4wide-perfect", "gshare", 20_000, 4096, 104),
)


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "probe.rtrc"
        for (workload, config_name, scheme, budget, segment_records,
             seed) in TRACES:
            config = CONFIGS.get(config_name)
            if scheme is not None:
                config = dataclasses.replace(
                    config, predictor=dataclasses.replace(
                        config.predictor, scheme=scheme))
                config_name = f"{config_name}+{scheme}"
            timings, records = [], 0
            for _ in range(RUNS):
                start = time.perf_counter()
                records = write_workload_trace(
                    workload, config, path, budget=budget, seed=seed,
                    segment_records=segment_records).record_count
                timings.append(time.perf_counter() - start)
            seconds = statistics.median(timings)
            print(f"{workload} {config_name} budget {budget} "
                  f"segments of {segment_records}: {records} records, "
                  f"median {1000 * seconds:.0f} ms of {RUNS} writes, "
                  f"{records / seconds / 1000:.1f}k records/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
