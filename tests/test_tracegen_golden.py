"""Golden output of :func:`repro.workloads.tracegen.write_workload_trace`.

Every registered workload (the five SPECINT profiles and the seven
assembly kernels) is generated straight into a segmented trace file on
two base configurations and two segment sizes.  ``tests/golden/
tracegen.json`` pins, per case, the file's SHA-256 and size, the
record count, every :class:`~repro.trace.stats.TraceStatistics` field
measured while writing, and the generator's counters.  Generation may
get faster; it must keep these bytes and numbers.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.session.simulation import CONFIGS
from repro.workloads.tracegen import WORKLOADS, write_workload_trace

GOLDEN = Path(__file__).resolve().parent / "golden" / "tracegen.json"
CONFIG_NAMES = ("4wide-perfect", "2wide-cache")
SEGMENT_SIZES = (256, 4096)
BUDGET = 1500
SEED = 11


def observed(workload: str, config_name: str, segment_records: int,
             directory: Path) -> dict:
    """Everything one streamed trace write reports, as plain JSON."""
    path = directory / f"{workload}-{config_name}-{segment_records}.rtrc"
    written = write_workload_trace(
        workload, CONFIGS.get(config_name), path, budget=BUDGET,
        seed=SEED, segment_records=segment_records)
    stats, generation = written.trace_stats, written.generation
    return {
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "record_count": written.record_count,
        "bytes_written": written.bytes_written,
        "start_pc": written.start_pc,
        "trace_stats": {
            "total_records": stats.total_records,
            "total_bits": stats.total_bits,
            "wrong_path_records": stats.wrong_path_records,
            "kind_counts": {kind.name: count
                            for kind, count in stats.kind_counts.items()},
            "store_count": stats.store_count,
            "taken_branches": stats.taken_branches,
        },
        "generation": {
            "total_records": generation.total_records,
            "committed_instructions": generation.committed_instructions,
            "wrong_path_instructions": generation.wrong_path_instructions,
            "mispredictions": generation.mispredictions,
            "misfetches": generation.misfetches,
            "branches": generation.branches,
            "output": generation.output,
        },
    }


def case_name(workload: str, config_name: str, segment_records: int) -> str:
    return f"{workload}/{config_name}/{segment_records}"


CASES = [(workload, config_name, segment_records)
         for workload in WORKLOADS
         for config_name in CONFIG_NAMES
         for segment_records in SEGMENT_SIZES]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_workload_is_pinned(golden):
    assert sorted(golden) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("workload,config_name,segment_records", CASES)
def test_written_trace_matches_golden(golden, tmp_path, workload,
                                      config_name, segment_records):
    expected = golden[case_name(workload, config_name, segment_records)]
    assert observed(workload, config_name, segment_records,
                    tmp_path) == expected
