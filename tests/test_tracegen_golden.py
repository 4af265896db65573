"""Golden output of :func:`repro.workloads.tracegen.write_workload_trace`.

Every registered workload (the five SPECINT profiles and the seven
assembly kernels) is generated straight into a segmented trace file on
two base configurations and two segment sizes, and one profile again
on ``4wide-perfect`` with its predictor scheme replaced by ``gshare``
and by ``bimodal`` (the generator predicts ``gshare`` through the
compiled predictor and ``bimodal`` through the object model).
``tests/golden/tracegen.json`` pins, per case, the file's SHA-256 and size, the
record count, every :class:`~repro.trace.stats.TraceStatistics` field
measured while writing, and the generator's counters.  Generation may
get faster; it must keep these bytes and numbers.
"""

import dataclasses
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
#: The profile and base configuration generated again under each
#: predictor scheme of ``SCHEMES``.
SCHEME_CASE = ("parser", "4wide-perfect", 4096)
SCHEMES = ("gshare", "bimodal")


def case_config(config_name: str, scheme: str | None):
    """The named base configuration, its predictor scheme replaced by
    ``scheme`` unless that is None."""
    config = CONFIGS.get(config_name)
    if scheme is None:
        return config
    return dataclasses.replace(config, predictor=dataclasses.replace(
        config.predictor, scheme=scheme))


def observed(workload: str, config_name: str, segment_records: int,
             directory: Path, scheme: str | None = None) -> dict:
    """Everything one streamed trace write reports, as plain JSON."""
    path = directory / f"{workload}-{config_name}-{segment_records}.rtrc"
    written = write_workload_trace(
        workload, case_config(config_name, scheme), path, budget=BUDGET,
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


def case_name(workload: str, config_name: str, segment_records: int,
              scheme: str | None = None) -> str:
    if scheme is not None:
        config_name = f"{config_name}+{scheme}"
    return f"{workload}/{config_name}/{segment_records}"


CASES = [(workload, config_name, segment_records, None)
         for workload in WORKLOADS
         for config_name in CONFIG_NAMES
         for segment_records in SEGMENT_SIZES] + [
    (*SCHEME_CASE, scheme) for scheme in SCHEMES]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_workload_is_pinned(golden):
    assert sorted(golden) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("workload,config_name,segment_records,scheme",
                         CASES, ids=["-".join(map(str, filter(None, case)))
                                     for case in CASES])
def test_written_trace_matches_golden(golden, tmp_path, workload,
                                      config_name, segment_records, scheme):
    expected = golden[case_name(workload, config_name, segment_records,
                                scheme)]
    assert observed(workload, config_name, segment_records,
                    tmp_path, scheme) == expected
