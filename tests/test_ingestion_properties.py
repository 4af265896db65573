"""Generated ingestion oracle: every way a trace reaches the engine
gives the same run.

Traces drawn from the :func:`structured_trace` strategy are written as
a v1 file and as a v2 file with a drawn segment size.  On both engine
tiers, records given to :meth:`Simulation.for_records` must simulate to
the same statistics document as either file, and any clean shard split
of the v2 file (:func:`plan_shards`), run as slice units and merged,
must reproduce the whole run's exact-sum counters.  ``save_trace`` must
write the bytes :func:`write_trace_file` writes for the same records,
whether the simulation reads a stored trace or generates a workload.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specialize import ENGINE_TIERS
from repro.exec import (
    EXACT_SUM_COUNTERS,
    SliceReducer,
    WorkUnit,
    execute_unit,
    plan_shards,
    slice_units,
)
from repro.serialize import config_to_dict, stats_to_dict
from repro.session import CONFIGS, Simulation
from repro.trace.fileio import write_trace_file
from repro.workloads.tracegen import generate_workload_trace

from test_engine_properties import structured_trace


@st.composite
def ingestion_case(draw):
    """A trace, a registry config name, a v2 segment size and a shard
    count."""
    trace = draw(structured_trace(wrong_path=draw(st.booleans()),
                                  max_segments=24))
    config = draw(st.sampled_from(sorted(CONFIGS)))
    segment_records = draw(st.sampled_from([1, 3, 7, 16, 64]))
    shards = draw(st.integers(min_value=2, max_value=4))
    return trace, config, segment_records, shards


def _stats(simulation: Simulation, tier: str) -> dict:
    return stats_to_dict(simulation.with_engine(tier).run().stats)


@settings(max_examples=30, deadline=None)
@given(ingestion_case())
def test_records_v1_v2_and_shards_agree(case):
    trace, config_name, segment_records, shards = case
    config = CONFIGS.get(config_name)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        v1 = root / "v1.rtrc"
        v2 = root / "v2.rtrc"
        write_trace_file(v1, trace, version=1)
        write_trace_file(v2, trace, segment_records=segment_records)
        plan = plan_shards(v2, shards)
        for tier in ENGINE_TIERS:
            whole = _stats(Simulation.for_records(trace, config), tier)
            assert _stats(Simulation.for_trace_file(v1, config),
                          tier) == whole, tier
            assert _stats(Simulation.for_trace_file(v2, config),
                          tier) == whole, tier

            base = WorkUnit.for_trace(
                f"point-{tier}", v2, config_to_dict(config),
                root / f"point-{tier}.json", engine=tier)
            reducer = SliceReducer(base, plan)
            for unit in slice_units(base, plan):
                reducer.add(execute_unit(unit))
            merged = reducer.write()["stats"]
            for counter in EXACT_SUM_COUNTERS:
                assert merged[counter] == whole[counter], (tier, counter)


@settings(max_examples=20, deadline=None)
@given(structured_trace(max_segments=24), st.sampled_from([1, 2]),
       st.sampled_from(sorted(CONFIGS)))
def test_save_trace_of_a_stored_trace(trace, version, config_name):
    config = CONFIGS.get(config_name)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        stored = root / "stored.rtrc"
        write_trace_file(stored, trace, version=version,
                         segment_records=5)
        saved = root / "saved.rtrc"
        expected = root / "expected.rtrc"
        written = Simulation.for_trace_file(stored, config).save_trace(
            saved)
        size = write_trace_file(expected, trace,
                                predictor=config.predictor,
                                benchmark="unknown", seed=7)
        assert written == (len(trace), size)
        assert saved.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize(("workload", "budget", "seed"), (
    ("gzip", 600, 7), ("parser", 250, 3), ("matmul", 400, 11)))
def test_save_trace_of_a_workload(workload, budget, seed, config_name,
                                  tmp_path):
    config = CONFIGS.get(config_name)
    generation, start_pc = generate_workload_trace(
        workload, config, budget=budget, seed=seed)
    extra = {} if start_pc is None else {"start_pc": start_pc}
    saved = tmp_path / "saved.rtrc"
    expected = tmp_path / "expected.rtrc"
    written = Simulation.for_workload(
        workload, config, budget=budget, seed=seed).save_trace(saved)
    size = write_trace_file(expected, generation.records,
                            predictor=config.predictor,
                            benchmark=workload, seed=seed, extra=extra)
    assert written == (len(generation.records), size)
    assert saved.read_bytes() == expected.read_bytes()
