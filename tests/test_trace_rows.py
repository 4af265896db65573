"""Rows and records are one trace: the decoded row form and the record
API must describe the same records everywhere.

A stored trace decodes into plain field rows
(:data:`repro.trace.record.ROW_FIELDS`), which the generated engine
reads; tools, the reference engine and in-memory traces use record
objects.  For drawn traces: the row decoder yields the rows of the
encoded records, the two converters invert each other, an in-memory
trace and a stored one hand out the same rows across block ends (and
across the in-memory row view's conversion chunks), and the
specialized tier, which reads rows, matches the reference tier, which
reads records, over in-memory, v1, v2 and merged-shard sources,
including segment ranges that start inside a wrong-path block.
"""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import ReSimEngine, SpecializedEngine
from repro.exec import (
    EXACT_SUM_COUNTERS,
    SliceReducer,
    WorkUnit,
    execute_unit,
    slice_units,
)
from repro.exec.slice import Slice, SlicePlan
from repro.isa.opcodes import BranchKind, FuClass
from repro.serialize import config_to_dict, stats_to_dict
from repro.session import CONFIGS
from repro.trace import source as source_module
from repro.trace.encode import decode_rows, encode_trace
from repro.trace.fileio import read_segment_table, write_trace_file
from repro.trace.record import (
    ROW_TAG,
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    record_row,
    row_record,
)
from repro.trace.source import FileSource, InMemorySource

from test_engine_properties import structured_trace
from test_trace_codec import TRACES


@given(TRACES)
def test_rows_decode_as_the_records_convert(trace):
    data, bits = encode_trace(trace)
    rows, end = decode_rows(data, 0, bits, bits)
    assert rows == [record_row(record) for record in trace]
    assert end == bits
    assert all(type(row) is tuple and len(row) == 9 for row in rows)


@given(TRACES)
def test_converters_invert_each_other(trace):
    for record in trace:
        assert row_record(record_row(record)) == record
        assert type(row_record(record_row(record))) is type(record)


def _drain_rows(source) -> list:
    """Every row a source's row view hands out, block by block."""
    streamed = []
    rows, index = source.rows()
    while index < len(rows):
        streamed.extend(rows[index:])
        source.seek(len(rows))
        rows, index = source.rows()
    return streamed


@settings(max_examples=40, deadline=None)
@given(structured_trace(max_segments=24), st.sampled_from([1, 7, 64]),
       st.sampled_from([1, 2]), st.sampled_from([1, 5, 4096]),
       st.integers(min_value=0, max_value=10))
def test_memory_and_file_rows_agree_across_block_ends(trace, segment_records,
                                                      version, chunk, prefix):
    """The row views agree from any start, whatever the block and
    conversion-chunk sizes; records consumed through the record view
    first are skipped by the row view."""
    prefix = min(prefix, len(trace))
    expected = [record_row(record) for record in trace[prefix:]]
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(source_module, "ROW_CHUNK", chunk):
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, version=version,
                         segment_records=segment_records)
        for source in (InMemorySource(trace), FileSource(path)):
            for _ in range(prefix):
                source.next()
            assert _drain_rows(source) == expected, type(source).__name__
            assert source.consumed == len(trace)
            assert source.peek() is None


def _tiers(config, make_source) -> list[dict]:
    """The statistics of both tiers over fresh sources."""
    return [stats_to_dict(engine(config, make_source()).run().stats)
            for engine in (ReSimEngine, SpecializedEngine)]


@st.composite
def parity_case(draw):
    """A trace, a registry config, a v2 segment size, a row-conversion
    chunk, and cut points splitting the segment table anywhere (so a
    range may start inside a wrong-path block)."""
    trace = draw(structured_trace(max_segments=24))
    config = draw(st.sampled_from(sorted(CONFIGS)))
    segment_records = draw(st.sampled_from([1, 7]))
    chunk = draw(st.sampled_from([1, 3, 4096]))
    segments = -(-len(trace) // segment_records)
    cuts = draw(st.sets(st.integers(min_value=1, max_value=segments - 1),
                        max_size=3)) if segments > 1 else set()
    return trace, config, segment_records, chunk, sorted(cuts)


@settings(max_examples=40, deadline=None)
@given(parity_case())
def test_specialized_matches_reference_on_every_source(case):
    trace, config_name, segment_records, chunk, cuts = case
    config = CONFIGS.get(config_name)
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(source_module, "ROW_CHUNK", chunk):
        root = Path(scratch)
        v1, v2 = root / "v1.rtrc", root / "v2.rtrc"
        write_trace_file(v1, trace, version=1)
        write_trace_file(v2, trace, segment_records=segment_records)
        whole = _tiers(config, lambda: InMemorySource(trace))
        assert whole[0] == whole[1]
        assert _tiers(config, lambda: FileSource(v1)) == whole
        assert _tiers(config, lambda: FileSource(v2)) == whole

        table = read_segment_table(v2)
        edges = [0, *cuts, len(table)]
        ranges = list(zip(edges, edges[1:]))
        for lo, hi in ranges:
            reference, specialized = _tiers(
                config, lambda: FileSource(v2, segments=(lo, hi)))
            assert specialized == reference, (lo, hi)

        # The same ranges as slice units, merged, on both tiers.
        counts = [segment.record_count for segment in table]
        plan = SlicePlan(str(v2), len(table), len(trace), tuple(
            Slice(index, lo, hi, warm_lo=lo, warmup_instructions=0,
                  records=sum(counts[lo:hi]))
            for index, (lo, hi) in enumerate(ranges)))
        merged = []
        for tier in ("reference", "specialized"):
            base = WorkUnit.for_trace(
                f"point-{tier}", v2, config_to_dict(config),
                root / f"point-{tier}.json", engine=tier)
            reducer = SliceReducer(base, plan)
            for unit in slice_units(base, plan):
                reducer.add(execute_unit(unit))
            merged.append(reducer.write()["stats"])
        assert merged[0] == merged[1]
        if all(not trace[lo * segment_records].tag for lo in edges[:-1]):
            # Clean cuts: the exact-sum counters add up to the whole run.
            for counter in EXACT_SUM_COUNTERS:
                assert merged[1][counter] == whole[0][counter], counter


def test_ranges_starting_inside_a_wrong_path_block(tmp_path):
    """One-record segments let a range start on every record of a
    wrong-path block, first and inner ones alike."""
    body = [OtherRecord(dest=1, src1=2),
            MemoryRecord(fu=FuClass.LOAD, dest=3, src1=1, address=64)]
    branch = BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.COND,
                          taken=True, target=0x0040_0800, src1=3)
    wrong = [OtherRecord(tag=True, dest=4, src1=3),
             MemoryRecord(tag=True, fu=FuClass.STORE, is_store=True,
                          src1=4, address=128),
             OtherRecord(tag=True, fu=FuClass.MUL, src1=4)]
    trace = [*body, branch, *wrong, *body, branch, *wrong[:1], *body]
    path = tmp_path / "trace.rtrc"
    write_trace_file(path, trace, segment_records=1)
    starts = [index for index, record in enumerate(trace) if record.tag]
    for name in sorted(CONFIGS):
        config = CONFIGS.get(name)
        for lo in starts:
            def make():
                return FileSource(path, segments=(lo, len(trace)))
            assert make().rows()[0][0][ROW_TAG]
            reference, specialized = _tiers(config, make)
            assert specialized == reference, (name, lo)
