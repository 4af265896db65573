"""Rows are what trace generation writes: the row packer and the row
statistics fold against the record forms.

Trace generation emits plain rows (:data:`repro.trace.record.ROW_FIELDS`)
and a writer packs them a batch at a time
(:func:`repro.trace.encode.pack_rows`); records are packed through
their rows.  For drawn records: the rows pack to the bit-serial
reference's bytes however the batches are cut, flags pack by
truthiness, statistics folded from rows equal the per-record counts,
and a writer fed row batches writes the file ``write_trace_file``
writes.  A row no record constructor accepts raises ``ValueError``
and leaves the writer's output as it was.  Every row the synthetic
generator emits passes the record constructors' checks.
"""

import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from reference_codec import reference_encode
from test_trace_codec import TRACES, records
from repro.bpred.unit import PredictorConfig
from repro.isa.opcodes import BranchKind, FuClass
from repro.trace.encode import FORMAT_BITS, TraceEncoder, pack_record, pack_rows
from repro.trace.fileio import SegmentedTraceWriter, write_trace_file
from repro.trace.record import (
    ROW_FIELDS,
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    RecordKind,
    record_row,
    row_record,
)
from repro.trace.stats import TraceStatistics, measure_trace
from repro.workloads import SPECINT_PROFILES, SyntheticWorkload, get_profile


def _cuts(draw, length: int) -> list[int]:
    """Sorted batch boundaries inside ``[0, length]``."""
    return sorted(draw(st.lists(st.integers(0, length), max_size=4)))


def _batches(rows: list, cuts: list[int]) -> list[list]:
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:], strict=False)]


@given(TRACES, st.data())
def test_row_batches_pack_to_reference_bytes(trace, data):
    """However the rows are cut into batches (a batch may start inside
    a byte), they pack to the reference codec's bytes."""
    rows = list(map(record_row, trace))
    encoder = TraceEncoder()
    for batch in _batches(rows, _cuts(data.draw, len(rows))):
        encoder.extend_rows(batch)
    assert (encoder.getvalue(), encoder.bit_length) == reference_encode(trace)
    assert encoder.record_count == len(trace)


@given(records())
def test_record_packer_is_the_row_packer(record):
    out = bytearray()
    width = pack_rows([record_row(record)], out, 0)
    assert pack_record(record) == (int.from_bytes(out, "big")
                                   >> (-width & 7), width)
    assert width == FORMAT_BITS[record.kind]


def test_truthy_flags_pack_as_bits_through_rows():
    """``record_row`` carries truthy flags as they are; the row packer
    writes them as 1, the bit the reference writes."""
    for truthy, plain in [
        (OtherRecord(tag=2), OtherRecord(tag=True)),
        (MemoryRecord(fu=FuClass.STORE, is_store=5),
         MemoryRecord(fu=FuClass.STORE, is_store=True)),
        (BranchRecord(fu=FuClass.BRANCH, taken="yes"),
         BranchRecord(fu=FuClass.BRANCH, taken=True)),
    ]:
        encoder = TraceEncoder()
        encoder.extend_rows([record_row(truthy)])
        assert (encoder.getvalue(), encoder.bit_length) \
            == reference_encode([plain])


def _counted(trace) -> dict:
    """The statistics of ``trace``, counted record by record from the
    record attributes."""
    kinds = {kind: 0 for kind in RecordKind}
    for record in trace:
        kinds[record.kind] += 1
    return {
        "total_records": len(trace),
        "total_bits": sum(FORMAT_BITS[record.kind] for record in trace),
        "wrong_path_records": sum(1 for record in trace if record.tag),
        "kind_counts": kinds,
        "store_count": sum(1 for record in trace
                           if isinstance(record, MemoryRecord)
                           and record.is_store),
        "taken_branches": sum(1 for record in trace
                              if isinstance(record, BranchRecord)
                              and record.taken),
    }


@given(TRACES, st.data())
def test_row_statistics_equal_record_statistics(trace, data):
    stats = TraceStatistics()
    rows = list(map(record_row, trace))
    for batch in _batches(rows, _cuts(data.draw, len(rows))):
        stats.observe_rows(batch)
    assert dataclasses.asdict(stats) == _counted(trace)
    assert stats == measure_trace(trace)
    one_by_one = TraceStatistics()
    for record in trace:
        one_by_one.observe(record)
    assert one_by_one == stats


@settings(max_examples=50)
@given(st.lists(records(), max_size=60), st.integers(1, 9), st.data())
def test_writer_fed_row_batches_writes_the_record_file(trace, size, data):
    """Row batches of any length, each spanning any number of
    segments, make the file ``write_trace_file`` makes of the records."""
    expected = io.BytesIO()
    with SegmentedTraceWriter(expected, benchmark="drawn",
                              segment_records=size) as writer:
        writer.extend(trace)
    buffer = io.BytesIO()
    rows = list(map(record_row, trace))
    with SegmentedTraceWriter(buffer, benchmark="drawn",
                              segment_records=size) as writer:
        for batch in _batches(rows, _cuts(data.draw, len(rows))):
            writer.extend_rows(batch)
    assert buffer.getvalue() == expected.getvalue()


def test_record_writer_writes_what_write_trace_file_writes(tmp_path):
    trace = [OtherRecord(dest=5),
             MemoryRecord(fu=FuClass.STORE, is_store=True, address=9),
             BranchRecord(fu=FuClass.BRANCH, taken=True, target=7)] * 5
    path = tmp_path / "records.rtrc"
    write_trace_file(path, trace, benchmark="drawn", segment_records=4)
    buffer = io.BytesIO()
    with SegmentedTraceWriter(buffer, benchmark="drawn",
                              segment_records=4) as writer:
        for record in trace:
            writer.append(record)
    assert buffer.getvalue() == path.read_bytes()


GOOD = [record_row(OtherRecord(dest=3, src1=4)),
        record_row(MemoryRecord(fu=FuClass.LOAD, address=64)),
        record_row(BranchRecord(fu=FuClass.BRANCH, taken=True, target=8))]
_O = (RecordKind.OTHER.value, False, FuClass.ALU, 1, 2, 3, None, None, None)
_M = (RecordKind.MEMORY.value, False, FuClass.LOAD, 1, 2, 0, False, 64, 2)
_B = (RecordKind.BRANCH.value, False, FuClass.BRANCH, 0, 2, 0,
      BranchKind.COND, True, 8)


def _with(row: tuple, **changes) -> tuple:
    """``row`` with named :data:`ROW_FIELDS` positions replaced."""
    return tuple(changes.get(name, value)
                 for name, value in zip(ROW_FIELDS, row, strict=True))


#: (label, row, the record class whose checked constructor must also
#: refuse the row's fields, or None for a row with no format).
BAD_ROWS = [
    ("dest 64", _with(_O, dest=64), OtherRecord),
    ("src1 negative", _with(_M, src1=-1), MemoryRecord),
    ("src2 100", _with(_B, src2=100), BranchRecord),
    ("address 2**32", _with(_M, f2=2**32), MemoryRecord),
    ("address negative", _with(_M, f2=-4), MemoryRecord),
    ("size_log2 4", _with(_M, f3=4), MemoryRecord),
    ("target 2**32", _with(_B, f3=2**32), BranchRecord),
    ("target negative", _with(_B, f3=-1), BranchRecord),
    ("other row is a load", _with(_O, fu=FuClass.LOAD), OtherRecord),
    ("other row is a store", _with(_O, fu=FuClass.STORE), OtherRecord),
    ("load row is a store", _with(_M, fu=FuClass.STORE), MemoryRecord),
    ("store row is a load", _with(_M, f1=True), MemoryRecord),
    ("memory row is an ALU", _with(_M, fu=FuClass.ALU), MemoryRecord),
    ("branch row is an ALU", _with(_B, fu=FuClass.ALU), BranchRecord),
    ("branch kind NONE", _with(_B, f1=BranchKind.NONE), BranchRecord),
    ("kind code 3", _with(_O, kind=3), None),
]


def _record_fields(row: tuple, cls) -> dict:
    names = [field.name for field in dataclasses.fields(cls)]
    values = row[1:6] + tuple(value for value in row[6:] if value is not None)
    return dict(zip(names, values, strict=True))


@pytest.mark.parametrize("label,row,cls", BAD_ROWS,
                         ids=[label for label, _, _ in BAD_ROWS])
def test_bad_row_fails_loudly(label, row, cls):
    """The packer refuses what the record constructors refuse, and a
    batch holding the row — also one that spans several segments —
    leaves the writer's output as it was."""
    if cls is not None:
        with pytest.raises(ValueError):
            cls(**_record_fields(row, cls))
    encoder = TraceEncoder()
    encoder.extend_rows(GOOD[:1])
    before = (encoder.getvalue(), encoder.bit_length, encoder.record_count)
    with pytest.raises(ValueError):
        encoder.extend_rows([*GOOD, row])
    assert (encoder.getvalue(), encoder.bit_length,
            encoder.record_count) == before

    expected, buffer = io.BytesIO(), io.BytesIO()
    with SegmentedTraceWriter(expected, segment_records=2) as writer:
        writer.extend_rows(GOOD)
    with SegmentedTraceWriter(buffer, segment_records=2) as writer:
        writer.extend_rows(GOOD)
        for bad_batch in ([row], [*GOOD, row], [*GOOD * 3, row, *GOOD]):
            with pytest.raises(ValueError):
                writer.extend_rows(bad_batch)
        assert writer.record_count == len(GOOD)
    assert buffer.getvalue() == expected.getvalue()


def _revalidated(record):
    """``record`` rebuilt through its class's checked constructor."""
    return type(record)(**{field.name: getattr(record, field.name)
                           for field in dataclasses.fields(record)})


PREDICTORS = st.builds(
    PredictorConfig,
    scheme=st.sampled_from(["twolevel", "gshare", "bimodal", "comb",
                            "taken", "nottaken", "perfect"]),
    history_length=st.sampled_from([2, 8]),
    btb_entries=st.sampled_from([16, 512]),
    ras_depth=st.sampled_from([2, 16]))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SPECINT_PROFILES)), st.integers(0, 2**32 - 1),
       PREDICTORS, st.sampled_from([(16, 4), (8, 2)]))
def test_generated_rows_pass_the_record_checks(profile, seed, predictor,
                                               sizes):
    """Every row the generator streams to a sink is one the checked
    record constructors accept, and its records are what ``generate``
    returns without a sink."""
    rob, ifq = sizes

    def workload():
        return SyntheticWorkload(get_profile(profile), seed=seed,
                                 predictor_config=predictor,
                                 rob_entries=rob, ifq_entries=ifq)

    rows: list = []
    streamed = workload().generate(600, sink=rows)
    assert streamed.records is rows and streamed.total_records == len(rows)
    records = [row_record(row) for row in rows]
    for record in records:
        assert _revalidated(record) == record
    assert [record_row(record) for record in records] == rows
    assert workload().generate(600).records == records
    encoder = TraceEncoder()
    encoder.extend_rows(rows)
    assert (encoder.getvalue(), encoder.bit_length) == reference_encode(records)
