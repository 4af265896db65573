"""Generated corruption oracle: the row reader and the record reader
refuse the same corrupt files in the same words.

Stored traces decode into rows (:func:`repro.trace.fileio.
iter_trace_blocks`, which the generated engine reads through
:class:`~repro.trace.source.FileSource`) and into records
(:func:`~repro.trace.fileio.read_trace_file`, for tools and the
reference engine).  For drawn traces written as v1 and v2 files (1-
and 7-record segments), then damaged by byte flips and truncations:

* both readers raise the same :class:`TraceFileError` text (segment,
  reason and bit), or both succeed with the same content;
* a replay of the file on either engine tier raises that text too,
  or succeeds only where the record reader does, and a replay that
  succeeds on one tier equals the other tier's (other failures, on
  decodable records that neither tier can simulate, are not
  compared);
* the per-segment record-count check, the end-of-stream record-count
  check and the committed-count check each fire on the damage they
  exist for, on both readers and on a specialized replay.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core import ReSimEngine, SpecializedEngine
from repro.serialize import stats_to_dict
from repro.session import CONFIGS
from repro.trace.fileio import (
    TraceFileError,
    iter_trace_blocks,
    read_segment_table,
    read_trace_file,
    read_trace_header,
    write_trace_file,
)
from repro.trace.record import record_row
from repro.trace.source import FileSource

from test_engine_properties import structured_trace

CONFIG = CONFIGS.get("2wide-cache")
#: (format version, records per v2 segment) of every drawn file.
LAYOUTS = [(1, 1), (2, 1), (2, 7)]


def _outcome(function):
    """``("ok", value)``, or the exception's type name and text."""
    try:
        return "ok", function()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error).__name__, str(error)


def _rows(path):
    return [row for block in iter_trace_blocks(path) for row in block]


def _records(path):
    return [record_row(record) for record in read_trace_file(path)[1]]


def _replay(engine, path):
    return stats_to_dict(engine(CONFIG, FileSource(path)).run().stats)


def _check_agreement(path):
    """The readers and both replay tiers over one (damaged) file;
    returns the record reader's outcome and the specialized replay's."""
    rows, records = _outcome(lambda: _rows(path)), _outcome(
        lambda: _records(path))
    assert rows == records
    replays = [_outcome(lambda: _replay(engine, path))
               for engine in (SpecializedEngine, ReSimEngine)]
    for replay in replays:
        if replay[0] == "TraceFileError":
            assert replay == records
        if replay[0] == "ok":
            assert records[0] == "ok"
            assert replays[0] == replays[1]
    return records, replays[0]


#: Where damage lands: ``(anywhere, fraction)`` picks a byte of the
#: whole file, or (three times as often) of the payload and table.
PLACES = st.tuples(st.sampled_from([False, False, False, True]),
                   st.floats(0, 1, exclude_max=True))


def _place(data, start, place):
    anywhere, fraction = place
    low = 0 if anywhere else start
    return low + int(fraction * (len(data) - low))


@st.composite
def damaged_file(draw):
    """A drawn trace in a drawn layout, then up to three byte flips
    and an optional truncation."""
    trace = draw(structured_trace(max_segments=16))
    version, segment_records = draw(st.sampled_from(LAYOUTS))
    flips = draw(st.lists(st.tuples(PLACES, st.integers(1, 255)),
                          max_size=3))
    return (trace, version, segment_records, flips,
            draw(st.one_of(st.none(), PLACES)))


@settings(max_examples=150, deadline=None)
@given(damaged_file())
def test_readers_and_replays_agree_on_damaged_files(case):
    trace, version, segment_records, flips, cut = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, version=version,
                         segment_records=segment_records)
        data = bytearray(path.read_bytes())
        payload = read_segment_table(path)[0].payload_offset
        for place, mask in flips:
            data[_place(data, payload, place)] ^= mask
        if cut is not None:
            del data[_place(data, payload, cut):]
        path.write_bytes(bytes(data))
        outcome, _ = _check_agreement(path)
        if not flips and cut is None:
            assert outcome == ("ok", [record_row(r) for r in trace])


def _patch(path, offset, width, value):
    data = bytearray(path.read_bytes())
    data[offset:offset + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(data))


def _refused(path, *phrases):
    """Both readers and a specialized replay raise one TraceFileError
    whose text holds every phrase."""
    outcome, specialized = _check_agreement(path)
    assert outcome[0] == "TraceFileError"
    assert all(phrase in outcome[1] for phrase in phrases), outcome
    assert specialized == outcome


@settings(max_examples=30, deadline=None)
@given(structured_trace(max_segments=16).filter(
    lambda trace: len(trace) > 7 and len(trace) % 7))
def test_segment_record_counts_are_checked(trace):
    """Swapping the record counts of a full and the partial last
    segment keeps the table's total right, so only the per-segment
    check can catch it."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, segment_records=7)
        header = read_trace_header(path)
        last = header.segment_count - 1
        entry = header.segment_table_offset
        _patch(path, entry, 4, len(trace) % 7)
        _patch(path, entry + 12 * last, 4, 7)
        _refused(path, "segment 0 holds 7 records",
                 f"claims {len(trace) % 7}")


@settings(max_examples=30, deadline=None)
@given(structured_trace(max_segments=16))
def test_end_of_stream_record_count_is_checked(trace):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, version=1)
        _patch(path, 12, 8, len(trace) + 1)
        _refused(path, f"payload holds {len(trace)} records",
                 f"header claims {len(trace) + 1}")


@settings(max_examples=30, deadline=None)
@given(structured_trace(max_segments=16), st.sampled_from(LAYOUTS))
def test_committed_count_is_checked(trace, layout):
    version, segment_records = layout
    committed = sum(not record.tag for record in trace)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, version=version,
                         segment_records=segment_records)
        _patch(path, 28, 4, committed + 1)
        _refused(path, f"payload holds {committed} committed",
                 "trace Tag bits are corrupt")
