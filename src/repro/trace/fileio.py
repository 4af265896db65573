"""Trace file format: persistent, self-describing ReSim traces.

The paper's primary usage mode is *"traces that are prepared off-line
(for example for bulk simulations with varying design parameters)"* —
which needs a file format.  Two on-disk versions exist; both are fully
self-describing, and readers accept both.

Format v1 (monolithic payload)
------------------------------

======== ======= ====================================================
offset   size    field
======== ======= ====================================================
0        8       magic ``b"RESIMTRC"``
8        2       format version (little-endian u16, = 1)
10       2       header length in bytes (from offset 0)
12       8       record count (u64)
20       8       exact payload bit length (u64)
28       4       committed-instruction count low-order 32 bits (crc-
                 style consistency field; full counts live in stats)
32       N       UTF-8 JSON metadata blob (predictor config, benchmark
                 name, seed); written unpadded, so it ends exactly at
                 the header length
header   ...     bit-packed records (repro.trace.encode layout), one
                 contiguous run to end of file
======== ======= ====================================================

Format v2 (segmented payload — the default written format)
----------------------------------------------------------

v2 splits the payload into **independently decodable segments** of a
configurable nominal record count (:data:`DEFAULT_SEGMENT_RECORDS`).
Each segment starts at a byte boundary and is bit-packed internally,
so a reader decodes one segment at a time with bounded memory, and a
sharded sweep can split work at segment boundaries without decoding
anything it does not own.

======== ======= ====================================================
offset   size    field
======== ======= ====================================================
0        8       magic ``b"RESIMTRC"``
8        2       format version (little-endian u16, = 2)
10       2       header length in bytes (from offset 0)
12       8       total record count (u64)
20       8       total payload bit length (u64; sum over segments,
                 excluding per-segment byte padding)
28       4       committed-instruction count low-order 32 bits
32       4       segment count (u32)
36       8       segment-table file offset (u64, absolute)
44       4       nominal records per segment (u32)
48       N       UTF-8 JSON metadata blob, ending at the header length
header   ...     segment payloads, back to back, each byte-aligned
                 (segment *i* occupies ``ceil(bit_length_i / 8)``
                 bytes)
table    12xS    segment table: per segment, record count (u32) then
                 exact bit length (u64); the file ends at the table's
                 last byte
======== ======= ====================================================

The segment table lives at the *end* of the file (its offset is in the
fixed prefix) so that :class:`SegmentedTraceWriter` can stream records
to disk without knowing the segment count up front — generators emit
straight to the writer without ever holding the full record list, and
the fixed prefix is patched once at close.

Because the header-length field is a u16, the metadata blob is limited
to ``65535`` minus the fixed prefix; writers reject larger blobs with
:class:`TraceFileError` before touching the filesystem.

The JSON metadata keeps the predictor configuration with the trace —
the consistency contract (engine predictor == generation predictor)
should survive a trip through the filesystem.  Readers verify the
committed-instruction consistency field at offset 28 against the
decoded records (whole-file reads *and* streamed reads, at exhaustion),
so silent payload corruption that preserves record *count* but flips
Tag bits is still caught; v2 readers additionally verify every
segment's record count and bit length against the segment table.
"""

from __future__ import annotations

import io
import json
import os
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import islice
from operator import itemgetter, not_
from pathlib import Path
from typing import BinaryIO, NamedTuple
from collections.abc import Iterable, Iterator, Sequence

from repro.bpred.unit import PredictorConfig
from repro.trace.encode import (
    FORMAT_BITS,
    CorruptRecordError,
    TraceEncoder,
    decode_rows,
    encode_trace,
)
from repro.trace.record import ROW_TAG, Row, TraceRecord, record_row, row_record
from repro.utils.atomic import atomic_path
from repro.utils.memo import BoundedMemo

MAGIC = b"RESIMTRC"
#: The monolithic-payload format.
VERSION_V1 = 1
#: The segmented-payload format (see module docstring).
VERSION_V2 = 2
#: The version :func:`write_trace_file` emits by default.
VERSION = VERSION_V2
SUPPORTED_VERSIONS = (VERSION_V1, VERSION_V2)

#: Nominal records per v2 segment.  4096 records are ~20-30 KB encoded
#: — small enough that one decoded segment is negligible memory, large
#: enough that per-segment overhead (12 table bytes, <1 byte padding)
#: is noise against the ~5 bytes/record payload.
DEFAULT_SEGMENT_RECORDS = 4096

#: The header-length field is a little-endian u16 covering the fixed
#: prefix plus the JSON metadata blob.
MAX_HEADER_LENGTH = 0xFFFF
_COMMITTED_MASK = 0xFFFF_FFFF

_V1_PREFIX = 32
_V2_PREFIX = 48
#: A segment-table entry: record count u32, bit length u64.
_SEGMENT_ENTRY = struct.Struct("<IQ")
_SEGMENT_ENTRY_BYTES = _SEGMENT_ENTRY.size

#: Encoded size of the largest record format (a B record), in bits.
_MAX_RECORD_BITS = max(FORMAT_BITS.values())
#: A row's Tag bit.
_TAG = itemgetter(ROW_TAG)

#: Bytes per read when streaming a v1 payload: about one v2 segment's
#: worth of records, which are decoded a chunk at a time.
_V1_CHUNK_BYTES = 32 * 1024

#: Records the decoded-segment cache holds at most — about two default
#: 32k-record sweep traces.  Least recently used segments go first.
DECODED_SEGMENT_CACHE_RECORDS = 65_536


class TraceFileError(ValueError):
    """Raised on malformed or incompatible trace files."""


class TraceSegment(NamedTuple):
    """One entry of a v2 segment table (or the single pseudo-segment
    covering a v1 payload).  A named tuple, so a table of a hundred
    segments is built without a frozen-dataclass ``__init__`` each."""

    index: int
    record_count: int
    bit_length: int
    payload_offset: int  # absolute file offset of the segment's bytes

    @property
    def byte_length(self) -> int:
        return (self.bit_length + 7) // 8


@dataclass(frozen=True)
class TraceFileHeader:
    """Parsed header of a trace file.

    The segment fields are zero for v1 files (a v1 payload is one
    contiguous bit-packed run with no table).
    """

    version: int
    record_count: int
    bit_length: int
    metadata: dict
    committed_low32: int = 0
    segment_count: int = 0
    segment_records: int = 0
    segment_table_offset: int = 0

    @property
    def predictor_config(self) -> PredictorConfig | None:
        """Reconstruct the generation predictor, if recorded."""
        blob = self.metadata.get("predictor")
        if blob is None:
            return None
        return PredictorConfig(**blob)

    @property
    def bits_per_instruction(self) -> float:
        """Average encoded bits per record, straight from the header
        (Table 3's first column, without decoding the payload)."""
        if self.record_count == 0:
            return 0.0
        return self.bit_length / self.record_count


@dataclass(frozen=True)
class TraceLayout:
    """A trace file's parsed header and validated segment map: what a
    reader needs before it decodes a payload byte.

    :func:`read_trace_layout` parses it once; a
    :class:`~repro.trace.source.FileSource` and its :meth:`fresh
    <repro.trace.source.FileSource.fresh>` cursors share that parse
    and hand it to :func:`iter_trace_blocks`.  ``segments`` is the v2
    table, or one pseudo-segment spanning a v1 payload.  ``file_size``,
    ``file_inode`` and ``file_mtime_ns`` identify the file the table
    was validated against: a read refuses a file that differs in any
    of them, so a trace replaced at its path (an atomic rename) or
    rewritten in place never gets the old table.
    """

    header: TraceFileHeader
    header_length: int
    file_size: int
    file_inode: int
    file_mtime_ns: int
    segments: tuple[TraceSegment, ...]


def _predictor_metadata(config: PredictorConfig | None) -> dict | None:
    if config is None:
        return None
    return {
        "scheme": config.scheme,
        "l1_size": config.l1_size,
        "history_length": config.history_length,
        "l2_size": config.l2_size,
        "bimodal_size": config.bimodal_size,
        "meta_size": config.meta_size,
        "btb_entries": config.btb_entries,
        "btb_assoc": config.btb_assoc,
        "ras_depth": config.ras_depth,
    }


def _metadata_blob(
    predictor: PredictorConfig | None,
    benchmark: str | None,
    seed: int | None,
    extra: dict | None,
    prefix_bytes: int,
) -> bytes:
    """Serialize the metadata blob, enforcing the u16 header cap."""
    metadata = dict(extra or {})
    metadata.update({
        "predictor": _predictor_metadata(predictor),
        "benchmark": benchmark,
        "seed": seed,
    })
    blob = json.dumps(metadata, sort_keys=True).encode()
    if prefix_bytes + len(blob) > MAX_HEADER_LENGTH:
        raise TraceFileError(
            f"metadata blob is {len(blob)} bytes; the u16 header-length "
            f"field caps the header at {MAX_HEADER_LENGTH} bytes "
            f"({MAX_HEADER_LENGTH - prefix_bytes} bytes of metadata)"
        )
    return blob


class SegmentedTraceWriter:
    """Streams rows (or records) into a v2 trace file with bounded
    memory.

    The writer holds at most one partially encoded segment
    (``segment_records`` records) plus 12 bytes of table entry per
    flushed segment — generation never needs the full record list.
    Trace generation hands it batches of rows
    (:meth:`extend_rows`); :meth:`append` and :meth:`extend` take
    records and write their rows::

        with SegmentedTraceWriter(path, benchmark="gzip") as writer:
            for record in generator:
                writer.append(record)

    ``target`` may be a path or any seekable binary file object (the
    fixed prefix is patched at close, once the totals are known).  A
    file object's position at construction becomes the stream origin:
    the trace is laid out from there, and the stored segment-table
    offset is origin-relative — i.e. correct for a reader that treats
    the origin as byte 0 of a trace file.  On a clean
    ``close()``/``__exit__`` the file is complete and valid;
    if the body raises, the underlying handle is closed without
    finalizing, leaving an unreadable file (writers that need
    atomicity write to a temporary path and rename, as the sweep
    runner does).

    Raises
    ------
    TraceFileError
        At construction, if the metadata blob pushes the header past
        the 65535-byte limit of the u16 header-length field (nothing
        is written in that case).
    """

    def __init__(
        self,
        target: str | Path | BinaryIO,
        *,
        predictor: PredictorConfig | None = None,
        benchmark: str | None = None,
        seed: int | None = None,
        extra: dict | None = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        if segment_records < 1:
            raise TraceFileError(
                f"segment_records must be >= 1, got {segment_records}")
        blob = _metadata_blob(predictor, benchmark, seed, extra,
                              _V2_PREFIX)
        self._header_length = _V2_PREFIX + len(blob)
        self._segment_records = segment_records
        if isinstance(target, (str, Path)):
            # noqa'd: the handle outlives __init__ and is released in close().
            self._handle: BinaryIO = open(target, "w+b")  # noqa: SIM115
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._encoder = TraceEncoder()
        self._table: list[tuple[int, int]] = []  # (records, bits)
        self._record_count = 0
        self._committed = 0
        self._total_bits = 0
        self._closed = False
        self._bytes_written = 0
        self._origin = self._handle.tell()
        # Placeholder prefix (counts patched at close) + metadata.
        self._handle.write(bytes(_V2_PREFIX))
        self._handle.write(blob)

    # -- introspection --------------------------------------------------

    @property
    def record_count(self) -> int:
        """Records appended so far."""
        return self._record_count

    @property
    def bytes_written(self) -> int:
        """Total file size; valid only after :meth:`close`."""
        return self._bytes_written

    # -- writing --------------------------------------------------------

    def extend_rows(self, rows: Sequence[Row]) -> None:
        """Append a batch of rows, flushing each segment it fills.

        The segments after the open one are packed first, so a row the
        packer refuses raises ``ValueError`` before anything of the
        batch is written or counted.
        """
        if self._closed:
            raise TraceFileError("writer is closed")
        size = self._segment_records
        room = size - self._encoder.record_count
        later = []
        for start in range(room, len(rows), size):
            encoder = TraceEncoder()
            encoder.extend_rows(rows[start:start + size])
            later.append(encoder)
        self._encoder.extend_rows(rows[:room])
        self._record_count += len(rows)
        self._committed += sum(map(not_, map(_TAG, rows)))  # flags by truthiness
        for encoder in later:
            self._flush_segment()
            self._encoder = encoder
        if self._encoder.record_count == size:
            self._flush_segment()

    def append(self, record: TraceRecord) -> None:
        """Append one record, flushing a segment when full."""
        self.extend_rows((record_row(record),))

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append records a segment's worth at a time."""
        rows = map(record_row, records)
        while batch := list(islice(rows, self._segment_records)):
            self.extend_rows(batch)

    def _flush_segment(self) -> None:
        count = self._encoder.record_count
        if count == 0:
            return
        bits = self._encoder.bit_length
        self._handle.write(self._encoder.getvalue())
        self._table.append((count, bits))
        self._total_bits += bits
        self._encoder = TraceEncoder()

    def close(self) -> int:
        """Finalize the file; returns the total bytes written."""
        if self._closed:
            return self._bytes_written
        self._flush_segment()
        handle = self._handle
        table_offset = self._header_length + sum(
            (bits + 7) // 8 for _, bits in self._table)
        handle.seek(self._origin + table_offset)
        for count, bits in self._table:
            handle.write(count.to_bytes(4, "little"))
            handle.write(bits.to_bytes(8, "little"))
        self._bytes_written = handle.tell() - self._origin

        handle.seek(self._origin)
        handle.write(MAGIC)
        handle.write(VERSION_V2.to_bytes(2, "little"))
        handle.write(self._header_length.to_bytes(2, "little"))
        handle.write(self._record_count.to_bytes(8, "little"))
        handle.write(self._total_bits.to_bytes(8, "little"))
        handle.write(
            (self._committed & _COMMITTED_MASK).to_bytes(4, "little"))
        handle.write(len(self._table).to_bytes(4, "little"))
        handle.write(table_offset.to_bytes(8, "little"))
        handle.write(self._segment_records.to_bytes(4, "little"))

        self._closed = True
        if self._owns_handle:
            handle.close()
        return self._bytes_written

    def __enter__(self) -> SegmentedTraceWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self._owns_handle and not self._closed:
            self._closed = True
            self._handle.close()


def write_trace_file(
    path: str | Path,
    records: Sequence[TraceRecord],
    predictor: PredictorConfig | None = None,
    benchmark: str | None = None,
    seed: int | None = None,
    extra: dict | None = None,
    *,
    version: int = VERSION,
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
) -> int:
    """Serialize a trace; returns the number of bytes written.

    Writes format v2 (segmented) by default; pass ``version=1`` for
    the legacy monolithic layout.  The write is atomic: the file is
    assembled in memory, written to a temporary sibling and renamed
    over ``path``, so a crash mid-write neither destroys an existing
    trace at ``path`` nor leaves a truncated one (for traces too
    large to assemble in memory, stream through
    :class:`SegmentedTraceWriter` — or, with the same atomicity,
    :func:`repro.workloads.tracegen.write_workload_trace`).

    ``extra`` merges additional JSON-serializable keys into the
    metadata blob (e.g. a kernel's entry PC, or sweep provenance);
    the reserved ``predictor``/``benchmark``/``seed`` keys cannot be
    overridden.

    Raises
    ------
    TraceFileError
        If the metadata blob pushes the header past the 65535-byte
        limit of the u16 header-length field, or ``version`` is not a
        supported format.  Nothing is written in either case.
    """
    if version not in SUPPORTED_VERSIONS:
        raise TraceFileError(
            f"cannot write trace version {version}; supported: "
            f"{', '.join(map(str, SUPPORTED_VERSIONS))}"
        )
    buffer = io.BytesIO()
    if version == VERSION_V2:
        with SegmentedTraceWriter(
            buffer, predictor=predictor, benchmark=benchmark,
            seed=seed, extra=extra, segment_records=segment_records,
        ) as writer:
            writer.extend(records)
    else:
        payload, bit_length = encode_trace(records)
        blob = _metadata_blob(predictor, benchmark, seed, extra,
                              _V1_PREFIX)
        header_length = _V1_PREFIX + len(blob)
        buffer.write(MAGIC)
        buffer.write(VERSION_V1.to_bytes(2, "little"))
        buffer.write(header_length.to_bytes(2, "little"))
        buffer.write(len(records).to_bytes(8, "little"))
        buffer.write(bit_length.to_bytes(8, "little"))
        committed = sum(1 for record in records if not record.tag)
        buffer.write((committed & _COMMITTED_MASK).to_bytes(4, "little"))
        buffer.write(blob)
        buffer.write(payload)
    data = buffer.getvalue()
    with atomic_path(path) as tmp:
        tmp.write_bytes(data)
    return len(data)


def read_trace_header(path: str | Path) -> TraceFileHeader:
    """Parse just the header (cheap metadata inspection).

    Reads at most the 64 KB the u16 header-length field can address —
    the payload (arbitrarily large) is never loaded.
    """
    with open(path, "rb") as handle:
        data = handle.read(MAX_HEADER_LENGTH)
    return _parse_header(data)[0]


def _parse_header(data: bytes) -> tuple[TraceFileHeader, int]:
    if len(data) < _V1_PREFIX or data[:8] != MAGIC:
        raise TraceFileError("not a ReSim trace file (bad magic)")
    version = int.from_bytes(data[8:10], "little")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFileError(f"unsupported trace version {version}")
    prefix = _V1_PREFIX if version == VERSION_V1 else _V2_PREFIX
    header_length = int.from_bytes(data[10:12], "little")
    if header_length < prefix or header_length > len(data):
        raise TraceFileError("corrupt header length")
    record_count = int.from_bytes(data[12:20], "little")
    bit_length = int.from_bytes(data[20:28], "little")
    committed_low32 = int.from_bytes(data[28:32], "little")
    segment_count = 0
    segment_records = 0
    segment_table_offset = 0
    if version == VERSION_V2:
        segment_count = int.from_bytes(data[32:36], "little")
        segment_table_offset = int.from_bytes(data[36:44], "little")
        segment_records = int.from_bytes(data[44:48], "little")
    try:
        metadata = json.loads(data[prefix:header_length].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFileError(f"corrupt metadata blob: {error}") from None
    if not isinstance(metadata, dict):
        raise TraceFileError(
            f"metadata blob must be a JSON object, got "
            f"{type(metadata).__name__}"
        )
    header = TraceFileHeader(
        version=version,
        record_count=record_count,
        bit_length=bit_length,
        metadata=metadata,
        committed_low32=committed_low32,
        segment_count=segment_count,
        segment_records=segment_records,
        segment_table_offset=segment_table_offset,
    )
    return header, header_length


def _read_segment_table(
    handle: BinaryIO,
    header: TraceFileHeader,
    header_length: int,
    file_size: int,
) -> tuple[TraceSegment, ...]:
    """Read, validate and expand a v2 segment table into absolute
    offsets."""
    if header.segment_table_offset < header_length:
        raise TraceFileError("corrupt segment index: table offset "
                             "inside the header")
    if header.segment_table_offset > file_size:
        raise TraceFileError("truncated payload")
    handle.seek(header.segment_table_offset)
    table_bytes = handle.read()
    expected = header.segment_count * _SEGMENT_ENTRY_BYTES
    if len(table_bytes) != expected:
        raise TraceFileError(
            f"corrupt segment index: table holds {len(table_bytes)} "
            f"bytes, header claims {header.segment_count} segment(s) "
            f"({expected} bytes)"
        )
    if file_size != header.segment_table_offset + expected:
        raise TraceFileError(
            f"corrupt segment index: file is {file_size} bytes, "
            f"table at offset {header.segment_table_offset} ends at "
            f"{header.segment_table_offset + expected}"
        )
    segments: list[TraceSegment] = []
    offset = header_length
    total_records = 0
    total_bits = 0
    for index, (count, bits) in enumerate(
            _SEGMENT_ENTRY.iter_unpack(table_bytes)):
        segments.append(TraceSegment(index, count, bits, offset))
        offset += (bits + 7) // 8
        total_records += count
        total_bits += bits
    if offset != header.segment_table_offset:
        raise TraceFileError(
            f"corrupt segment index: segment payloads end at offset "
            f"{offset}, header places the table at "
            f"{header.segment_table_offset}"
        )
    if total_records != header.record_count:
        raise TraceFileError(
            f"segment index holds {total_records} records across "
            f"{header.segment_count} segment(s), header claims "
            f"{header.record_count}"
        )
    if total_bits != header.bit_length:
        raise TraceFileError(
            f"segment index holds {total_bits} payload bits, header "
            f"claims {header.bit_length}"
        )
    return tuple(segments)


def _read_layout(handle: BinaryIO, stat: os.stat_result) -> TraceLayout:
    file_size = stat.st_size
    header, header_length = _parse_header(handle.read(MAX_HEADER_LENGTH))
    if header.version == VERSION_V1:
        segments: tuple[TraceSegment, ...] = (TraceSegment(
            index=0,
            record_count=header.record_count,
            bit_length=header.bit_length,
            payload_offset=header_length,
        ),)
    else:
        segments = _read_segment_table(handle, header, header_length,
                                       file_size)
    return TraceLayout(header, header_length, file_size, stat.st_ino,
                       stat.st_mtime_ns, segments)


def read_trace_layout(path: str | Path) -> TraceLayout:
    """Parse a trace file's header and validate its segment table,
    without decoding the payload."""
    with open(path, "rb") as handle:
        return _read_layout(handle, os.fstat(handle.fileno()))


def read_segment_table(path: str | Path) -> tuple[TraceSegment, ...]:
    """The segment map of a trace file, for shard planning.

    For v2 files this is the validated on-disk table; a v1 payload is
    reported as one pseudo-segment spanning the whole payload, so
    shard planners can treat both formats uniformly.
    """
    return read_trace_layout(path).segments


def _verify_committed(header: TraceFileHeader, committed: int) -> None:
    if committed & _COMMITTED_MASK != header.committed_low32:
        raise TraceFileError(
            f"payload holds {committed} committed (untagged) records, "
            f"header consistency field claims "
            f"{header.committed_low32} (mod 2^32); trace Tag bits are "
            f"corrupt"
        )



def _decode_segment(data: bytes | bytearray, start_bit: int, end_bit: int,
                    stop_bit: int, index: int, origin: int = 0,
                    ) -> tuple[list[Row], int, int]:
    """:func:`decode_rows`, naming segment ``index`` and the bit
    offset (``origin`` bits before ``data``) of a corrupt record; also
    returns how many of the rows are untagged (committed)."""
    try:
        rows, pos = decode_rows(data, start_bit, end_bit, stop_bit)
    except CorruptRecordError as error:
        reason, bit = error.args
        raise TraceFileError(f"segment {index}: {reason} at bit "
                             f"{origin + bit}") from None
    return rows, len(rows) - sum(map(_TAG, rows)), pos


# ----------------------------------------------------------------------
# Decoded-segment cache: units over one trace decode each segment once.
# ----------------------------------------------------------------------

#: ``(payload bytes, bit length) -> (rows, committed count)``: the
#: count travels with the rows, so a hit never recounts Tag bits.
_SEGMENTS: BoundedMemo[tuple[bytes, int], tuple[tuple[Row, ...], int]] = \
    BoundedMemo("decoded segments", DECODED_SEGMENT_CACHE_RECORDS,
                weigh=lambda entry: len(entry[0]), unit="records")
#: Whether this thread's v2 reads consult the cache; see
#: :func:`decoded_segment_reuse`.
_SEGMENT_REUSE: ContextVar[bool] = ContextVar("decoded_segment_reuse",
                                              default=False)


@contextmanager
def decoded_segment_reuse() -> Iterator[None]:
    """Let v2 segment reads in this block (and this thread) share
    decoded segments through the process-wide cache.

    :func:`repro.exec.unit.execute_unit` runs every unit inside this
    scope, so a sweep, pool child, queue worker or campaign server
    decodes each segment of a trace once for all the design points it
    runs.  Reads outside the scope neither consult nor fill the cache.

    The key is the segment's exact payload bytes plus its bit length,
    so a hit is by construction the decode of identical bytes: no
    entry can go stale, and a corrupt segment never matches a clean
    one.  Entries are the decoded rows (the
    :data:`~repro.trace.record.ROW_FIELDS` layout) and their committed
    count, so a hit hands the generated engine exactly what a decode
    would; the record view of a segment is built per read, when a
    reader asks for records.  Every per-read check (segment table,
    per-segment record count, end-of-stream counts) still runs on each
    read; a decode that raises is never stored.  The cache holds at
    most :data:`DECODED_SEGMENT_CACHE_RECORDS` records.
    """
    token = _SEGMENT_REUSE.set(True)
    try:
        yield
    finally:
        _SEGMENT_REUSE.reset(token)


def _read_v2_segment(handle: BinaryIO, segment: TraceSegment,
                     ) -> tuple[Sequence[Row], int]:
    """Read and decode one v2 segment, checked against its table entry
    (from the cache when reuse is on); returns its rows and how many
    are committed."""
    handle.seek(segment.payload_offset)
    data = handle.read(segment.byte_length)
    if len(data) < segment.byte_length:
        raise TraceFileError(
            f"truncated segment {segment.index}: "
            f"{len(data)} of {segment.byte_length} bytes")
    key = (data, segment.bit_length)
    reuse = _SEGMENT_REUSE.get()
    entry = _SEGMENTS.get(key) if reuse else None
    if entry is None:
        rows, committed, _ = _decode_segment(
            data, 0, segment.bit_length, segment.bit_length, segment.index)
        entry = (rows, committed)
        if reuse:
            entry = _SEGMENTS.put(key, (tuple(rows), committed))
    if len(entry[0]) != segment.record_count:
        raise TraceFileError(
            f"segment {segment.index} holds {len(entry[0])} records, "
            f"segment index claims {segment.record_count}"
        )
    return entry


#: Hit/miss/size counters for the in-process decoded-segment cache.
#: Process telemetry only: never part of any statistics or result
#: document.
decoded_segment_cache_info = _SEGMENTS.info
#: Drop all decoded segments and zero the counters (test isolation).
clear_decoded_segment_cache = _SEGMENTS.clear


def _iter_v1_payload(handle: BinaryIO, bit_length: int,
                     ) -> Iterator[tuple[list[Row], int]]:
    """Decode a v1 payload in bounded chunks, yielding each chunk's
    rows and how many are committed.

    The payload is one contiguous bit-packed run.  Each pass decodes
    every record that lies wholly inside the buffered chunk, then
    drops the consumed whole bytes, keeping resident memory at one
    chunk.
    """
    buffer = bytearray()
    origin = 0  # payload bit offset of buffer[0]
    pos = 0     # next record, in bits from buffer[0]
    while True:
        want = min(bit_length - origin, pos + 8 * _V1_CHUNK_BYTES)
        while 8 * len(buffer) < want:
            chunk = handle.read(_V1_CHUNK_BYTES)
            if not chunk:
                raise TraceFileError("truncated payload")
            buffer += chunk
        end = min(bit_length - origin, 8 * len(buffer))
        last = end == bit_length - origin
        # Short of the payload's end, decode only records that start
        # early enough to end inside the buffer, whatever their format.
        rows, committed, pos = _decode_segment(
            buffer, pos, end, end if last else end - _MAX_RECORD_BITS + 1,
            0, origin)
        yield rows, committed
        if last:
            return
        del buffer[:pos >> 3]
        origin += pos & ~7
        pos &= 7


def iter_trace_blocks(
    path: str | Path,
    *,
    segments: Sequence[TraceSegment] | None = None,
    layout: TraceLayout | None = None,
) -> Iterator[Sequence[Row]]:
    """Stream a trace file as blocks of decoded rows (the
    :data:`~repro.trace.record.ROW_FIELDS` layout), with bounded
    memory: the one reader, which :func:`iter_trace_records` turns
    into records and :class:`~repro.trace.source.FileSource` hands to
    the engine.

    v2 payloads come one segment per block (each checked against its
    table entry); v1 payloads come in fixed-size chunks.  When a
    whole-file read is exhausted, the total record count and the
    committed-count consistency field are always verified, so a fully
    drained stream gives the same corruption guarantees as
    :func:`read_trace_file`.  The stream holds one block at a time;
    inside :func:`decoded_segment_reuse`, which every executed work
    unit enters, v2 segments also come from and go to the
    process-wide decoded-segment cache, whose fixed
    :data:`DECODED_SEGMENT_CACHE_RECORDS`-record bound is the only
    extra memory.

    ``segments`` restricts a v2 read to a subset of the table (shard
    workers pass the slice they own); partial reads skip the
    whole-file count and committed checks, since they see only their
    shard.  ``layout`` is the file's :func:`read_trace_layout`, parsed
    earlier, which the read then trusts instead of parsing the header
    and table again, as long as the open file is the one it was
    validated against (same size, inode and modification time).
    """
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        file_size = stat.st_size
        if layout is None:
            layout = _read_layout(handle, stat)
        elif file_size != layout.file_size:
            raise TraceFileError(
                f"trace file {path} is {file_size} bytes, was "
                f"{layout.file_size} when its segment table was read")
        elif (stat.st_ino, stat.st_mtime_ns) != (layout.file_inode,
                                                 layout.file_mtime_ns):
            raise TraceFileError(
                f"trace file {path} was replaced or rewritten since "
                f"its segment table was read")
        header = layout.header
        if header.version == VERSION_V1:
            if segments is not None:
                raise TraceFileError(
                    "segment-restricted reads need a v2 trace file")
            payload_bytes = file_size - layout.header_length
            if header.bit_length > 8 * max(0, payload_bytes):
                raise TraceFileError("truncated payload")
            handle.seek(layout.header_length)
            blocks = _iter_v1_payload(handle, header.bit_length)
        else:
            blocks = map(partial(_read_v2_segment, handle),
                         layout.segments if segments is None
                         else segments)
        records = 0
        committed = 0
        for block, block_committed in blocks:
            records += len(block)
            committed += block_committed
            yield block
        if segments is not None:
            return
        if records != header.record_count:
            raise TraceFileError(
                f"payload holds {records} records, header claims "
                f"{header.record_count}"
            )
        _verify_committed(header, committed)


def iter_trace_records(
    path: str | Path,
    *,
    segments: Sequence[TraceSegment] | None = None,
) -> Iterator[TraceRecord]:
    """Stream a trace file's records with bounded memory: the rows
    of :func:`iter_trace_blocks` (same arguments, same checks) as
    records, one at a time."""
    for block in iter_trace_blocks(path, segments=segments):
        yield from map(row_record, block)


def read_trace_file(
    path: str | Path,
) -> tuple[TraceFileHeader, list[TraceRecord]]:
    """Deserialize a trace file into its header and records.

    Materializes the whole trace in memory; for constant-memory
    ingestion use :func:`iter_trace_records` or
    :class:`repro.trace.source.FileSource`.

    Raises
    ------
    TraceFileError
        On bad magic, unsupported version, corrupt header, a payload
        whose record count disagrees with the header (or, for v2, a
        segment disagreeing with the segment index), or decoded
        records whose committed (untagged) count disagrees with the
        offset-28 consistency field.
    """
    return read_trace_header(path), list(iter_trace_records(path))
