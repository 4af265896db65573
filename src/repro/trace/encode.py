"""Bit-packed trace codec.

Field layout (all records start with the 2-bit kind and 1-bit Tag):

====== ======================================================== ======
format fields                                                   bits
====== ======================================================== ======
O      kind(2) tag(1) fu(3) dest(6) src1(6) src2(6)             24
M      O-header + is_store(1) size_log2(2) address(32)          59
B      O-header + branch_kind(3) taken(1) target(32)            60
====== ======================================================== ======

These widths put typical SPECint mixes at ~40-45 bits per dynamic
instruction, matching the 41.16-47.14 range the paper reports in
Table 3.  The codec is deliberately simple (no inter-record
compression): ReSim's FPGA deserializer must decode a record per minor
cycle, so the hardware-friendly flat layout is part of the design.

The software deserializer is :func:`decode_rows`: it decodes straight
into plain field rows (the layout :data:`repro.trace.record.ROW_FIELDS`
declares), which the decoded-segment cache holds and the generated
engine reads without building an object per instruction.
:func:`decode_records` is the same decode mapped through
:func:`~repro.trace.record.row_record`, for tools and the reference
engine, which take record objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.isa.opcodes import FuClass
from repro.trace.record import (
    BRANCH_NUMBERS,
    BranchRecord,
    FU_NUMBERS,
    MEMORY_FUS,
    MemoryRecord,
    NUMBER_TO_BRANCH,
    NUMBER_TO_FU,
    OtherRecord,
    RecordKind,
    Row,
    TraceRecord,
    row_record,
)


def _fields(*widths: int) -> tuple[int, ...]:
    """The shift of each field packed MSB first, then the total width."""
    return (*(sum(widths[i + 1:]) for i in range(len(widths))), sum(widths))


# The layout tabled above; a record word is ``header << tail_bits | tail``.
_KIND, _TAG, _FU, _DEST, _SRC1, _SRC2, _COMMON_BITS = _fields(2, 1, 3, 6, 6, 6)
_STORE, _SIZE, _ADDRESS, _MEMORY_TAIL = _fields(1, 2, 32)
_BRANCH_KIND, _TAKEN, _TARGET, _BRANCH_TAIL = _fields(3, 1, 32)
#: Encoded size of each record format, in bits.
FORMAT_BITS: dict[RecordKind, int] = {
    RecordKind.OTHER: _COMMON_BITS,
    RecordKind.MEMORY: _COMMON_BITS + _MEMORY_TAIL,
    RecordKind.BRANCH: _COMMON_BITS + _BRANCH_TAIL,
}
_WIDTHS = tuple(map(FORMAT_BITS.get, range(4)))  # by kind code; 3 is none
_WINDOW_BYTES = (7 + max(FORMAT_BITS.values()) + 7) // 8  # any record, any offset
# Kind codes as plain ints: the decode loop compares one per record.
_OTHER_CODE, _MEMORY_CODE = RecordKind.OTHER.value, RecordKind.MEMORY.value


class CorruptRecordError(ValueError):
    """``(reason, bit)``: a record no valid trace holds, ``bit`` bits in."""


def record_bit_length(record: TraceRecord) -> int:
    """Exact encoded size of one record, in bits."""
    return FORMAT_BITS[record.kind]


def pack_record(record: TraceRecord) -> tuple[int, int]:
    """One record as ``(word, width)``, MSB first; flags pack as 0/1.

    >>> word, width = pack_record(OtherRecord(tag=True, dest=1, src2=3))
    >>> f"{word:0{width}b}"
    '001000000001000000000011'
    """
    header = (bool(record.tag) << _TAG | FU_NUMBERS[record.fu] << _FU
              | record.dest << _DEST | record.src1 << _SRC1 | record.src2)
    if isinstance(record, MemoryRecord):
        return ((header | RecordKind.MEMORY << _KIND) << _MEMORY_TAIL
                | bool(record.is_store) << _STORE | record.size_log2 << _SIZE
                | record.address, _COMMON_BITS + _MEMORY_TAIL)
    if isinstance(record, BranchRecord):
        return ((header | RecordKind.BRANCH << _KIND) << _BRANCH_TAIL
                | BRANCH_NUMBERS[record.branch_kind] << _BRANCH_KIND
                | bool(record.taken) << _TAKEN | record.target, _COMMON_BITS + _BRANCH_TAIL)
    return header, _COMMON_BITS


class TraceEncoder:
    """Streams records into a bit-packed buffer.

    Use :func:`encode_trace` for the common whole-trace case; the
    incremental encoder exists for the on-the-fly generation mode the
    paper mentions (functional simulator feeding ReSim directly).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()  # the last byte is zero-padded
        self._bits = 0
        self._count = 0

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def bit_length(self) -> int:
        return self._bits

    def append(self, record: TraceRecord) -> None:
        """Encode one record at the current bit position."""
        word, width = pack_record(record)
        pending = self._bits & 7  # bits already in the last byte
        if pending:
            word |= self._buffer.pop() >> (8 - pending) << width
        self._bits += width
        width += pending
        self._buffer += (word << (-width & 7)).to_bytes((width + 7) >> 3, "big")
        self._count += 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        for record in records:
            self.append(record)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


def decode_rows(data: bytes | bytearray, start_bit: int, end_bit: int,
                stop_bit: int) -> tuple[list[Row], int]:
    """Decode the records that start in ``[start_bit, stop_bit)`` of a
    payload ending at ``end_bit`` into rows; returns them and the next
    offset.  Raises :class:`CorruptRecordError` for a record no valid
    trace holds, which is everything the layout does not bound itself:
    an unused kind, FU or branch-kind code, an FU class that does not
    fit the format, or a record running past the payload."""
    window = bytes(data) + bytes(_WINDOW_BYTES)
    rows: list[Row] = []
    append = rows.append
    pos, stop = start_bit, min(stop_bit, end_bit - _COMMON_BITS + 1)
    limit = min(end_bit, 8 * len(data))  # no record may run past either
    while pos < stop:
        at = pos >> 3
        bits = int.from_bytes(window[at:at + _WINDOW_BYTES], "big")
        head = bits >> (8 * _WINDOW_BYTES - _COMMON_BITS - (pos & 7))
        kind, fu_code = head >> _KIND & 3, head >> _FU & 7
        width, fu = _WIDTHS[kind], NUMBER_TO_FU[fu_code]
        if width is None or fu is None or pos + width > limit:
            reason = ("truncated record" if width and fu else
                      f"FU code {fu_code}" if width else f"kind code {kind}")
            raise CorruptRecordError(reason, pos)
        tag, dest, src1, src2 = (bool(head >> _TAG & 1), head >> _DEST & 0x3F,
                                 head >> _SRC1 & 0x3F, head & 0x3F)
        tail = bits >> (8 * _WINDOW_BYTES - width - (pos & 7))
        if kind == _OTHER_CODE:
            if fu in MEMORY_FUS:
                raise CorruptRecordError(f"FU code {fu_code} in an other record", pos)
            append((kind, tag, fu, dest, src1, src2, None, None, None))
        elif kind == _MEMORY_CODE:
            store = tail >> _STORE & 1
            if fu is not MEMORY_FUS[store]:
                access = "store" if store else "load"
                raise CorruptRecordError(f"FU code {fu_code} in a {access} record", pos)
            append((kind, tag, fu, dest, src1, src2, bool(store),
                    tail & 0xFFFF_FFFF, tail >> _SIZE & 3))
        elif fu is not FuClass.BRANCH:
            raise CorruptRecordError(f"FU code {fu_code} in a branch record", pos)
        elif (branch := NUMBER_TO_BRANCH[tail >> _BRANCH_KIND & 7]) is None:
            raise CorruptRecordError(f"branch kind code {tail >> _BRANCH_KIND & 7}", pos)
        else:
            append((kind, tag, fu, dest, src1, src2, branch, bool(tail >> _TAKEN & 1),
                    tail & 0xFFFF_FFFF))
        pos += width
    return rows, pos


def decode_records(data: bytes | bytearray, start_bit: int, end_bit: int,
                   stop_bit: int) -> tuple[list[TraceRecord], int]:
    """:func:`decode_rows` as records: same arguments, same checks."""
    rows, pos = decode_rows(data, start_bit, end_bit, stop_bit)
    return list(map(row_record, rows)), pos


def encode_trace(records: Sequence[TraceRecord]) -> tuple[bytes, int]:
    """Encode a whole trace; returns ``(buffer, exact_bit_length)``."""
    encoder = TraceEncoder()
    encoder.extend(records)
    return encoder.getvalue(), encoder.bit_length


def decode_trace(data: bytes, bit_length: int | None = None) -> list[TraceRecord]:
    """Decode a buffer produced by :func:`encode_trace`."""
    end = 8 * len(data) if bit_length is None else bit_length
    return decode_records(data, 0, end, end)[0]
