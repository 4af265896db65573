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

The serializer is :func:`pack_rows`, one loop over plain field rows
(the layout :data:`repro.trace.record.ROW_FIELDS` declares), which is
the form trace generation emits; it checks every row the way the
record constructors check records, so a bad row never becomes a file
that decodes.  :class:`TraceEncoder` and :func:`pack_record` pack
records through their :func:`~repro.trace.record.record_row`.

The software deserializer is :func:`decode_rows`: it decodes straight
into the same rows, which the decoded-segment cache holds and the
generated engine reads without building an object per instruction.
Like the paper's deserializer, which picks a record's format from its
header bits, it looks each record's top 6 bits (kind, Tag, FU code)
up in one 64-entry table, :data:`_HEADS`, for the width, kind, Tag
and FU class — or, for a head no valid record has, the refusal — and
takes the rest of the record from one 64-bit read (a 9th byte only
when an M or B record crosses it).
:func:`decode_records` is the same decode mapped through
:func:`~repro.trace.record.row_record`, for tools and the reference
engine, which take record objects.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence

from repro.isa.opcodes import BranchKind, FuClass
from repro.trace.record import (
    BRANCH_NUMBERS,
    FU_NUMBERS,
    MEMORY_FUS,
    NUMBER_TO_BRANCH,
    NUMBER_TO_FU,
    OtherRecord,
    RecordKind,
    Row,
    TRACE_REG_LIMIT,
    TraceRecord,
    record_row,
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
# Kind codes as plain ints: the packing and decode loops compare one
# per record.
_OTHER_CODE, _BRANCH_CODE, _MEMORY_CODE = (
    RecordKind.OTHER.value, RecordKind.BRANCH.value, RecordKind.MEMORY.value)


class CorruptRecordError(ValueError):
    """``(reason, bit)``: a record no valid trace holds, ``bit`` bits in."""


#: The width of a head no valid record starts with: larger than any
#: payload, so the decoder's truncation test takes it to its refusal.
_REFUSED = 1 << 64


def _head_entry(head: int) -> tuple[int, int | str, bool, FuClass | None]:
    """``(width, kind, tag, fu)`` of a record whose top 6 bits (kind,
    Tag, FU code) are ``head``.  A head no valid record has carries
    its refusal in place of the kind: an unused kind or FU code with
    width :data:`_REFUSED` (refused before the truncation test), an
    FU class the format does not carry with the format's width
    (refused after it).  M records are checked against their store
    bit by the decoder."""
    kind, tag, fu_code = head >> 4, head >> 3 & 1 == 1, head & 7
    width, fu = FORMAT_BITS.get(kind), NUMBER_TO_FU[fu_code]
    if width is None:
        return _REFUSED, f"kind code {kind}", tag, fu
    if fu is None:
        return _REFUSED, f"FU code {fu_code}", tag, fu
    if kind == _OTHER_CODE and fu in MEMORY_FUS:
        return width, f"FU code {fu_code} in an other record", tag, fu
    if kind == _BRANCH_CODE and fu is not FuClass.BRANCH:
        return width, f"FU code {fu_code} in a branch record", tag, fu
    return width, kind, tag, fu


#: :func:`_head_entry` of every 6-bit record head: the decoder's one
#: table, the software form of the paper's deserializer picking a
#: record's format from its header bits.
_HEADS = tuple(map(_head_entry, range(64)))
#: A big-endian 64-bit read: every record's head, and all of it unless
#: an M or B record crosses into a 9th byte.
_WORD = struct.Struct(">Q")


def record_bit_length(record: TraceRecord) -> int:
    """Exact encoded size of one record, in bits."""
    return FORMAT_BITS[record.kind]


# Constants of the packing loop: the kind and FU header bits of M and
# B records and of each FU class an O record may carry, the FU and
# branch-kind members it tests by identity (an enum member hashes in
# Python, so the common ones skip the table lookup) and the flag bits.
_LOAD_HEAD, _STORE_HEAD = ((RecordKind.MEMORY << _KIND | FU_NUMBERS[fu] << _FU)
                           for fu in MEMORY_FUS)
_BRANCH_HEAD = RecordKind.BRANCH << _KIND | FU_NUMBERS[FuClass.BRANCH] << _FU
_OTHER_HEADS = {fu: code << _FU for fu, code in FU_NUMBERS.items()
                if fu not in MEMORY_FUS}
_ALU, _LOAD, _STORE_FU, _BRANCH_FU, _COND = (
    FuClass.ALU, FuClass.LOAD, FuClass.STORE, FuClass.BRANCH, BranchKind.COND)
_M_BITS, _B_BITS = FORMAT_BITS[RecordKind.MEMORY], FORMAT_BITS[RecordKind.BRANCH]
_TAG_BIT, _STORE_BIT, _TAKEN_BIT = 1 << _TAG, 1 << _STORE, 1 << _TAKEN
#: Bits the packing loop holds in an int before it writes out bytes.
_FLUSH_BITS = 512


def _row_error(row: Row) -> ValueError:
    """Why :func:`pack_rows` refuses ``row``: the check of the record
    constructors (or of the format) that it fails."""
    kind, _, fu, dest, src1, src2, f1, f2, f3 = row
    for name, value in (("dest", dest), ("src1", src1), ("src2", src2)):
        if not 0 <= value < TRACE_REG_LIMIT:
            return ValueError(f"{name}={value} outside 6-bit trace register space")
    if kind == _OTHER_CODE:
        return ValueError(f"other record fu={fu} is not an other-record class")
    if kind == _MEMORY_CODE:
        if fu is not MEMORY_FUS[1 if f1 else 0]:
            return ValueError(f"memory record fu={fu} inconsistent with is_store={f1}")
        if not 0 <= f2 < (1 << 32):
            return ValueError(f"address {f2:#x} not a 32-bit value")
        return ValueError(f"size_log2 {f3} out of range")
    if kind == _BRANCH_CODE:
        if fu is not _BRANCH_FU:
            return ValueError("branch record must have fu=BRANCH")
        if f1 not in BRANCH_NUMBERS:
            return ValueError(f"branch record needs a concrete branch kind, got {f1}")
        return ValueError(f"target {f3:#x} not a 32-bit value")
    return ValueError(f"kind code {kind} is not a record format")


def pack_rows(rows: Iterable[Row], out: bytearray, bits: int) -> int:
    """Pack ``rows`` onto ``out``, which holds ``bits`` bits (its last
    byte zero-padded); returns the new bit count.

    This is the codec's one packing loop: every record, generated or
    converted by :func:`~repro.trace.record.record_row`, is written
    here.  Flags (Tag, ``is_store``, ``taken``) pack as 0/1 whatever
    truthy value they hold.  Each row gets the checks the record
    constructors make — 6-bit registers, a 32-bit address or target,
    a 2-bit access size, an FU class that fits the format and a
    concrete branch kind — and a row that fails one raises
    ``ValueError`` with ``out`` left as it was.
    """
    pending = bits & 7  # bits already in out's last byte
    acc = out[-1] >> (8 - pending) if pending else 0
    held = pending
    packed = bytearray()
    other_heads, branch_numbers = _OTHER_HEADS, BRANCH_NUMBERS
    for row in rows:
        kind, tag, fu, dest, src1, src2, f1, f2, f3 = row
        if (dest | src1 | src2) >> 6:  # a negative or wider-than-6-bit one
            raise _row_error(row)
        head = (_TAG_BIT if tag else 0) | dest << _DEST | src1 << _SRC1 | src2
        if kind == _OTHER_CODE:
            fu_bits = 0 if fu is _ALU else other_heads.get(fu)
            if fu_bits is None:
                raise _row_error(row)
            acc = acc << _COMMON_BITS | head | fu_bits
            held += _COMMON_BITS
        elif kind == _MEMORY_CODE:
            if fu is not (_STORE_FU if f1 else _LOAD) or f2 >> 32 or f3 >> 2:
                raise _row_error(row)
            acc = (acc << _M_BITS | (head | (_STORE_HEAD if f1 else _LOAD_HEAD))
                   << _MEMORY_TAIL | (_STORE_BIT if f1 else 0) | f3 << _SIZE | f2)
            held += _M_BITS
        elif kind == _BRANCH_CODE:
            code = 0 if f1 is _COND else branch_numbers.get(f1)
            if fu is not _BRANCH_FU or code is None or f3 >> 32:
                raise _row_error(row)
            acc = (acc << _B_BITS | (head | _BRANCH_HEAD) << _BRANCH_TAIL
                   | code << _BRANCH_KIND | (_TAKEN_BIT if f2 else 0) | f3)
            held += _B_BITS
        else:
            raise _row_error(row)
        if held >= _FLUSH_BITS:
            spare = held & 7
            packed += (acc >> spare).to_bytes(held >> 3, "big")
            acc &= (1 << spare) - 1
            held = spare
    end = bits - pending + 8 * len(packed) + held
    if held:
        packed += (acc << (-held & 7)).to_bytes((held + 7) >> 3, "big")
    if pending:
        del out[-1]
    out += packed
    return end


def pack_record(record: TraceRecord) -> tuple[int, int]:
    """One record as ``(word, width)``, MSB first; flags pack as 0/1.

    >>> word, width = pack_record(OtherRecord(tag=True, dest=1, src2=3))
    >>> f"{word:0{width}b}"
    '001000000001000000000011'
    """
    out = bytearray()
    width = pack_rows((record_row(record),), out, 0)
    return int.from_bytes(out, "big") >> (-width & 7), width


class TraceEncoder:
    """Packs rows (or records) into a growing bit-packed buffer.

    :meth:`extend_rows` is the form trace generation feeds, a batch at
    a time; :meth:`append` and :meth:`extend` take records and pack
    their :func:`~repro.trace.record.record_row`.  Use
    :func:`encode_trace` for the common whole-trace case.
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

    def extend_rows(self, rows: Sequence[Row]) -> None:
        """Encode a batch of rows; a bad row raises ``ValueError`` and
        encodes none of the batch."""
        self._bits = pack_rows(rows, self._buffer, self._bits)
        self._count += len(rows)

    def append(self, record: TraceRecord) -> None:
        """Encode one record at the current bit position."""
        self.extend_rows((record_row(record),))

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self.extend_rows(list(map(record_row, records)))

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


def decode_rows(data: bytes | bytearray, start_bit: int, end_bit: int,
                stop_bit: int) -> tuple[list[Row], int]:
    """Decode the records that start in ``[start_bit, stop_bit)`` of a
    payload ending at ``end_bit`` into rows; returns them and the next
    offset.  Raises :class:`CorruptRecordError` for a record no valid
    trace holds, which is everything the layout does not bound itself:
    an unused kind, FU or branch-kind code, an FU class that does not
    fit the format, or a record running past the payload — checked in
    that order, so each damaged record has one reason.

    Each record is one :data:`_HEADS` lookup on its top 6 bits and one
    64-bit read; the bit offsets below are the layout's (a record's
    fields end ``width`` bits after its start)."""
    window = bytes(data) + bytes(9)  # every 8-byte read, and a 9th byte
    read = _WORD.unpack_from
    heads, memory_fus, branches = _HEADS, MEMORY_FUS, NUMBER_TO_BRANCH
    rows: list[Row] = []
    append = rows.append
    pos, stop = start_bit, min(stop_bit, end_bit - _COMMON_BITS + 1)
    limit = min(end_bit, 8 * len(data))  # no record may run past either
    while pos < stop:
        at, sh = pos >> 3, pos & 7
        word = read(window, at)[0]
        width, kind, tag, fu = heads[word >> 58 - sh & 63]
        if pos + width > limit:
            raise CorruptRecordError(
                kind if width == _REFUSED else "truncated record", pos)
        if kind == 0:  # O: 24 bits
            x = word >> 40 - sh
            append((0, tag, fu, x >> 12 & 63, x >> 6 & 63, x & 63,
                    None, None, None))
        elif kind == 2:  # M: 59 bits, a 9th byte from offset 6 on
            x = (word >> 5 - sh if sh < 6
                 else (word << 8 | window[at + 8]) >> 13 - sh)
            store = x >> 34 & 1
            if fu is not memory_fus[store]:
                access = "store" if store else "load"
                raise CorruptRecordError(
                    f"FU code {word >> 58 - sh & 7} in a {access} record", pos)
            append((2, tag, fu, x >> 47 & 63, x >> 41 & 63, x >> 35 & 63,
                    store == 1, x & 0xFFFF_FFFF, x >> 32 & 3))
        elif kind == 1:  # B: 60 bits, a 9th byte from offset 5 on
            x = (word >> 4 - sh if sh < 5
                 else (word << 8 | window[at + 8]) >> 12 - sh)
            branch = branches[x >> 33 & 7]
            if branch is None:
                raise CorruptRecordError(f"branch kind code {x >> 33 & 7}", pos)
            append((1, tag, fu, x >> 48 & 63, x >> 42 & 63, x >> 36 & 63,
                    branch, x >> 32 & 1 == 1, x & 0xFFFF_FFFF))
        else:  # an FU class the format does not carry
            raise CorruptRecordError(kind, pos)
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
