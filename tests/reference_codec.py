"""Bit-serial reference codec: the oracle for ``repro.trace.encode``.

This is the trace codec written the slow, obvious way: one field at a
time through bit-granular writer/reader primitives that move a single
bit per step, MSB first.  The word-level codec in ``repro.trace.encode``
must produce the same bytes and decode the same records (or fail on
the same inputs); ``tests/test_trace_codec.py`` checks both, and
``tests/test_bitio.py`` checks the primitives themselves.
"""

from __future__ import annotations

from repro.trace.record import (
    BRANCH_NUMBERS,
    BranchRecord,
    FU_NUMBERS,
    MemoryRecord,
    OtherRecord,
    RecordKind,
)

_CODE_TO_FU = {code: fu for fu, code in FU_NUMBERS.items()}
_CODE_TO_BRANCH = {code: kind for kind, code in BRANCH_NUMBERS.items()}


class BitWriter:
    """Accumulates values bit-by-bit into a growing byte buffer.

    Bits are packed MSB-first.  ``write(value, width)`` appends the
    ``width`` low-order bits of ``value``.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._bitpos = 0  # number of bits already written

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._bitpos

    @property
    def byte_length(self) -> int:
        """Number of bytes needed to hold the written bits."""
        return (self._bitpos + 7) // 8

    def write(self, value: int, width: int) -> None:
        """Append the ``width`` low-order bits of ``value``; raises
        ``ValueError`` if the width is negative or the value does not
        fit."""
        if width < 0:
            raise ValueError(f"negative bit width: {width}")
        if value < 0:
            raise ValueError(f"negative value not encodable: {value}")
        if value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            bit = (value >> shift) & 1
            byte_index, bit_index = divmod(self._bitpos, 8)
            if byte_index == len(self._buffer):
                self._buffer.append(0)
            if bit:
                self._buffer[byte_index] |= 0x80 >> bit_index
            self._bitpos += 1

    def write_bool(self, flag: bool) -> None:
        """Append a single bit."""
        self.write(1 if flag else 0, 1)

    def getvalue(self) -> bytes:
        """Return the packed bytes (final partial byte zero-padded)."""
        return bytes(self._buffer)

    def clear(self) -> None:
        """Reset the writer to empty."""
        self._buffer.clear()
        self._bitpos = 0


class BitReader:
    """Reads values bit-by-bit from a byte buffer produced by BitWriter."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._bitpos = 0
        self._bit_length = 8 * len(data) if bit_length is None else bit_length
        if self._bit_length > 8 * len(data):
            raise ValueError("bit_length exceeds buffer size")

    @property
    def bits_remaining(self) -> int:
        """Number of bits left to read."""
        return self._bit_length - self._bitpos

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer; raises
        ``EOFError`` if fewer remain."""
        if width < 0:
            raise ValueError(f"negative bit width: {width}")
        if width > self.bits_remaining:
            raise EOFError(
                f"requested {width} bits, only {self.bits_remaining} remain"
            )
        value = 0
        for _ in range(width):
            byte_index, bit_index = divmod(self._bitpos, 8)
            bit = (self._data[byte_index] >> (7 - bit_index)) & 1
            value = (value << 1) | bit
            self._bitpos += 1
        return value

    def read_bool(self) -> bool:
        """Read a single bit as a boolean."""
        return self.read(1) == 1

    def seek_bit(self, position: int) -> None:
        """Move the read cursor to an absolute bit offset."""
        if not 0 <= position <= self._bit_length:
            raise ValueError(f"bit position {position} out of range")
        self._bitpos = position


def reference_encode(records) -> tuple[bytes, int]:
    """Encode records field by field; returns ``(buffer, bit_length)``."""
    writer = BitWriter()
    for record in records:
        writer.write(int(record.kind), 2)
        writer.write_bool(record.tag)
        writer.write(FU_NUMBERS[record.fu], 3)
        writer.write(record.dest, 6)
        writer.write(record.src1, 6)
        writer.write(record.src2, 6)
        if isinstance(record, MemoryRecord):
            writer.write_bool(record.is_store)
            writer.write(record.size_log2, 2)
            writer.write(record.address, 32)
        elif isinstance(record, BranchRecord):
            writer.write(BRANCH_NUMBERS[record.branch_kind], 3)
            writer.write_bool(record.taken)
            writer.write(record.target, 32)
    return writer.getvalue(), writer.bit_length


def reference_decode(data: bytes, bit_length: int | None = None) -> list:
    """Decode field by field until less than a record header remains.

    Raises ``EOFError`` for a record cut short, ``KeyError`` or
    ``ValueError`` for a code or field combination no record has.
    """
    reader = BitReader(data, bit_length)
    records = []
    while reader.bits_remaining >= 24:
        kind = RecordKind(reader.read(2))
        tag = reader.read_bool()
        fu = _CODE_TO_FU[reader.read(3)]
        regs = dict(dest=reader.read(6), src1=reader.read(6),
                    src2=reader.read(6))
        if kind is RecordKind.OTHER:
            records.append(OtherRecord(tag=tag, fu=fu, **regs))
        elif kind is RecordKind.MEMORY:
            records.append(MemoryRecord(
                tag=tag, fu=fu, **regs, is_store=reader.read_bool(),
                size_log2=reader.read(2), address=reader.read(32)))
        else:
            records.append(BranchRecord(
                tag=tag, fu=fu, **regs,
                branch_kind=_CODE_TO_BRANCH[reader.read(3)],
                taken=reader.read_bool(), target=reader.read(32)))
    return records
