"""Unit and property tests for the bit-serial primitives of the
reference codec (tests/reference_codec.py)."""

import pytest
from hypothesis import given, strategies as st

from reference_codec import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer(self):
        writer = BitWriter()
        assert writer.bit_length == 0
        assert writer.byte_length == 0
        assert writer.getvalue() == b""

    def test_single_bits_msb_first(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b1, 1)
        assert writer.bit_length == 4
        assert writer.getvalue()[0] == 0b1011_0000

    def test_byte_boundary_crossing(self):
        writer = BitWriter()
        writer.write(0xABC, 12)
        assert writer.byte_length == 2
        assert writer.getvalue() == bytes([0xAB, 0xC0])

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0

    def test_value_too_wide_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0b100, 2)

    def test_negative_value_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(-1, 8)

    def test_negative_width_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(0, -1)

    def test_write_bool(self):
        writer = BitWriter()
        writer.write_bool(True)
        writer.write_bool(False)
        writer.write_bool(True)
        assert writer.getvalue()[0] == 0b1010_0000

    def test_clear(self):
        writer = BitWriter()
        writer.write(0xFF, 8)
        writer.clear()
        assert writer.bit_length == 0
        assert writer.getvalue() == b""


class TestBitReader:
    def test_roundtrip_simple(self):
        writer = BitWriter()
        writer.write(42, 13)
        reader = BitReader(writer.getvalue())
        assert reader.read(13) == 42

    def test_bits_remaining(self):
        reader = BitReader(bytes(2))
        assert reader.bits_remaining == 16
        reader.read(5)
        assert reader.bits_remaining == 11

    def test_explicit_bit_length(self):
        reader = BitReader(bytes(2), bit_length=10)
        assert reader.bits_remaining == 10
        reader.read(10)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_bit_length_exceeding_buffer_rejected(self):
        with pytest.raises(ValueError):
            BitReader(bytes(1), bit_length=9)

    def test_read_past_end_raises(self):
        reader = BitReader(bytes(1))
        with pytest.raises(EOFError):
            reader.read(9)

    def test_read_bool(self):
        reader = BitReader(bytes([0b1000_0000]))
        assert reader.read_bool() is True
        assert reader.read_bool() is False

    def test_seek_bit(self):
        writer = BitWriter()
        writer.write(0b1111_0000, 8)
        reader = BitReader(writer.getvalue())
        reader.read(8)
        reader.seek_bit(4)
        assert reader.read(4) == 0

    def test_seek_out_of_range(self):
        reader = BitReader(bytes(1))
        with pytest.raises(ValueError):
            reader.seek_bit(9)


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**40 - 1),
              st.integers(min_value=1, max_value=40)),
    max_size=60,
))
def test_roundtrip_property(fields):
    """Any sequence of (value, width) pairs survives a roundtrip."""
    writer = BitWriter()
    masked = []
    for value, width in fields:
        value &= (1 << width) - 1
        masked.append((value, width))
        writer.write(value, width)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    for value, width in masked:
        assert reader.read(width) == value
    assert reader.bits_remaining == 0


@given(st.lists(st.integers(min_value=1, max_value=33), max_size=40))
def test_bit_length_accounting(widths):
    """bit_length equals the sum of written widths."""
    writer = BitWriter()
    for width in widths:
        writer.write(0, width)
    assert writer.bit_length == sum(widths)
    assert writer.byte_length == (sum(widths) + 7) // 8
