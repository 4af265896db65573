"""Tests for trace records, the bit-packed codec, statistics, and
wrong-path helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import BranchKind, FuClass
from repro.trace import (
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    RecordKind,
    TraceEncoder,
    conservative_block_size,
    decode_trace,
    encode_trace,
    measure_trace,
    record_bit_length,
)
from repro.trace.encode import FORMAT_BITS
from repro.trace.record import TRACE_REG_HI, TRACE_REG_LO
from repro.trace.wrongpath import count_blocks, validate_block


class TestRecordValidation:
    def test_register_range_checked(self):
        with pytest.raises(ValueError):
            OtherRecord(dest=64)

    def test_memory_fu_consistency(self):
        with pytest.raises(ValueError):
            MemoryRecord(fu=FuClass.LOAD, is_store=True)
        with pytest.raises(ValueError):
            MemoryRecord(fu=FuClass.ALU)

    def test_memory_address_32bit(self):
        with pytest.raises(ValueError):
            MemoryRecord(fu=FuClass.LOAD, address=1 << 32)

    def test_branch_fu_enforced(self):
        with pytest.raises(ValueError):
            BranchRecord(fu=FuClass.ALU)

    def test_branch_kind_required(self):
        with pytest.raises(ValueError):
            BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.NONE)

    def test_muldiv_implicit_hilo_destinations(self):
        record = OtherRecord(fu=FuClass.MUL, src1=3, src2=4)
        assert set(record.dest_registers()) == {TRACE_REG_HI, TRACE_REG_LO}

    def test_src_registers_skip_none(self):
        record = OtherRecord(src1=0, src2=7)
        assert record.src_registers() == (7,)

    def test_kind_properties(self):
        assert OtherRecord().kind is RecordKind.OTHER
        assert MemoryRecord(fu=FuClass.LOAD).kind is RecordKind.MEMORY
        assert BranchRecord(fu=FuClass.BRANCH).kind is RecordKind.BRANCH

    def test_unconditional_classification(self):
        cond = BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.COND)
        ret = BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.RETURN)
        assert not cond.is_unconditional
        assert ret.is_unconditional


class TestFormatWidths:
    """The paper reports 41-47 bits/instruction; our formats must be
    stable, documented widths in that neighbourhood."""

    def test_format_bits(self):
        assert FORMAT_BITS[RecordKind.OTHER] == 24
        assert FORMAT_BITS[RecordKind.MEMORY] == 59
        assert FORMAT_BITS[RecordKind.BRANCH] == 60

    def test_record_bit_length(self):
        assert record_bit_length(OtherRecord()) == 24
        assert record_bit_length(MemoryRecord(fu=FuClass.LOAD)) == 59
        assert record_bit_length(BranchRecord(fu=FuClass.BRANCH)) == 60


def _sample_records():
    return [
        OtherRecord(dest=5, src1=3, src2=4),
        OtherRecord(fu=FuClass.MUL, src1=1, src2=2),
        MemoryRecord(fu=FuClass.LOAD, dest=8, src1=9,
                     address=0x1000_0040, size_log2=2),
        MemoryRecord(fu=FuClass.STORE, is_store=True, src1=9, src2=8,
                     address=0xFFFF_FFFC, size_log2=0, tag=True),
        BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.COND,
                     src1=8, taken=True, target=0x0040_0100),
        BranchRecord(fu=FuClass.BRANCH, branch_kind=BranchKind.RETURN,
                     taken=True, target=0x0040_0008, tag=True),
    ]


class TestCodec:
    def test_roundtrip(self):
        records = _sample_records()
        buffer, bits = encode_trace(records)
        assert decode_trace(buffer, bits) == records

    def test_bit_length_is_sum_of_records(self):
        records = _sample_records()
        __, bits = encode_trace(records)
        assert bits == sum(record_bit_length(r) for r in records)

    def test_decode_without_bit_length(self):
        """Byte padding of < 8 bits must not invent extra records."""
        records = _sample_records()
        buffer, __ = encode_trace(records)
        assert decode_trace(buffer) == records

    def test_incremental_encoder_matches_batch(self):
        records = _sample_records()
        encoder = TraceEncoder()
        for record in records:
            encoder.append(record)
        batch_buffer, batch_bits = encode_trace(records)
        assert encoder.getvalue() == batch_buffer
        assert encoder.bit_length == batch_bits
        assert encoder.record_count == len(records)

    def test_empty_trace(self):
        buffer, bits = encode_trace([])
        assert bits == 0
        assert decode_trace(buffer, bits) == []


@st.composite
def record_strategy(draw):
    kind = draw(st.sampled_from(["other", "mem", "branch"]))
    tag = draw(st.booleans())
    regs = st.integers(min_value=0, max_value=63)
    if kind == "other":
        fu = draw(st.sampled_from([FuClass.ALU, FuClass.MUL, FuClass.DIV,
                                   FuClass.NOP]))
        return OtherRecord(tag=tag, fu=fu, dest=draw(regs),
                           src1=draw(regs), src2=draw(regs))
    if kind == "mem":
        is_store = draw(st.booleans())
        return MemoryRecord(
            tag=tag, fu=FuClass.STORE if is_store else FuClass.LOAD,
            is_store=is_store, dest=draw(regs), src1=draw(regs),
            src2=draw(regs),
            address=draw(st.integers(min_value=0, max_value=2**32 - 1)),
            size_log2=draw(st.integers(min_value=0, max_value=3)),
        )
    return BranchRecord(
        tag=tag, fu=FuClass.BRANCH,
        branch_kind=draw(st.sampled_from([
            BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
            BranchKind.RETURN, BranchKind.INDIRECT,
        ])),
        dest=draw(regs), src1=draw(regs), src2=draw(regs),
        taken=draw(st.booleans()),
        target=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


@given(st.lists(record_strategy(), max_size=50))
def test_codec_roundtrip_property(records):
    """Every record stream survives encode→decode bit-exactly."""
    buffer, bits = encode_trace(records)
    assert decode_trace(buffer, bits) == records


class TestStatistics:
    def test_mix_and_bits(self):
        stats = measure_trace(_sample_records())
        assert stats.total_records == 6
        assert stats.kind_counts[RecordKind.MEMORY] == 2
        assert stats.kind_counts[RecordKind.BRANCH] == 2
        assert stats.store_count == 1
        assert stats.taken_branches == 2
        assert stats.wrong_path_records == 2
        expected_bits = (2 * 24 + 2 * 59 + 2 * 60) / 6
        assert stats.bits_per_instruction == pytest.approx(expected_bits)

    def test_bandwidth_identity(self):
        """MB/s = MIPS x bits / 8 — the Table 3 internal identity."""
        stats = measure_trace(_sample_records())
        mips = 25.0
        assert stats.bandwidth_mbytes_per_sec(mips) == pytest.approx(
            mips * stats.bits_per_instruction / 8.0
        )

    def test_empty_stats(self):
        stats = measure_trace([])
        assert stats.bits_per_instruction == 0.0
        assert stats.wrong_path_fraction == 0.0

    def test_summary_renders(self):
        text = measure_trace(_sample_records()).summary()
        assert "bits per instruction" in text


class TestWrongPath:
    def test_conservative_bound_formula(self):
        assert conservative_block_size(16, 4) == 20  # the paper's bound

    def test_bound_requires_positive_sizes(self):
        with pytest.raises(ValueError):
            conservative_block_size(0, 4)

    def test_validate_block_accepts_tagged(self):
        block = [OtherRecord(tag=True)] * 5
        validate_block(block, max_size=5)

    def test_validate_block_rejects_untagged(self):
        block = [OtherRecord(tag=True), OtherRecord(tag=False)]
        with pytest.raises(ValueError, match="untagged"):
            validate_block(block, max_size=10)

    def test_validate_block_rejects_oversize(self):
        block = [OtherRecord(tag=True)] * 3
        with pytest.raises(ValueError, match="exceeds"):
            validate_block(block, max_size=2)

    def test_count_blocks(self):
        records = [
            OtherRecord(), OtherRecord(tag=True), OtherRecord(tag=True),
            OtherRecord(), OtherRecord(tag=True), OtherRecord(),
        ]
        assert count_blocks(records) == 2
