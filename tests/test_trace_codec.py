"""The word-level trace codec against its bit-serial reference.

``tests/reference_codec.py`` encodes and decodes one field, and one
bit, at a time.  The word-level codec in :mod:`repro.trace.encode`
must write the same bytes, decode its own output back, and agree with
the reference on arbitrary input: the same records, or both raise.
Decode builds records without re-running their constructors' checks,
so it must also accept exactly the field codes those checks accept.
Every record head is decoded at every bit alignment, whole and cut
short, against the reference and the documented refusal order.
Golden digests pin whole trace files of both on-disk formats.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from reference_codec import BitWriter, reference_decode, reference_encode
from test_engine_properties import structured_trace
from repro.bpred.unit import PAPER_PREDICTOR
from repro.isa.opcodes import BranchKind, FuClass
from repro.trace import (
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    decode_trace,
    encode_trace,
    write_trace_file,
)
from repro.trace.encode import CorruptRecordError, decode_rows, pack_record
from repro.trace.record import record_row
from repro.workloads import SyntheticWorkload, get_profile

#: SHA-256 of the golden trace files below, as the bit-serial codec
#: wrote them.
GOLDEN_SHA256 = {
    1: "4f4ee385af2764f5c73868d850a5da0c481458e5353557b4f0b448b2dd11ba2e",
    2: "6ce9d8fc08e7ed7c8701f10f2b5904685bea81888cb20183cf185c3dc4d70348",
}


def _up_to_max(high: int):
    """Values in ``[0, high]`` that hit both bounds often."""
    return st.one_of(st.sampled_from([0, high]), st.integers(0, high))


REGS = _up_to_max(63)
WORDS = _up_to_max(2**32 - 1)
BRANCH_KINDS = [kind for kind in BranchKind if kind is not BranchKind.NONE]
OTHER_FUS = [fu for fu in FuClass if fu not in (FuClass.LOAD, FuClass.STORE)]


@st.composite
def records(draw):
    """Any valid record: all three formats, both tag values, every FU
    class a format allows (an O record is never a load or a store) and
    every branch kind, and field values up to their maxima."""
    common = dict(tag=draw(st.booleans()), dest=draw(REGS),
                  src1=draw(REGS), src2=draw(REGS))
    fmt = draw(st.sampled_from("OMB"))
    if fmt == "O":
        return OtherRecord(fu=draw(st.sampled_from(OTHER_FUS)), **common)
    if fmt == "M":
        is_store = draw(st.booleans())
        return MemoryRecord(
            fu=FuClass.STORE if is_store else FuClass.LOAD,
            is_store=is_store, address=draw(WORDS),
            size_log2=draw(_up_to_max(3)), **common)
    return BranchRecord(fu=FuClass.BRANCH,
                        branch_kind=draw(st.sampled_from(BRANCH_KINDS)),
                        taken=draw(st.booleans()), target=draw(WORDS),
                        **common)


TRACES = st.lists(records(), max_size=40)


@st.composite
def payloads(draw):
    """``(data, bit_length)`` a decoder may meet: random bytes, or a
    valid trace with a few flipped bits, cut at any bit length."""
    if draw(st.booleans()):
        data = bytearray(draw(st.binary(max_size=64)))
    else:
        data = bytearray(encode_trace(draw(TRACES))[0])
        if data:
            flips = st.integers(0, 8 * len(data) - 1)
            for bit in draw(st.lists(flips, max_size=3)):
                data[bit >> 3] ^= 0x80 >> (bit & 7)
    return bytes(data), draw(st.integers(0, 8 * len(data)))


@given(TRACES)
def test_bytes_match_reference(trace):
    assert encode_trace(trace) == reference_encode(trace)


@given(TRACES)
def test_decode_inverts_encode(trace):
    assert decode_trace(*encode_trace(trace)) == trace


def _outcomes(data: bytes, bit_length: int) -> list:
    """What each decoder makes of ``data``: its records, or "raised"."""
    outcomes = []
    for decode in (decode_trace, reference_decode):
        try:
            outcomes.append(decode(data, bit_length))
        except (EOFError, KeyError, ValueError):
            outcomes.append("raised")
    return outcomes


@given(payloads())
def test_decoders_agree_on_arbitrary_bytes(payload):
    new, reference = _outcomes(*payload)
    assert new == reference


def test_decoders_agree_on_every_cut():
    """A payload cut at each bit offset, including one bit short of a
    record's end, is decoded or refused alike."""
    trace = [OtherRecord(dest=5),
             MemoryRecord(fu=FuClass.LOAD, address=2**32 - 1),
             BranchRecord(fu=FuClass.BRANCH, taken=True, target=7)]
    data, bits = encode_trace(trace)
    for cut in range(bits + 1):
        new, reference = _outcomes(data, cut)
        assert new == reference, cut


def _revalidated(record):
    """``record`` rebuilt through its class's validating constructor."""
    return type(record)(**{field.name: getattr(record, field.name)
                           for field in dataclasses.fields(record)})


@given(st.one_of(TRACES, structured_trace()))
def test_trusted_decode_equals_validated_decode(trace):
    """Decode skips the records' constructor checks; every record it
    builds from the reference codec's bytes passes them anyway and
    equals, with the same type, its validated rebuild."""
    decoded = decode_trace(*reference_encode(trace))
    assert decoded == trace
    for record in decoded:
        rebuilt = _revalidated(record)
        assert type(rebuilt) is type(record) and rebuilt == record


def _code(draw, valid, bits):
    """A field code: one of ``valid`` or one of the rest, evenly."""
    invalid = [code for code in range(1 << bits) if code not in valid]
    return draw(st.sampled_from(draw(st.sampled_from([valid, invalid]))))


@st.composite
def field_codes(draw):
    """Records as raw field codes — FU, store and branch kind codes in
    valid combinations or not — packed by the reference writer."""
    writer = BitWriter()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 2))
        store = draw(st.integers(0, 1))
        fu = _code(draw, ([0, 1, 2, 3, 4, 5, 6], [5], [3 + store])[kind], 3)
        writer.write(kind, 2)
        writer.write(draw(st.integers(0, 1)), 1)  # tag
        writer.write(fu, 3)
        for _ in range(3):
            writer.write(draw(REGS), 6)
        if kind == 2:
            writer.write(store, 1)
            writer.write(draw(st.integers(0, 3)), 2)  # size
        elif kind == 1:
            writer.write(_code(draw, [0, 1, 2, 3, 4], 3), 3)  # branch kind
            writer.write(draw(st.integers(0, 1)), 1)  # taken
        if kind:
            writer.write(draw(WORDS), 32)  # address or target
    return writer.getvalue(), writer.bit_length


@settings(max_examples=300)
@given(field_codes())
def test_trusted_decode_of_any_field_codes(payload):
    """Decode accepts exactly the field codes the validating
    constructors accept (the reference builds records through them),
    and its records survive a validated rebuild."""
    new, reference = _outcomes(*payload)
    assert new == reference
    if new != "raised":
        for record in new:
            rebuilt = _revalidated(record)
            assert type(rebuilt) is type(record) and rebuilt == record


#: Widths by kind code; a head with the unused kind code 3 is given
#: the widest record's bits.
_WIDTH_BY_KIND = (24, 60, 59, 60)
#: Tail fills: every field zero, every field all ones, and the two
#: alternating patterns (so store bits, branch-kind codes and flags
#: take both values).
_FILLS = (0, -1, 0x5555_5555_5555_5555, -0x5555_5555_5555_5556)


def _refusal(head, tail, width, bits):
    """The reason a decoder gives for a record of ``width`` bits with
    top 6 bits ``head`` and ``tail`` after them, when only ``bits`` of
    it are in the payload, or None: unused kind code, unused FU code,
    truncated record, then the FU class the format carries and the
    branch-kind code."""
    kind, fu = head >> 4, head & 7
    if kind == 3:
        return "kind code 3"
    if fu == 7:
        return f"FU code {fu}"
    if bits < width:
        return "truncated record"
    if kind == 0 and fu in (3, 4):
        return f"FU code {fu} in an other record"
    if kind == 2:
        store = tail >> 34 & 1
        if fu != 3 + store:
            return f"FU code {fu} in a {'store' if store else 'load'} record"
    if kind == 1:
        if fu != 5:
            return f"FU code {fu} in a branch record"
        if tail >> 33 & 7 > 4:
            return f"branch kind code {tail >> 33 & 7}"
    return None


def test_every_head_at_every_alignment():
    """Each 6-bit head, at bit offsets 0-7 behind a prefix of set bits,
    whole and cut one bit short, with each tail fill: the row decoder
    yields the reference decoder's records, or the refusal the order
    above names at the record's first bit — and the reference refuses
    exactly those records."""
    for head in range(64):
        width = _WIDTH_BY_KIND[head >> 4]
        for fill in _FILLS:
            tail = fill & ((1 << width - 6) - 1)
            record = head << width - 6 | tail
            for bits in (width, width - 1):
                writer = BitWriter()
                writer.write(record >> width - bits, bits)
                try:
                    expected = [record_row(r) for r in reference_decode(
                        writer.getvalue(), bits)]
                except (EOFError, KeyError, ValueError):
                    expected = None
                reason = _refusal(head, tail, width, bits) if bits >= 24 else None
                assert (expected is None) == (reason is not None), (
                    head, fill, bits)
                for offset in range(8):
                    prefix = (1 << offset) - 1  # bits the decoder skips
                    total = offset + bits
                    word = prefix << bits | record >> width - bits
                    data = (word << (-total & 7)).to_bytes(-(-total // 8), "big")
                    try:
                        rows, end = decode_rows(data, offset, total, total)
                    except CorruptRecordError as error:
                        assert error.args == (reason, offset), (
                            head, fill, bits, offset)
                    else:
                        assert reason is None, (head, fill, bits, offset)
                        assert rows == expected, (head, fill, bits, offset)
                        assert end == (offset + width if rows else offset)


def test_flags_pack_by_truthiness():
    """Tag, is_store and taken pack as 0/1 whatever truthy value they
    hold, as the reference's ``write_bool`` does."""
    for truthy, plain in [
        (OtherRecord(tag=2), OtherRecord(tag=True)),
        (MemoryRecord(fu=FuClass.STORE, is_store=5),
         MemoryRecord(fu=FuClass.STORE, is_store=True)),
        (BranchRecord(fu=FuClass.BRANCH, taken="yes"),
         BranchRecord(fu=FuClass.BRANCH, taken=True)),
    ]:
        assert pack_record(truthy) == pack_record(plain)
        assert encode_trace([truthy]) == reference_encode([truthy])


@pytest.mark.parametrize("version", [1, 2])
def test_golden_file_digest(tmp_path, version):
    records = SyntheticWorkload(get_profile("parser"),
                                seed=11).generate(2000).records
    path = tmp_path / "golden.rtrc"
    write_trace_file(path, records, predictor=PAPER_PREDICTOR,
                     benchmark="parser", seed=11, version=version,
                     segment_records=256)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[version]
