"""Corruption-handling tests for the trace file format.

Every malformed input a bulk-sweep deployment will eventually meet —
truncated payloads, bad magic, oversized metadata, lying record
counts, corrupt segment indexes, flipped Tag bits, field codes no
record uses — must surface as
:class:`TraceFileError` with a useful message, never as a bare
``OverflowError`` or silently wrong statistics.  Both on-disk formats
are covered: v1 (monolithic payload) files must stay readable forever,
and v2 (segmented) files add a segment index with its own consistency
checks.
"""

import json

import pytest

from repro.bpred.unit import PAPER_PREDICTOR
from repro.core.specialize import ENGINE_TIERS
from repro.isa.opcodes import FuClass
from repro.session import Simulation
from repro.trace import fileio
from repro.trace import BranchRecord, MemoryRecord, OtherRecord
from repro.trace.encode import FORMAT_BITS
from repro.trace.record import FU_NUMBERS
from repro.trace.fileio import (
    MAX_HEADER_LENGTH,
    MAGIC,
    TraceFileError,
    VERSION_V1,
    VERSION_V2,
    _SEGMENT_ENTRY_BYTES,
    _V1_PREFIX,
    _V2_PREFIX,
    iter_trace_blocks,
    iter_trace_records,
    read_segment_table,
    read_trace_file,
    read_trace_header,
    write_trace_file,
)
from repro.workloads import SyntheticWorkload, get_profile

#: Small enough that the 2000-budget fixture spans several segments.
SEGMENT_RECORDS = 256


@pytest.fixture(scope="module")
def records():
    return SyntheticWorkload(get_profile("parser"),
                             seed=11).generate(2000).records


@pytest.fixture(params=[VERSION_V1, VERSION_V2],
                ids=["v1", "v2"])
def trace_path(request, records, tmp_path):
    path = tmp_path / "trace.rtrc"
    write_trace_file(path, records, predictor=PAPER_PREDICTOR,
                     benchmark="parser", seed=11,
                     version=request.param,
                     segment_records=SEGMENT_RECORDS)
    return path


@pytest.fixture()
def v1_path(records, tmp_path):
    path = tmp_path / "trace-v1.rtrc"
    write_trace_file(path, records, predictor=PAPER_PREDICTOR,
                     benchmark="parser", seed=11, version=VERSION_V1)
    return path


@pytest.fixture()
def v2_path(records, tmp_path):
    path = tmp_path / "trace-v2.rtrc"
    write_trace_file(path, records, predictor=PAPER_PREDICTOR,
                     benchmark="parser", seed=11,
                     segment_records=SEGMENT_RECORDS)
    return path


def _record_offset(records, index: int) -> int:
    """Bit offset of ``records[index]`` from the start of the payload."""
    return sum(FORMAT_BITS[record.kind] for record in records[:index])


def _set_bits(data: bytearray, bit: int, width: int, value: int) -> None:
    """Overwrite ``width`` bits of ``data`` at MSB-first offset ``bit``."""
    for i in range(width):
        byte, shift = divmod(bit + i, 8)
        if value >> (width - 1 - i) & 1:
            data[byte] |= 0x80 >> shift
        else:
            data[byte] &= ~(0x80 >> shift) & 0xFF


def _metadata_offset(data: bytes) -> int:
    version = int.from_bytes(data[8:10], "little")
    return _V1_PREFIX if version == VERSION_V1 else _V2_PREFIX


class TestOversizedHeader:
    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    def test_oversized_metadata_raises_trace_file_error(
            self, records, tmp_path, version):
        path = tmp_path / "big.rtrc"
        huge = "x" * (MAX_HEADER_LENGTH + 1)
        with pytest.raises(TraceFileError, match="header"):
            write_trace_file(path, records[:4], benchmark=huge,
                             version=version)

    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    def test_nothing_written_on_oversized_metadata(self, records,
                                                   tmp_path, version):
        path = tmp_path / "big.rtrc"
        with pytest.raises(TraceFileError):
            write_trace_file(path, records[:4],
                             benchmark="y" * (MAX_HEADER_LENGTH + 1),
                             version=version)
        assert not path.exists()

    @pytest.mark.parametrize("version,prefix", [
        (VERSION_V1, _V1_PREFIX), (VERSION_V2, _V2_PREFIX)])
    def test_largest_legal_metadata_roundtrips(self, records, tmp_path,
                                               version, prefix):
        path = tmp_path / "edge.rtrc"
        # Fill the blob to exactly the u16 limit: account for the JSON
        # scaffolding around the benchmark string.
        scaffold = len(json.dumps(
            {"predictor": None, "benchmark": "", "seed": None},
            sort_keys=True).encode())
        benchmark = "b" * (MAX_HEADER_LENGTH - prefix - scaffold)
        write_trace_file(path, records[:4], benchmark=benchmark,
                         version=version)
        header, decoded = read_trace_file(path)
        assert header.metadata["benchmark"] == benchmark
        assert decoded == records[:4]

    @pytest.mark.parametrize("version", [VERSION_V1, VERSION_V2])
    def test_one_byte_over_the_limit_rejected(self, records, tmp_path,
                                              version):
        prefix = _V1_PREFIX if version == VERSION_V1 else _V2_PREFIX
        scaffold = len(json.dumps(
            {"predictor": None, "benchmark": "", "seed": None},
            sort_keys=True).encode())
        with pytest.raises(TraceFileError, match="header"):
            write_trace_file(
                tmp_path / "over.rtrc", records[:4],
                benchmark="b" * (MAX_HEADER_LENGTH - prefix
                                 - scaffold + 1),
                version=version)


class TestCorruptHeaders:
    def test_bad_magic(self, trace_path):
        data = bytearray(trace_path.read_bytes())
        data[:8] = b"NOTMAGIC"
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="magic"):
            read_trace_file(trace_path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.rtrc"
        path.write_bytes(b"RESIMTRC\x01\x00")
        with pytest.raises(TraceFileError, match="magic"):
            read_trace_file(path)

    def test_unsupported_version(self, trace_path):
        data = bytearray(trace_path.read_bytes())
        data[8:10] = (99).to_bytes(2, "little")
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="version"):
            read_trace_header(trace_path)

    def test_header_length_beyond_file(self, trace_path):
        data = bytearray(trace_path.read_bytes())
        data[10:12] = (0xFFFF).to_bytes(2, "little")
        trace_path.write_bytes(bytes(data[:200]))
        with pytest.raises(TraceFileError, match="header length"):
            read_trace_header(trace_path)

    def test_header_length_below_prefix(self, trace_path):
        data = bytearray(trace_path.read_bytes())
        data[10:12] = (12).to_bytes(2, "little")
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="header length"):
            read_trace_header(trace_path)

    def test_corrupt_metadata_json(self, trace_path):
        data = bytearray(trace_path.read_bytes())
        data[_metadata_offset(data) + 1] = 0xFF  # stomp the JSON blob
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="metadata"):
            read_trace_header(trace_path)

    @pytest.mark.parametrize("version,prefix", [
        (VERSION_V1, _V1_PREFIX), (VERSION_V2, _V2_PREFIX)])
    def test_non_object_metadata_rejected(self, tmp_path, version,
                                          prefix):
        """Valid JSON that is not an object must not crash the
        `header.metadata.get(...)` consumers downstream."""
        blob = b"[1, 2, 3]"
        data = bytearray(prefix)
        data[:8] = MAGIC
        data[8:10] = version.to_bytes(2, "little")
        data[10:12] = (prefix + len(blob)).to_bytes(2, "little")
        if version == VERSION_V2:
            data[36:44] = (prefix + len(blob)).to_bytes(8, "little")
        path = tmp_path / "nonobject.rtrc"
        path.write_bytes(bytes(data) + blob)
        with pytest.raises(TraceFileError, match="JSON object"):
            read_trace_header(path)


class TestPayloadConsistency:
    def test_truncated_payload(self, trace_path):
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[: len(data) - len(data) // 4])
        with pytest.raises(TraceFileError,
                           match="truncated|segment index"):
            read_trace_file(trace_path)

    def test_truncated_payload_streaming(self, trace_path):
        data = trace_path.read_bytes()
        trace_path.write_bytes(data[: len(data) - len(data) // 4])
        with pytest.raises(TraceFileError,
                           match="truncated|segment index"):
            list(iter_trace_records(trace_path))

    def test_bit_length_ending_mid_record(self, v1_path, records):
        """A v1 header whose bit length ends partway through a record
        is a truncated payload to both readers, never an EOFError."""
        index = max(i for i, record in enumerate(records)
                    if FORMAT_BITS[record.kind] > 40)
        data = bytearray(v1_path.read_bytes())
        data[20:28] = (_record_offset(records, index) + 40).to_bytes(
            8, "little")
        v1_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="truncated"):
            read_trace_file(v1_path)
        with pytest.raises(TraceFileError, match="truncated"):
            list(iter_trace_records(v1_path))

    @pytest.mark.parametrize("chunk_bytes", [8, 13, 100])
    def test_v1_stream_across_chunk_boundaries(self, v1_path, records,
                                               monkeypatch, chunk_bytes):
        """Records straddling v1 read chunks decode whole, and a bad
        code past the first chunk is reported at its payload offset."""
        monkeypatch.setattr(fileio, "_V1_CHUNK_BYTES", chunk_bytes)
        assert list(iter_trace_records(v1_path)) == records
        data = bytearray(v1_path.read_bytes())
        start = _record_offset(records, 1500)
        payload = 8 * int.from_bytes(data[10:12], "little")
        _set_bits(data, payload + start + 3, 3, 7)  # FU code 7
        v1_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError,
                           match=f"segment 0: FU code 7 at bit {start}$"):
            list(iter_trace_records(v1_path))

    def test_wrong_record_count(self, v1_path):
        data = bytearray(v1_path.read_bytes())
        count = int.from_bytes(data[12:20], "little")
        data[12:20] = (count + 5).to_bytes(8, "little")
        v1_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="records"):
            read_trace_file(v1_path)

    def test_committed_count_mismatch_detected(self, trace_path):
        """The offset-28 consistency field guards the Tag bits."""
        data = bytearray(trace_path.read_bytes())
        committed = int.from_bytes(data[28:32], "little")
        data[28:32] = ((committed + 1) & 0xFFFF_FFFF).to_bytes(
            4, "little")
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="committed"):
            read_trace_file(trace_path)

    def test_committed_count_checked_at_stream_exhaustion(
            self, trace_path):
        data = bytearray(trace_path.read_bytes())
        committed = int.from_bytes(data[28:32], "little")
        data[28:32] = ((committed + 1) & 0xFFFF_FFFF).to_bytes(
            4, "little")
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="committed"):
            list(iter_trace_records(trace_path))

    def test_read_trace_header_bounded_read(self, trace_path,
                                            monkeypatch):
        """Header inspection must not load the payload: reads are
        capped at the 64 KB the u16 header-length field can address."""
        import builtins
        real_open = builtins.open
        sizes = []

        class Handle:
            def __init__(self, inner):
                self._inner = inner
            def read(self, n=-1):
                sizes.append(n)
                return self._inner.read(n)
            def __enter__(self):
                return self
            def __exit__(self, *exc):
                self._inner.close()

        def spy(path, mode="r", *a, **k):
            inner = real_open(path, mode, *a, **k)
            return Handle(inner) if "b" in mode else inner

        monkeypatch.setattr(builtins, "open", spy)
        header = read_trace_header(trace_path)
        assert header.record_count > 0
        assert sizes == [MAX_HEADER_LENGTH]

    def test_committed_count_parsed_into_header(self, trace_path,
                                                records):
        header = read_trace_header(trace_path)
        committed = sum(1 for record in records if not record.tag)
        assert header.committed_low32 == committed & 0xFFFF_FFFF

    def test_clean_roundtrip_still_passes(self, trace_path, records):
        header, decoded = read_trace_file(trace_path)
        assert decoded == records
        assert header.metadata["benchmark"] == "parser"


class TestCorruptFieldCodes:
    """A kind, FU or branch-kind code that names nothing, or an FU code
    the record's format cannot carry, is a :class:`TraceFileError`
    naming the segment and the record's bit offset, not a bare
    ``KeyError`` or ``ValueError``."""

    @pytest.mark.parametrize("record,offset,width,code,reason", [
        (None, 0, 2, 3, "kind code 3"),
        (None, 3, 3, 7, "FU code 7"),
        (BranchRecord, 24, 3, 7, "branch kind code 7"),
        (MemoryRecord, 3, 3, 0, "FU code 0 in a load record"),
        (BranchRecord, 3, 3, 0, "FU code 0 in a branch record"),
    ], ids=["kind", "fu", "branch-kind", "load-fu", "branch-fu"])
    def test_bad_code(self, trace_path, records, record, offset, width,
                      code, reason):
        index = 0
        if record is MemoryRecord:
            index = next(i for i, r in enumerate(records)
                         if isinstance(r, MemoryRecord) and not r.is_store)
        elif record is not None:
            index = next(i for i, r in enumerate(records)
                         if isinstance(r, record))
        assert index < SEGMENT_RECORDS  # the record lies in segment 0
        data = bytearray(trace_path.read_bytes())
        start = _record_offset(records, index)
        payload = 8 * int.from_bytes(data[10:12], "little")
        _set_bits(data, payload + start + offset, width, code)
        trace_path.write_bytes(bytes(data))
        message = f"segment 0: {reason} at bit {start}"
        with pytest.raises(TraceFileError, match=message):
            read_trace_file(trace_path)
        with pytest.raises(TraceFileError, match=message):
            list(iter_trace_records(trace_path))


class TestOtherRecordMemoryFu:
    """An O record whose FU class is LOAD or STORE has no address, so
    no valid trace holds one: the record class refuses it, and a
    flipped FU field that makes one fails both readers and both engine
    tiers with one message (the tiers used to crash in different
    ways)."""

    @pytest.mark.parametrize("fu", [FuClass.LOAD, FuClass.STORE])
    def test_record_class_refuses_it(self, fu):
        with pytest.raises(ValueError, match="is a memory class"):
            OtherRecord(fu=fu, dest=1)

    @pytest.mark.parametrize("fu", [FuClass.LOAD, FuClass.STORE])
    def test_decoded_one_fails_every_reader_and_tier(self, trace_path,
                                                     records, fu):
        index = next(i for i, r in enumerate(records)
                     if isinstance(r, OtherRecord))
        assert index < SEGMENT_RECORDS  # the record lies in segment 0
        data = bytearray(trace_path.read_bytes())
        start = _record_offset(records, index)
        payload = 8 * int.from_bytes(data[10:12], "little")
        code = FU_NUMBERS[fu]
        _set_bits(data, payload + start + 3, 3, code)
        trace_path.write_bytes(bytes(data))
        message = (f"^segment 0: FU code {code} in an other record at "
                   f"bit {start}$")
        with pytest.raises(TraceFileError, match=message):
            read_trace_file(trace_path)
        with pytest.raises(TraceFileError, match=message):
            list(iter_trace_records(trace_path))
        with pytest.raises(TraceFileError, match=message):
            list(iter_trace_blocks(trace_path))
        for tier in ENGINE_TIERS:
            with pytest.raises(TraceFileError, match=message):
                Simulation.for_trace_file(trace_path).with_engine(
                    tier).run()


class TestSegmentedFormat:
    """v2-specific consistency: the segment index must agree with the
    header, the payload, and the file size."""

    def test_v1_v2_roundtrip_equivalence(self, records, v1_path,
                                         v2_path):
        """The two formats are different containers for the same
        stream: decoded records, header counts and streamed decode
        must all agree exactly."""
        h1, r1 = read_trace_file(v1_path)
        h2, r2 = read_trace_file(v2_path)
        assert r1 == r2 == records
        assert h1.record_count == h2.record_count
        assert h1.bit_length == h2.bit_length
        assert h1.committed_low32 == h2.committed_low32
        assert h1.bits_per_instruction == h2.bits_per_instruction
        assert list(iter_trace_records(v1_path)) == records
        assert list(iter_trace_records(v2_path)) == records

    def test_segment_table_shape(self, v2_path, records):
        header = read_trace_header(v2_path)
        table = read_segment_table(v2_path)
        assert header.segment_count == len(table) > 1
        assert header.segment_records == SEGMENT_RECORDS
        assert all(s.record_count == SEGMENT_RECORDS
                   for s in table[:-1])
        assert sum(s.record_count for s in table) == len(records)
        assert sum(s.bit_length for s in table) == header.bit_length

    def test_v1_pseudo_segment(self, v1_path):
        header = read_trace_header(v1_path)
        (segment,) = read_segment_table(v1_path)
        assert segment.record_count == header.record_count
        assert segment.bit_length == header.bit_length

    def test_truncated_segment(self, v2_path):
        """Cutting the file mid-payload loses the trailing segments
        and the table — a streamed read must fail loudly, not yield a
        silently shorter trace."""
        header = read_trace_header(v2_path)
        data = v2_path.read_bytes()
        # Keep the header plus roughly half the payload.
        cut = (header.segment_table_offset
               - (header.segment_table_offset - _V2_PREFIX) // 2)
        v2_path.write_bytes(data[:cut])
        with pytest.raises(TraceFileError, match="truncated"):
            list(iter_trace_records(v2_path))
        with pytest.raises(TraceFileError, match="truncated"):
            read_trace_file(v2_path)

    def test_corrupt_segment_index_record_count(self, v2_path):
        """A table entry lying about its record count must be caught
        against the header totals."""
        header = read_trace_header(v2_path)
        data = bytearray(v2_path.read_bytes())
        offset = header.segment_table_offset  # entry 0: record count
        count = int.from_bytes(data[offset:offset + 4], "little")
        data[offset:offset + 4] = (count + 3).to_bytes(4, "little")
        v2_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="segment index"):
            read_trace_file(v2_path)

    def test_corrupt_segment_index_bit_length(self, v2_path):
        header = read_trace_header(v2_path)
        data = bytearray(v2_path.read_bytes())
        offset = header.segment_table_offset + 4  # entry 0: bit length
        bits = int.from_bytes(data[offset:offset + 8], "little")
        data[offset:offset + 8] = (bits + 8).to_bytes(8, "little")
        v2_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="segment index"):
            read_segment_table(v2_path)

    def test_segment_count_record_count_mismatch(self, v2_path):
        """Consistent-looking lies (header and table patched together)
        still fail when the decoded segment disagrees."""
        header = read_trace_header(v2_path)
        data = bytearray(v2_path.read_bytes())
        data[12:20] = (header.record_count + 1).to_bytes(8, "little")
        offset = header.segment_table_offset
        count = int.from_bytes(data[offset:offset + 4], "little")
        data[offset:offset + 4] = (count + 1).to_bytes(4, "little")
        v2_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError,
                           match="segment 0 holds"):
            list(iter_trace_records(v2_path))

    def test_header_segment_count_mismatch(self, v2_path):
        """The header's segment count must match the table size."""
        data = bytearray(v2_path.read_bytes())
        count = int.from_bytes(data[32:36], "little")
        data[32:36] = (count + 1).to_bytes(4, "little")
        v2_path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="segment index"):
            read_segment_table(v2_path)

    def test_trailing_junk_rejected(self, v2_path):
        v2_path.write_bytes(v2_path.read_bytes() + b"\x00junk")
        with pytest.raises(TraceFileError, match="segment index"):
            read_segment_table(v2_path)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.rtrc"
        write_trace_file(path, [])
        header, decoded = read_trace_file(path)
        assert decoded == [] and header.segment_count == 0
        assert list(iter_trace_records(path)) == []
        assert read_segment_table(path) == ()


class TestExtraMetadata:
    def test_extra_keys_roundtrip(self, records, tmp_path):
        path = tmp_path / "extra.rtrc"
        write_trace_file(path, records[:16], benchmark="parser",
                         extra={"start_pc": 0x40_0000,
                                "bits_per_instruction": 42.5})
        header = read_trace_header(path)
        assert header.metadata["start_pc"] == 0x40_0000
        assert header.metadata["bits_per_instruction"] == 42.5
        assert header.metadata["benchmark"] == "parser"

    def test_reserved_keys_not_overridable(self, records, tmp_path):
        path = tmp_path / "extra.rtrc"
        write_trace_file(path, records[:16], benchmark="parser",
                         extra={"benchmark": "forged"})
        assert read_trace_header(path).metadata["benchmark"] == "parser"

    def test_kernel_entry_pc_survives_cli_roundtrip(self, tmp_path,
                                                    capsys):
        """`resim trace <kernel>` persists start_pc and
        `resim simulate --trace-file` honors it: stored-trace stats
        must equal on-the-fly stats for the same kernel."""
        from repro.cli import main
        path = tmp_path / "kernel.rtrc"
        assert main(["trace", "matmul", str(path)]) == 0
        capsys.readouterr()
        assert read_trace_header(path).metadata["start_pc"] is not None
        assert main(["simulate", "--trace-file", str(path)]) == 0
        stored = capsys.readouterr().out
        assert main(["simulate", "matmul"]) == 0
        direct = capsys.readouterr().out
        assert stored.splitlines()[:8] == direct.splitlines()[:8]
