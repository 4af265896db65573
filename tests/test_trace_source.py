"""Tests for the streaming trace pipeline.

The contract under test: every ingestion path — in-memory list,
streamed v1 file, streamed v2 file, sharded segment ranges replayed
back to back — delivers the identical record stream, and
the engine produces **bit-identical statistics** over all of them.
"""

import io
import os

import pytest

from repro.core import (
    PAPER_4WIDE_PERFECT,
    ProgressObserver,
    ReSimEngine,
)
from repro.exec import WorkUnit, execute_unit, plan_regions, slice_units
from repro.serialize import stats_to_dict
from repro.session import SessionError, Simulation
from repro.trace import ensure_profile, fileio
from repro.trace.fileio import (
    TraceFileError,
    read_segment_table,
    read_trace_file,
    write_trace_file,
)
from repro.trace.record import OtherRecord
from repro.trace.source import (
    FileSource,
    InMemorySource,
    TraceSourceError,
    as_source,
)
from repro.workloads import SyntheticWorkload, get_profile
from repro.workloads.tracegen import write_workload_trace

SEGMENT_RECORDS = 512


@pytest.fixture(scope="module")
def generation():
    return SyntheticWorkload(get_profile("gzip"),
                             seed=7).generate(6000)


@pytest.fixture(scope="module")
def records(generation):
    return generation.records


@pytest.fixture(scope="module")
def v1_path(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "v1.rtrc"
    write_trace_file(path, records, benchmark="gzip", seed=7,
                     version=1)
    return path


@pytest.fixture(scope="module")
def v2_path(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "v2.rtrc"
    write_trace_file(path, records, benchmark="gzip", seed=7,
                     segment_records=SEGMENT_RECORDS)
    return path


class TestInMemorySource:
    def test_cursor_semantics(self, records):
        source = InMemorySource(records)
        assert source.total_records == len(records)
        assert source.consumed == 0
        assert source.peek() is records[0]
        assert source.peek() is records[0]  # peek does not consume
        assert source.next() is records[0]
        assert source.consumed == 1
        assert source.peek() is records[1]

    def test_exhaustion(self):
        source = InMemorySource([OtherRecord()])
        source.next()
        assert source.exhausted and source.peek() is None
        with pytest.raises(TraceSourceError):
            source.next()

    def test_peek_is_tagged(self):
        tagged = OtherRecord(tag=True)
        source = InMemorySource([OtherRecord(), tagged])
        assert not source.peek_is_tagged()
        source.next()
        assert source.peek_is_tagged()
        source.next()
        assert not source.peek_is_tagged()  # exhausted → False

    def test_growing_list_becomes_visible(self):
        stream = []
        source = InMemorySource(stream)
        assert source.exhausted
        record = OtherRecord()
        stream.append(record)
        assert not source.exhausted
        assert source.next() is record
        assert source.total_records == 1

    def test_fresh_rewinds(self, records):
        source = InMemorySource(records)
        for _ in range(5):
            source.next()
        rewound = source.fresh()
        assert rewound.consumed == 0
        assert rewound.peek() is records[0]
        assert source.consumed == 5  # original untouched

    def test_as_source_passthrough(self, records):
        source = InMemorySource(records)
        assert as_source(source) is source
        wrapped = as_source(records)
        assert isinstance(wrapped, InMemorySource)


class TestFileSource:
    @pytest.mark.parametrize("which", ["v1", "v2"])
    def test_streams_identical_records(self, which, records, v1_path,
                                       v2_path, request):
        path = v1_path if which == "v1" else v2_path
        source = FileSource(path)
        assert source.total_records == len(records)
        streamed = list(source)
        assert streamed == records
        assert source.consumed == len(records)
        assert source.exhausted

    def test_header_exposed(self, v2_path):
        source = FileSource(v2_path)
        assert source.header.metadata["benchmark"] == "gzip"
        assert source.header.segment_count > 1

    def test_fresh_gives_independent_cursor(self, v2_path, records):
        source = FileSource(v2_path)
        for _ in range(10):
            source.next()
        other = source.fresh()
        assert other.consumed == 0
        assert other.next() == records[0]
        assert source.consumed == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            FileSource(tmp_path / "nope.rtrc")

    def test_segment_range(self, v2_path, records):
        table = read_segment_table(v2_path)
        mid = len(table) // 2
        first = FileSource(v2_path, segments=(0, mid))
        rest = FileSource(v2_path, segments=(mid, len(table)))
        split = sum(s.record_count for s in table[:mid])
        assert first.total_records == split
        assert list(first) == records[:split]
        assert list(rest) == records[split:]

    def test_segment_range_bounds_checked(self, v2_path):
        table = read_segment_table(v2_path)
        with pytest.raises(TraceSourceError, match="segment range"):
            FileSource(v2_path, segments=(0, len(table) + 1))

    def test_v1_whole_file_pseudo_segment(self, v1_path, records):
        """A v1 payload is one pseudo-segment: the full range streams
        the whole file, any other range is refused (empty ones as
        empty, like every v2 range)."""
        assert list(FileSource(v1_path, segments=(0, 1))) == records
        with pytest.raises(TraceSourceError, match="empty"):
            FileSource(v1_path, segments=(0, 0))

    def test_empty_ranges_rejected(self, v2_path):
        # Regression: lo == hi used to stream zero records while
        # looking like a successful run to every consumer downstream.
        table = read_segment_table(v2_path)
        for lo in (0, 1, len(table) - 1):
            with pytest.raises(TraceSourceError, match="empty"):
                FileSource(v2_path, segments=(lo, lo))


class TestParseOnce:
    """A stored trace's header and segment table are parsed once per
    unit: when its :class:`FileSource` opens.  Fresh cursors share the
    parse and the block reader trusts it, and every check still
    runs."""

    @pytest.fixture
    def table_reads(self, monkeypatch):
        reads = []
        original = fileio._read_segment_table

        def counting(*args):
            reads.append(args)
            return original(*args)

        monkeypatch.setattr(fileio, "_read_segment_table", counting)
        return reads

    def test_region_slice_unit_reads_the_table_once(self, v2_path,
                                                    tmp_path,
                                                    table_reads):
        plan = plan_regions(v2_path, ensure_profile(v2_path), regions=3)
        base = WorkUnit.for_trace("point", v2_path, "4wide-perfect",
                                  tmp_path / "point.json")
        unit = slice_units(base, plan)[-1]
        assert unit.spec["warmup_instructions"] > 0
        table_reads.clear()
        assert "stats" in execute_unit(unit)
        assert len(table_reads) == 1

    def test_whole_file_run_reads_the_table_once(self, v2_path,
                                                 table_reads):
        Simulation.for_trace_file(v2_path, PAPER_4WIDE_PERFECT).run()
        assert len(table_reads) == 1

    @pytest.mark.parametrize("which", ["v1", "v2"])
    @pytest.mark.parametrize("change", ["truncated", "replaced"])
    def test_changed_after_open_still_raises(self, which, change,
                                             v1_path, v2_path, tmp_path):
        """A file truncated, or replaced at its path by another of the
        same size (an atomic rename), after its FileSource opened is
        refused rather than read through the old segment table."""
        path = tmp_path / "trace.rtrc"
        data = (v1_path if which == "v1" else v2_path).read_bytes()
        path.write_bytes(data)
        source = FileSource(path)
        if change == "truncated":
            with open(path, "r+b") as handle:
                handle.truncate(len(data) // 2)
            message = "bytes, was"
        else:
            replacement = tmp_path / "replacement.rtrc"
            replacement.write_bytes(data[:-1] + bytes([data[-1] ^ 0xFF]))
            os.replace(replacement, path)
            message = "replaced or rewritten"
        with pytest.raises(TraceFileError, match=message):
            list(source)
        with pytest.raises(TraceFileError, match=message):
            source.fresh().rows()


class TestBlockProtocol:
    """The block view the generated engine reads: whole decoded blocks,
    a position moved by ``seek``, the same cursor as ``peek``/``next``."""

    def test_file_blocks_are_its_segments(self, v2_path, records):
        source = FileSource(v2_path)
        table = read_segment_table(v2_path)
        streamed, sizes = [], []
        block, index = source.block()
        while index < len(block):
            streamed.extend(block[index:])
            sizes.append(len(block))
            source.seek(len(block))
            assert source.consumed == len(streamed)
            block, index = source.block()
        assert streamed == records
        assert sizes == [segment.record_count for segment in table]

    def test_record_and_block_views_share_one_cursor(self, v2_path,
                                                     records):
        source = FileSource(v2_path)
        for _ in range(SEGMENT_RECORDS + 3):
            source.next()
        block, index = source.block()
        assert (block[index], index) == (records[SEGMENT_RECORDS + 3], 3)
        source.seek(index + 2)
        assert source.next() is block[index + 2]
        assert source.consumed == SEGMENT_RECORDS + 6

    @pytest.mark.parametrize("target", [-1, 2, SEGMENT_RECORDS + 1])
    def test_seek_is_forward_within_the_block(self, v2_path, target):
        source = FileSource(v2_path)
        for _ in range(3):
            source.next()
        with pytest.raises(TraceSourceError, match="cannot seek"):
            source.seek(target)
        assert source.consumed == 3

    def test_in_memory_block_is_the_live_sequence(self):
        stream = [OtherRecord()]
        source = InMemorySource(stream)
        block, index = source.block()
        assert block is stream and index == 0
        source.seek(1)
        assert source.block() == (stream, 1)
        stream.append(OtherRecord(dest=3))
        assert source.next() is stream[1]


class TestEngineEquivalence:
    """The acceptance criterion: streamed ingestion is bit-identical
    to the in-memory path."""

    @pytest.fixture(scope="class")
    def reference(self, records):
        result = ReSimEngine(PAPER_4WIDE_PERFECT, records).run()
        return stats_to_dict(result.stats)

    def test_v1_file_source(self, v1_path, reference):
        result = ReSimEngine(PAPER_4WIDE_PERFECT,
                             FileSource(v1_path)).run()
        assert stats_to_dict(result.stats) == reference

    def test_v2_file_source(self, v2_path, reference):
        result = ReSimEngine(PAPER_4WIDE_PERFECT,
                             FileSource(v2_path)).run()
        assert stats_to_dict(result.stats) == reference

    def test_sharded_concat(self, v2_path, reference):
        table = read_segment_table(v2_path)
        mid = len(table) // 2
        source = InMemorySource([
            *FileSource(v2_path, segments=(0, mid)),
            *FileSource(v2_path, segments=(mid, len(table)))])
        result = ReSimEngine(PAPER_4WIDE_PERFECT, source).run()
        assert stats_to_dict(result.stats) == reference

    def test_session_streaming_vs_in_memory(self, v1_path, v2_path,
                                            reference):
        streamed = Simulation.for_trace_file(
            v2_path, PAPER_4WIDE_PERFECT).run()
        streamed_v1 = Simulation.for_trace_file(
            v1_path, PAPER_4WIDE_PERFECT).run()
        _, decoded = read_trace_file(v2_path)
        materialized = Simulation.for_records(
            decoded, PAPER_4WIDE_PERFECT).run()
        assert stats_to_dict(streamed.stats) == reference
        assert stats_to_dict(streamed_v1.stats) == reference
        assert stats_to_dict(materialized.stats) == reference

    def test_streaming_session_rerun_is_stable(self, v2_path,
                                               reference):
        """run() twice on one facade: the second run must rewind the
        file source, not find it exhausted."""
        simulation = Simulation.for_trace_file(v2_path,
                                               PAPER_4WIDE_PERFECT)
        first = simulation.run()
        second = simulation.run()
        assert stats_to_dict(first.stats) == reference
        assert stats_to_dict(second.stats) == reference

    def test_trace_statistics_without_materializing(self, v2_path,
                                                    generation):
        simulation = Simulation.for_trace_file(v2_path,
                                               PAPER_4WIDE_PERFECT)
        stats = simulation.trace_statistics()
        expected = generation.statistics()
        assert stats.total_records == expected.total_records
        assert stats.bits_per_instruction == \
            expected.bits_per_instruction

    def test_spec_roundtrip_with_streaming(self, v2_path):
        """A stored trace is always streamed, so a spec names no
        ingestion mode: a trace-file spec round-trips without a
        ``streaming`` key, and ``from_spec`` rejects one as unknown."""
        spec = Simulation.for_trace_file(v2_path).to_spec()
        assert "streaming" not in spec
        assert Simulation.from_spec(spec).to_spec() == spec
        for mode in (False, True):
            with pytest.raises(SessionError, match="'streaming'"):
                Simulation.from_spec({**spec, "streaming": mode})


class TestStreamedGeneration:
    def test_write_workload_trace_matches_save_trace(self, tmp_path):
        """Generator → SegmentedTraceWriter must produce the same file
        a materialize-then-write flow produces."""
        streamed = tmp_path / "streamed.rtrc"
        buffered = tmp_path / "buffered.rtrc"
        write_workload_trace("parser", PAPER_4WIDE_PERFECT, streamed,
                             budget=2000, seed=3)
        Simulation.for_workload(
            "parser", PAPER_4WIDE_PERFECT, budget=2000, seed=3,
        ).save_trace(buffered, benchmark="parser")
        assert streamed.read_bytes() == buffered.read_bytes()

    def test_written_trace_metadata(self, tmp_path):
        written = write_workload_trace(
            "matmul", PAPER_4WIDE_PERFECT, tmp_path / "k.rtrc")
        assert written.start_pc is not None
        source = FileSource(written.path)
        assert source.header.metadata["start_pc"] == written.start_pc
        assert source.total_records == written.record_count
        assert written.trace_stats.total_records == \
            written.record_count

    def test_failed_generation_preserves_existing_file(self, tmp_path):
        """The write is atomic: a mid-generation failure must neither
        destroy a previously valid trace at the target path nor leave
        a partial file behind."""
        path = tmp_path / "t.rtrc"
        write_workload_trace("parser", PAPER_4WIDE_PERFECT, path,
                             budget=500)
        good = path.read_bytes()
        with pytest.raises(ValueError):
            write_workload_trace("parser", PAPER_4WIDE_PERFECT, path,
                                 budget=0)  # generator rejects this
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]  # no .part litter


class TestMultiCoreStreaming:
    def test_cores_accept_trace_file_paths(self, v2_path, records,
                                           generation):
        """A stored trace per core, streamed: same throughput inputs
        as the equivalent in-memory workload run."""
        from repro.fpga.device import VIRTEX4_LX100
        from repro.multicore.simulator import MultiCoreSimulator
        simulator = MultiCoreSimulator(PAPER_4WIDE_PERFECT,
                                       VIRTEX4_LX100)
        result = simulator.run([str(v2_path)])
        (core,) = result.cores
        assert core.benchmark == "v2"  # file stem labels the core
        expected = generation.statistics()
        assert core.trace_stats.total_records == len(records)
        assert core.trace_stats.bits_per_instruction == \
            expected.bits_per_instruction
        assert core.demand_gbps > 0


class TestProgressObserver:
    def test_emits_periodic_lines(self, records):
        buffer = io.StringIO()
        engine = ReSimEngine(PAPER_4WIDE_PERFECT, records)
        observer = ProgressObserver(1000, stream=buffer)
        engine.add_observer(observer)
        engine.run()
        lines = buffer.getvalue().splitlines()
        assert observer.lines_emitted == len(lines)
        assert len(lines) == len(records) // 1000
        assert all(line.startswith("[progress]") for line in lines)
        assert f"{len(records):,}" in lines[0]  # total is reported

    def test_does_not_change_stats(self, records):
        plain = ReSimEngine(PAPER_4WIDE_PERFECT, records).run()
        observed_engine = ReSimEngine(PAPER_4WIDE_PERFECT, records)
        observed_engine.add_observer(
            ProgressObserver(500, stream=io.StringIO()))
        observed = observed_engine.run()
        assert stats_to_dict(observed.stats) == \
            stats_to_dict(plain.stats)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressObserver(0)
        with pytest.raises(ValueError):
            ProgressObserver(10, min_seconds=-1.0)

    def test_cli_progress_flag(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["simulate", "gzip", "--budget", "3000",
                     "--progress", "--progress-records", "500"]) == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "IPC" in captured.err


class TestTraceInfoCli:
    @pytest.mark.parametrize("version", [1, 2])
    def test_reports_header_and_segments(self, tmp_path, capsys,
                                         records, version):
        from repro.cli import main
        path = tmp_path / "t.rtrc"
        write_trace_file(path, records, benchmark="gzip", seed=7,
                         version=version,
                         segment_records=SEGMENT_RECORDS)
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"format version       : {version}" in out
        assert f"records              : {len(records)}" in out
        assert "bits per instruction" in out
        assert "benchmark" in out
        if version == 2:
            assert f"(nominal {SEGMENT_RECORDS} records each)" in out
            assert "[   0]" in out

    def test_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "junk.rtrc"
        path.write_bytes(b"this is not a trace")
        with pytest.raises(SystemExit, match="magic"):
            main(["trace", "info", str(path)])

    def test_missing_file(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["trace", "info", str(tmp_path / "absent.rtrc")])
