"""Decoded-segment reuse: a cache hit is a fresh decode.

Work units over one trace share decoded v2 segments through a
process-wide LRU keyed by each segment's exact payload bytes and bit
length (:func:`repro.trace.fileio.decoded_segment_reuse`).  These
tests hold it to three promises: a hit yields exactly what a fresh
decode of the same file yields; a corrupt file read after its clean
original was cached raises or decodes as its own bytes say, never as
the cached original; and a sweep decodes each segment once for all
its points (and a queue worker for all its units) while writing the
same documents as a run with no reuse.
"""

import contextlib
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core import PAPER_2WIDE_CACHE
from repro.exec import SerialBackend, WorkUnit, enqueue, queue_paths
from repro.exec import unit as unit_module
from repro.serialize import config_to_dict
from repro.sweep import SweepRunner, SweepSpec
from repro.trace import fileio
from repro.trace.fileio import (
    TraceFileError,
    clear_decoded_segment_cache,
    decoded_segment_cache_info,
    decoded_segment_reuse,
    iter_trace_records,
    read_segment_table,
    read_trace_file,
    write_trace_file,
)
from repro.trace.record import ROW_TAG
from repro.workloads import SyntheticWorkload, get_profile
from test_trace_codec import records as record_strategy

TRACES = st.lists(record_strategy(), min_size=1, max_size=48)
SEGMENT_RECORDS = st.integers(1, 12)


@pytest.fixture(autouse=True)
def cold_cache():
    clear_decoded_segment_cache()
    yield
    clear_decoded_segment_cache()


def _outcome(path: Path):
    """What a full streamed read makes of ``path``: its records, or
    the error it raised."""
    try:
        return list(iter_trace_records(path))
    except TraceFileError as error:
        return f"TraceFileError: {error}"


def _write(directory: str, trace, segment_records: int) -> Path:
    path = Path(directory) / "trace.rtrc"
    write_trace_file(path, trace, benchmark="prop",
                     segment_records=segment_records)
    return path


@settings(max_examples=60, deadline=None)
@given(TRACES, SEGMENT_RECORDS)
def test_hit_equals_fresh_decode(trace, segment_records):
    clear_decoded_segment_cache()
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, trace, segment_records)
        segments = len(read_segment_table(path))
        fresh = list(iter_trace_records(path))
        assert decoded_segment_cache_info()["misses"] == 0
        with decoded_segment_reuse():
            first = list(iter_trace_records(path))
            before = decoded_segment_cache_info()
            second = list(iter_trace_records(path))
        after = decoded_segment_cache_info()
    assert first == second == fresh == trace
    assert before["hits"] + before["misses"] == segments
    assert after["hits"] - before["hits"] == segments
    assert after["misses"] == before["misses"]


def _flip(data: bytearray, choice: int) -> None:
    """Flip one payload bit (padding bits included)."""
    header = int.from_bytes(data[10:12], "little")
    table = int.from_bytes(data[36:44], "little")
    bit = 8 * header + choice % (8 * (table - header))
    data[bit >> 3] ^= 0x80 >> (bit & 7)


def _truncate(data: bytearray, choice: int) -> None:
    del data[choice % len(data):]


def _edit_table(data: bytearray, choice: int) -> None:
    """Move records or payload bits between two segment-table entries
    (or alter one entry of a one-segment table), so the table's totals
    may still agree with the header."""
    count = int.from_bytes(data[32:36], "little")
    table = int.from_bytes(data[36:44], "little")
    field, width = ((0, 4), (4, 8))[choice & 1]
    delta = 1 + (choice >> 1) % 9
    entries = [choice % count, (choice // 7 + 1) % count]

    def shift(entry: int, by: int) -> None:
        at = table + entry * fileio._SEGMENT_ENTRY_BYTES + field
        value = int.from_bytes(data[at:at + width], "little")
        data[at:at + width] = ((value + by) % (1 << 8 * width)).to_bytes(
            width, "little")

    shift(entries[0], delta)
    if entries[1] != entries[0]:
        shift(entries[1], -delta)


FAULTS = {"flip": _flip, "truncate": _truncate, "table": _edit_table}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TRACES, SEGMENT_RECORDS, st.sampled_from(sorted(FAULTS)),
       st.integers(0, 2**32))
def test_corrupt_copy_never_reads_as_cached_clean(trace, segment_records,
                                                  fault, choice):
    clear_decoded_segment_cache()
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, trace, segment_records)
        with decoded_segment_reuse():
            assert list(iter_trace_records(path)) == trace  # now cached
        data = bytearray(path.read_bytes())
        FAULTS[fault](data, choice)
        corrupt = Path(directory) / "corrupt.rtrc"
        corrupt.write_bytes(bytes(data))
        expected = _outcome(corrupt)
        with decoded_segment_reuse():
            assert _outcome(corrupt) == expected
            assert _outcome(corrupt) == expected  # its own hits, if any
            assert list(iter_trace_records(path)) == trace


class TestScope:
    @pytest.fixture()
    def path(self, tmp_path):
        records = SyntheticWorkload(get_profile("parser"),
                                    seed=11).generate(600).records
        path = tmp_path / "trace.rtrc"
        write_trace_file(path, records, segment_records=64)
        return path

    def test_reads_outside_the_scope_never_touch_the_cache(self, path):
        read_trace_file(path)
        list(iter_trace_records(path))
        assert decoded_segment_cache_info() == {
            "hits": 0, "misses": 0, "entries": 0, "records": 0}

    def test_entries_are_immutable_and_counted(self, path):
        segments = read_segment_table(path)
        with decoded_segment_reuse():
            records = list(iter_trace_records(path))
        info = decoded_segment_cache_info()
        assert info == {"hits": 0, "misses": len(segments),
                        "entries": len(segments),
                        "records": len(records)}
        assert all(isinstance(records, tuple)
                   and committed == sum(not r[ROW_TAG] for r in records)
                   for records, committed in fileio._SEGMENTS.values())

    def test_v1_payloads_are_not_cached(self, path, tmp_path):
        _, records = read_trace_file(path)
        v1 = tmp_path / "v1.rtrc"
        write_trace_file(v1, records, version=1)
        with decoded_segment_reuse():
            assert list(iter_trace_records(v1)) == records
        assert decoded_segment_cache_info()["misses"] == 0

    def test_scope_is_per_thread(self, path):
        with decoded_segment_reuse():
            reader = threading.Thread(
                target=lambda: list(iter_trace_records(path)))
            reader.start()
            reader.join()
        assert decoded_segment_cache_info()["misses"] == 0

    def test_lru_bound_in_records(self, path, monkeypatch):
        table = read_segment_table(path)
        # Room for two of the 64-record segments, not three.
        monkeypatch.setattr(fileio._SEGMENTS, "capacity", 150)
        with decoded_segment_reuse():
            list(iter_trace_records(path))
            info = decoded_segment_cache_info()
            assert info["entries"] == 2
            assert info["records"] == sum(s.record_count for s in table[-2:])
            # The two newest survive: re-reading the last segment hits.
            list(iter_trace_records(path, segments=table[-1:]))
        assert decoded_segment_cache_info()["hits"] == 1

    def test_segment_above_the_bound_is_not_stored(self, path,
                                                   monkeypatch):
        monkeypatch.setattr(fileio._SEGMENTS, "capacity", 32)
        with decoded_segment_reuse():
            list(iter_trace_records(path))
        info = decoded_segment_cache_info()
        assert info["entries"] == 0 and info["misses"] > 0

    def test_threads_share_the_cache_without_losing_updates(
            self, path, tmp_path, monkeypatch):
        """More reader threads than cores, a short switch interval and
        a cap small enough to evict constantly: every read still
        returns its file's records, every lookup is counted once, and
        the record total matches the entries held."""
        other = tmp_path / "other.rtrc"
        _, records = read_trace_file(path)
        write_trace_file(other, records[::-1], segment_records=48)
        expected = {path: records, other: records[::-1]}
        reads = {file: len(read_segment_table(file)) for file in expected}
        monkeypatch.setattr(fileio._SEGMENTS, "capacity", 200)
        failures = []

        def reader(index: int) -> None:
            with decoded_segment_reuse():
                for round_ in range(6):
                    file = (path, other)[(index + round_) % 2]
                    if list(iter_trace_records(file)) != expected[file]:
                        failures.append(file)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        info = decoded_segment_cache_info()
        assert info["hits"] + info["misses"] == 8 * 3 * sum(reads.values())
        assert info["records"] == sum(
            len(records) for records, _ in fileio._SEGMENTS.values())
        assert info["records"] <= 200

    def test_clear_resets_counters(self, path):
        with decoded_segment_reuse():
            list(iter_trace_records(path))
            list(iter_trace_records(path))
        clear_decoded_segment_cache()
        assert decoded_segment_cache_info() == {
            "hits": 0, "misses": 0, "entries": 0, "records": 0}


def _sweep(results_dir: Path) -> dict[str, bytes]:
    """Run a 4-point serial sweep; return every file it wrote."""
    SweepRunner(
        SweepSpec(axes={"rob_entries": (8, 16, 32, 64)}), "gzip",
        results_dir=results_dir, budget=1500, segment_records=256,
        backend=SerialBackend()).run()
    return {path.name: path.read_bytes()
            for path in sorted(results_dir.iterdir())}


def test_sweep_decodes_each_segment_once(tmp_path, monkeypatch):
    results_dir = tmp_path / "results"
    warm = _sweep(results_dir)
    segments = len(read_segment_table(next(results_dir.glob("*.rtrc"))))
    assert segments > 1
    info = decoded_segment_cache_info()
    assert info["misses"] == segments
    assert info["hits"] == 3 * segments

    # The same sweep with every unit decoding afresh writes the same
    # bytes.
    shutil.rmtree(results_dir)
    clear_decoded_segment_cache()
    monkeypatch.setattr(unit_module, "decoded_segment_reuse",
                        contextlib.nullcontext)
    assert _sweep(results_dir) == warm
    assert decoded_segment_cache_info()["misses"] == 0


def test_queue_worker_reuses_across_its_units(tmp_path, capsys,
                                              monkeypatch):
    """`resim worker` decodes each segment once for all the units it
    drains, reports the reuse on its exit line, and writes the same
    result documents as units that each decode afresh."""
    records = SyntheticWorkload(get_profile("gzip"),
                                seed=7).generate(1200).records
    trace = tmp_path / "gzip.rtrc"
    write_trace_file(trace, records, segment_records=256)
    segments = len(read_segment_table(trace))
    paths = queue_paths(tmp_path / "queue")
    units = [WorkUnit.for_trace(f"rob{rob}", trace,
                                {**config_to_dict(PAPER_2WIDE_CACHE),
                                 "rob_entries": rob},
                                tmp_path / f"rob{rob}.json")
             for rob in (8, 16, 32)]
    for unit in units:
        enqueue(paths, unit)
    assert main(["worker", str(paths.root), "--exit-when-drained",
                 "--quiet"]) == 0
    assert (f"processed 3 unit(s); decoded segments: "
            f"{2 * segments} hit(s), {segments} miss(es)"
            in capsys.readouterr().out)

    warm = [Path(unit.result_path).read_bytes() for unit in units]
    clear_decoded_segment_cache()
    monkeypatch.setattr(unit_module, "decoded_segment_reuse",
                        contextlib.nullcontext)
    SerialBackend().run_units(units)
    assert [Path(unit.result_path).read_bytes() for unit in units] == warm
    assert decoded_segment_cache_info()["misses"] == 0
