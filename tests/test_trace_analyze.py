"""The trace profiler: per-segment behaviour profiles and their
``.rprof`` sidecars.

The profiler is the measurement half of region sampling
(:mod:`repro.exec.regions`): its per-segment sums must agree with the
independent whole-trace measurement (:func:`measure_trace`), its
output must be a deterministic pure function of the trace bytes, and
its sidecar cache must never serve a profile for different bytes than
the ones on disk (content-digest staleness), or counts no trace can
produce.

Each process profiles a trace at most once: a memo hit must equal a
fresh :func:`analyze_trace`, down to the sidecar bytes.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PAPER_4WIDE_PERFECT
from repro.trace import (
    RecordKind,
    TraceFileError,
    analyze_trace,
    ensure_profile,
    iter_trace_records,
    load_profile,
    measure_trace,
    profile_cache_info,
    profile_path,
    read_segment_table,
    trace_content_digest,
    write_profile,
    write_trace_file,
)
from repro.trace import analyze as analyze_module
from repro.trace.analyze import (
    ProfileError,
    TraceProfile,
    clear_profile_cache,
)
from repro.workloads.tracegen import write_workload_trace
from test_trace_codec import records as record_strategy

BUDGET = 6_000
SEGMENT_RECORDS = 256


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("analyze") / "gzip.rtrc"
    write_workload_trace("gzip", PAPER_4WIDE_PERFECT, path,
                         budget=BUDGET, seed=7,
                         segment_records=SEGMENT_RECORDS)
    return path


@pytest.fixture(scope="module")
def profile(trace):
    return analyze_trace(trace)


@pytest.fixture(autouse=True)
def cold_memo():
    clear_profile_cache()
    yield
    clear_profile_cache()


def _sidecar_bytes(profile: TraceProfile) -> bytes:
    """What ``resim trace analyze --force`` writes for ``profile``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "x.rprof"
        write_profile(profile, path)
        return path.read_bytes()


class TestAnalyzeTrace:
    def test_segment_sums_match_whole_trace_measurement(self, trace,
                                                        profile):
        measured = measure_trace(iter_trace_records(trace))
        assert profile.total_records == measured.total_records
        assert sum(s.wrong_path for s in profile.segments) == \
            measured.wrong_path_records
        assert profile.total_committed == measured.correct_path_records

    def test_segment_mix_sums_match_committed_path(self, trace,
                                                   profile):
        # The analyzer profiles the *committed* mix (wrong-path
        # records never reach it), so recompute that independently.
        committed = [r for r in iter_trace_records(trace) if not r.tag]
        branches = [r for r in committed
                    if r.kind is RecordKind.BRANCH]
        memory = [r for r in committed if r.kind is RecordKind.MEMORY]
        assert sum(s.branches for s in profile.segments) == \
            len(branches)
        assert sum(s.taken_branches for s in profile.segments) == \
            sum(1 for r in branches if r.taken)
        assert sum(s.stores for s in profile.segments) == \
            sum(1 for r in memory if r.is_store)
        assert sum(s.loads + s.stores for s in profile.segments) == \
            len(memory)

    def test_segments_follow_the_segment_table(self, trace, profile):
        table = read_segment_table(trace)
        assert len(profile.segments) == len(table)
        for segment, entry in zip(profile.segments, table,
                                  strict=True):
            assert segment.index == entry.index
            assert segment.records == entry.record_count

    def test_profile_is_deterministic(self, trace, profile):
        again = analyze_trace(trace)
        assert again.to_dict() == profile.to_dict()

    def test_digest_matches_streamed_content_digest(self, trace,
                                                    profile):
        assert profile.digest == trace_content_digest(trace)
        assert profile.digest.startswith("sha256:")

    def test_features_are_normalized(self, profile):
        for segment in profile.segments:
            vector = segment.features()
            assert all(0.0 <= value <= 1.0 for value in vector)
            assert len(vector) == 6 + profile.bbv_dim

    def test_round_trip_through_dict(self, profile):
        assert TraceProfile.from_dict(profile.to_dict()).to_dict() \
            == profile.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(record_strategy(), max_size=48), st.integers(1, 12))
    def test_state_carries_across_segment_boundaries(self, trace,
                                                     segment_records):
        """Whole-trace totals, the BBV included, do not depend on where
        the segment boundaries fall: the committed PC and the
        wrong-path block state carry across them."""
        def totals(profile):
            segments = profile.segments
            return ([sum(getattr(s, name) for s in segments)
                     for name in ("records", "committed", "wrong_path",
                                  "wrong_path_blocks", "branches",
                                  "taken_branches", "loads", "stores")],
                    [sum(column) for column in
                     zip(*(s.bbv for s in segments), strict=True)])

        with tempfile.TemporaryDirectory() as directory:
            split = Path(directory) / "split.rtrc"
            whole = Path(directory) / "whole.rtrc"
            write_trace_file(split, trace,
                             segment_records=segment_records)
            write_trace_file(whole, trace)
            assert totals(analyze_trace(split)) == \
                totals(analyze_trace(whole))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            analyze_trace(tmp_path / "nope.rtrc")

    def test_content_digest_rejects_directories(self, tmp_path):
        with pytest.raises(ProfileError):
            trace_content_digest(tmp_path)


class TestSidecar:
    def test_write_then_load(self, trace, profile, tmp_path):
        sidecar = tmp_path / "copy.rprof"
        write_profile(profile, sidecar)
        # load_profile keys on the digest of the *trace* next to the
        # sidecar, so exercise the real location too.
        write_profile(profile, profile_path(trace))
        assert load_profile(trace).to_dict() == profile.to_dict()
        assert json.loads(sidecar.read_text())["schema"] >= 1

    def test_stale_sidecar_ignored_on_digest_mismatch(self, profile,
                                                      tmp_path):
        # Same filename, different trace bytes: the sidecar was
        # profiled from *other* content and must read as absent.
        path = tmp_path / "other.rtrc"
        write_workload_trace("gzip", PAPER_4WIDE_PERFECT, path,
                             budget=BUDGET, seed=8,
                             segment_records=SEGMENT_RECORDS)
        write_profile(profile, profile_path(path))
        assert load_profile(path) is None

    def test_malformed_sidecar_reads_as_absent(self, trace, profile):
        sidecar = profile_path(trace)
        sidecar.write_text("{not json")
        assert load_profile(trace) is None
        sidecar.write_text(json.dumps({"schema": 999}))
        assert load_profile(trace) is None

    def test_ensure_profile_reuses_then_reanalyzes(self, trace):
        first = ensure_profile(trace)
        assert profile_path(trace).exists()
        # A fresh sidecar short-circuits the streaming pass...
        assert ensure_profile(trace).to_dict() == first.to_dict()
        # ...and force re-measures (identically, by determinism).
        assert ensure_profile(trace,
                              force=True).to_dict() == first.to_dict()


class TestAnalyzeCli:
    def test_text_and_json_output(self, trace, capsys):
        from repro.cli import main
        assert main(["trace", "analyze", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "segments" in text and "trace digest" in text
        assert main(["trace", "analyze", str(trace),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace"]["digest"] == trace_content_digest(trace)

    def test_missing_file_exits_cleanly(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["trace", "analyze", str(tmp_path / "nope.rtrc")])


class TestSidecarConsistency:
    """A digest-fresh sidecar whose counts no trace can produce reads
    as absent and is recomputed, never planned from."""

    TAMPERS = {
        "header segments": lambda d: d["trace"].update(
            segments=d["trace"]["segments"] + 1),
        "header records": lambda d: d["trace"].update(
            records=d["trace"]["records"] + 1),
        "records vs committed + wrong path": lambda d: d["segments"][0]
        .update(records=d["segments"][0]["records"] + 1),
        "bbv sum vs committed": lambda d: d["segments"][0]["bbv"]
        .__setitem__(0, d["segments"][0]["bbv"][0] + 1),
        "taken above branches": lambda d: d["segments"][0].update(
            taken_branches=d["segments"][0]["branches"] + 1),
        "mix above committed": lambda d: d["segments"][0].update(
            loads=d["segments"][0]["committed"] + 1),
        "wrong-path blocks above wrong-path records": lambda d:
        d["segments"][0].update(
            wrong_path_blocks=d["segments"][0]["wrong_path"] + 1),
        "negative count": lambda d: d["segments"][0].update(stores=-1),
    }

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_from_dict_rejects(self, profile, tamper):
        document = json.loads(json.dumps(profile.to_dict()))
        self.TAMPERS[tamper](document)
        with pytest.raises(ProfileError):
            TraceProfile.from_dict(document)

    def test_tampered_sidecar_is_recomputed(self, trace, profile):
        # The reported case: 900 more in one BBV bucket and 40 more
        # records in one segment used to load and steer the plan.
        document = profile.to_dict()
        document["segments"][1]["bbv"][3] += 900
        document["segments"][2]["records"] += 40
        sidecar = profile_path(trace)
        sidecar.write_text(json.dumps(document, sort_keys=True))
        assert load_profile(trace) is None
        assert ensure_profile(trace).to_dict() == profile.to_dict()
        assert sidecar.read_bytes() == _sidecar_bytes(profile)


def _link(trace: Path, directory: Path) -> Path:
    """``trace`` as it lands in another results directory: the same
    bytes under the same name, with no sidecar."""
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / trace.name
    os.link(trace, target)
    return target


class TestProfileMemo:
    def test_hit_equals_fresh_analysis(self, trace, tmp_path):
        first = ensure_profile(_link(trace, tmp_path / "a"))
        assert profile_cache_info() == {"hits": 0, "misses": 1,
                                        "entries": 1}
        linked = _link(trace, tmp_path / "b")
        hit = ensure_profile(linked)
        assert profile_cache_info()["hits"] == 1
        fresh = analyze_trace(linked)
        assert hit.to_dict() == fresh.to_dict() == first.to_dict()
        assert hit is not first
        assert profile_path(linked).read_bytes() == _sidecar_bytes(fresh)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(record_strategy(), max_size=40), st.integers(1, 9))
    def test_generated_hit_equals_fresh_analysis(self, trace,
                                                 segment_records):
        clear_profile_cache()
        with tempfile.TemporaryDirectory() as directory:
            origin = Path(directory) / "a" / "t.rtrc"
            origin.parent.mkdir()
            write_trace_file(origin, trace,
                             segment_records=segment_records)
            ensure_profile(origin)
            linked = _link(origin, Path(directory) / "b")
            hit = ensure_profile(linked)
            assert profile_cache_info()["hits"] == 1
            fresh = analyze_trace(linked)
            assert hit.to_dict() == fresh.to_dict()
            assert profile_path(linked).read_bytes() == \
                _sidecar_bytes(fresh)

    def test_corrupt_copy_is_never_a_hit(self, trace, tmp_path):
        ensure_profile(_link(trace, tmp_path / "a"))
        corrupt = tmp_path / "b" / trace.name
        corrupt.parent.mkdir()
        data = bytearray(trace.read_bytes())
        data[0] ^= 0x01  # the magic
        corrupt.write_bytes(bytes(data))
        with pytest.raises(TraceFileError):
            ensure_profile(corrupt)
        assert profile_cache_info()["hits"] == 0

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_generated_byte_flip_is_never_a_hit(self, trace, data):
        clear_profile_cache()
        with tempfile.TemporaryDirectory() as directory:
            ensure_profile(_link(trace, Path(directory) / "a"))
            payload = bytearray(trace.read_bytes())
            position = data.draw(st.integers(0, len(payload) - 1))
            payload[position] ^= 1 << data.draw(st.integers(0, 7))
            corrupt = Path(directory) / "b" / trace.name
            corrupt.parent.mkdir()
            corrupt.write_bytes(bytes(payload))
            try:
                served = ensure_profile(corrupt)
            except TraceFileError:
                pass
            else:
                # The flip left a readable trace: profiled as its own
                # bytes say, by a fresh pass.
                assert served.to_dict() == \
                    analyze_trace(corrupt).to_dict()
            assert profile_cache_info()["hits"] == 0

    def test_force_reanalyzes(self, trace, tmp_path, monkeypatch):
        linked = _link(trace, tmp_path / "a")
        ensure_profile(linked)
        calls = []
        original = analyze_module.analyze_trace

        def counting(path, **kwargs):
            calls.append(path)
            return original(path, **kwargs)

        monkeypatch.setattr(analyze_module, "analyze_trace", counting)
        ensure_profile(linked)
        ensure_profile(_link(trace, tmp_path / "b"))
        assert calls == []
        forced = ensure_profile(linked, force=True)
        assert calls == [linked]
        assert forced.to_dict() == original(linked).to_dict()

    def test_sidecar_read_off_disk_never_enters_memo(self, trace,
                                                     profile, tmp_path):
        linked = _link(trace, tmp_path / "a")
        # Digest-fresh and self-consistent, but not what the trace
        # holds: two BBV buckets swapped.
        document = profile.to_dict()
        bbv = document["segments"][0]["bbv"]
        first = next(i for i, count in enumerate(bbv) if count)
        bbv[first], bbv[first - 1] = bbv[first - 1], bbv[first]
        profile_path(linked).write_text(json.dumps(document))
        assert ensure_profile(linked).to_dict() == document
        assert profile_cache_info()["entries"] == 0
        again = ensure_profile(_link(trace, tmp_path / "b"))
        assert again.to_dict() == profile.to_dict()
        assert profile_cache_info() == {"hits": 0, "misses": 1,
                                        "entries": 1}

    def test_lru_bound_evicts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analyze_module._PROFILES, "capacity", 2)
        traces = []
        for seed in (1, 2, 3):
            path = tmp_path / f"t{seed}" / "t.rtrc"
            path.parent.mkdir()
            write_workload_trace("gzip", PAPER_4WIDE_PERFECT, path,
                                 budget=600, seed=seed,
                                 segment_records=128)
            ensure_profile(path)
            traces.append(path)
        assert profile_cache_info()["entries"] == 2
        # The oldest was evicted; the newest two still hit.
        ensure_profile(_link(traces[2], tmp_path / "c"))
        ensure_profile(_link(traces[1], tmp_path / "d"))
        assert profile_cache_info()["hits"] == 2
        ensure_profile(_link(traces[0], tmp_path / "e"))
        assert profile_cache_info()["hits"] == 2
        assert profile_cache_info()["entries"] == 2

    def test_threads_agree(self, trace, profile, tmp_path):
        for attempt in range(4):
            clear_profile_cache()
            linked = _link(trace, tmp_path / str(attempt))
            assert _race_ensure_profile(linked) == [profile.to_dict()] * 2
            assert load_profile(linked).to_dict() == profile.to_dict()
            assert not list(linked.parent.glob("*.tmp"))


def _race_ensure_profile(path: Path) -> list:
    """Two threads released together into ``ensure_profile(path)``:
    their profile dicts, or the error each raised."""
    barrier = threading.Barrier(2)
    results: list = [None, None]

    def run(slot: int) -> None:
        barrier.wait()
        try:
            results[slot] = ensure_profile(path).to_dict()
        except Exception as error:  # pragma: no cover - reported below
            results[slot] = error

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
