"""Tests for the execution-backend layer (:mod:`repro.exec`):
work-unit serialization and idempotent execution, backend parity
(serial / process pool / directory queue must be bit-identical), and
the directory queue's crash tolerance — stale-lease reclaim, a worker
killed mid-unit, error propagation."""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PAPER_4WIDE_PERFECT
from repro.exec import (
    BACKENDS,
    DirectoryQueueBackend,
    ExecError,
    ProcessPoolBackend,
    SerialBackend,
    UnitExecutionError,
    WorkUnit,
    enqueue,
    execute_unit,
    load_unit_result,
    queue_paths,
    reclaim_stale,
    run_worker,
)
from repro.exec.queue import claim_next
from repro.serialize import config_to_dict, stats_to_dict
from repro.session import Simulation
from repro.workloads.tracegen import write_workload_trace

BUDGET = 1200


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """One shared gzip trace every unit in this module simulates."""
    path = tmp_path_factory.mktemp("trace") / "gzip.rtrc"
    write_workload_trace("gzip", PAPER_4WIDE_PERFECT, path,
                         budget=BUDGET, seed=7)
    return path


def make_unit(trace_file, out_dir, rob=16, uid=None) -> WorkUnit:
    config = replace(PAPER_4WIDE_PERFECT, rob_entries=rob)
    uid = uid or f"rob{rob}"
    return WorkUnit.for_trace(
        uid, trace_file, config_to_dict(config),
        Path(out_dir) / f"{uid}.json",
        tags={"sweep": {"workload": "gzip"}})


class TestWorkUnit:
    def test_dict_round_trip(self, trace_file, tmp_path):
        unit = make_unit(trace_file, tmp_path)
        restored = WorkUnit.from_dict(
            json.loads(json.dumps(unit.to_dict())))
        assert restored == unit

    def test_segment_range_lands_in_spec(self, trace_file, tmp_path):
        unit = WorkUnit.for_trace(
            "shard0", trace_file, "4wide-perfect",
            tmp_path / "shard0.json", segments=(0, 2), start_pc=4096)
        assert unit.spec["segments"] == [0, 2]
        assert unit.spec["start_pc"] == 4096

    def test_path_traversing_unit_id_rejected(self, tmp_path):
        for bad in ("../evil", "a/b", "", "x y"):
            with pytest.raises(ExecError, match="unit_id"):
                WorkUnit(unit_id=bad, spec={"workload": "gzip"},
                         result_path=str(tmp_path / "r.json"))

    def test_reserved_tags_rejected(self, tmp_path):
        with pytest.raises(ExecError, match="shadow"):
            WorkUnit(unit_id="u", spec={"workload": "gzip"},
                     result_path=str(tmp_path / "r.json"),
                     tags={"stats": {}})

    def test_foreign_schema_rejected(self, trace_file, tmp_path):
        document = make_unit(trace_file, tmp_path).to_dict()
        document["schema"] = 99
        with pytest.raises(ExecError, match="schema"):
            WorkUnit.from_dict(document)

    def test_missing_key_rejected(self):
        with pytest.raises(ExecError, match="missing key"):
            WorkUnit.from_dict({"schema": 1, "unit_id": "u"})


class TestExecuteUnit:
    def test_matches_direct_simulation(self, trace_file, tmp_path):
        unit = make_unit(trace_file, tmp_path, rob=8)
        payload = execute_unit(unit)
        direct = Simulation.for_trace_file(
            trace_file,
            config=replace(PAPER_4WIDE_PERFECT, rob_entries=8)).run()
        assert payload["stats"] == stats_to_dict(direct.stats)
        assert payload["config"] == config_to_dict(direct.config)
        assert payload["sweep"] == {"workload": "gzip"}  # tag merged
        assert load_unit_result(unit.result_path) == payload

    def test_execution_is_idempotent(self, trace_file, tmp_path):
        unit = make_unit(trace_file, tmp_path, rob=32)
        first = execute_unit(unit)
        second = execute_unit(unit)
        assert first == second
        assert json.loads(Path(unit.result_path).read_text()) == first

    def test_load_unit_result_rejects_garbage(self, tmp_path):
        assert load_unit_result(tmp_path / "absent.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert load_unit_result(bad) is None
        bad.write_text(json.dumps({"schema": 99, "stats": {}}))
        assert load_unit_result(bad) is None
        bad.write_text(json.dumps({"schema": 1, "stats": "nope"}))
        assert load_unit_result(bad) is None


class TestBackendProtocol:
    def test_registry_names(self):
        assert set(BACKENDS) >= {"serial", "pool", "queue"}
        assert BACKENDS.get("process-pool") is ProcessPoolBackend
        assert BACKENDS.get("directory-queue") is DirectoryQueueBackend

    def test_duplicate_unit_id_rejected(self, trace_file, tmp_path):
        unit = make_unit(trace_file, tmp_path)
        with pytest.raises(ExecError, match="already enqueued"):
            SerialBackend().run_units([unit, unit])

    def test_pool_needs_positive_workers(self):
        with pytest.raises(ExecError, match="workers"):
            ProcessPoolBackend(0)

    def test_queue_validates_parameters(self, tmp_path):
        with pytest.raises(ExecError, match="workers"):
            DirectoryQueueBackend(tmp_path, workers=-1)
        with pytest.raises(ExecError, match="lease_seconds"):
            DirectoryQueueBackend(tmp_path, lease_seconds=0)
        with pytest.raises(ExecError, match="poll_seconds"):
            DirectoryQueueBackend(tmp_path, poll_seconds=0)
        with pytest.raises(ExecError, match="timeout"):
            DirectoryQueueBackend(tmp_path, timeout=0)

    def test_serial_propagates_unit_exception(self, tmp_path):
        unit = WorkUnit(unit_id="boom",
                        spec={"workload": "nonesuch"},
                        result_path=str(tmp_path / "boom.json"))
        from repro.workloads.tracegen import UnknownWorkloadError
        with pytest.raises(UnknownWorkloadError):
            SerialBackend().run_units([unit])


class TestBackendParity:
    def test_all_backends_bit_identical(self, trace_file, tmp_path):
        """Acceptance: serial, pool, and directory queue (2 workers)
        produce byte-identical result documents for the same batch."""
        def units(sub):
            directory = tmp_path / sub
            directory.mkdir()
            return [make_unit(trace_file, directory, rob=rob)
                    for rob in (8, 16, 32)]

        serial = SerialBackend().run_units(units("serial"))
        pool = ProcessPoolBackend(2).run_units(units("pool"))
        queue = DirectoryQueueBackend(
            tmp_path / "q" / "queue", workers=2, poll_seconds=0.02,
            timeout=120).run_units(units("q"))
        assert set(serial) == set(pool) == set(queue)
        for unit_id, payload in serial.items():
            assert pool[unit_id] == payload
            assert queue[unit_id] == payload

    def test_on_result_sees_every_unit(self, trace_file, tmp_path):
        batch = [make_unit(trace_file, tmp_path, rob=rob)
                 for rob in (8, 64)]
        seen = []
        SerialBackend().run_units(
            batch, on_result=lambda u, p: seen.append(u.unit_id))
        assert seen == ["rob8", "rob64"]


def _spawn_worker(queue_dir, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.exec", str(queue_dir),
         "--poll-seconds", "0.02", *extra],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestDirectoryQueue:
    def test_worker_drains_enqueued_units(self, trace_file, tmp_path):
        paths = queue_paths(tmp_path / "queue")
        batch = [make_unit(trace_file, tmp_path, rob=rob)
                 for rob in (8, 16)]
        assert all(enqueue(paths, unit) for unit in batch)
        assert not enqueue(paths, batch[0])  # no double-enqueue
        processed = run_worker(paths.root, exit_when_drained=True,
                               poll_seconds=0.02)
        assert processed == 2
        for unit in batch:
            assert load_unit_result(unit.result_path) is not None
        assert not list(paths.pending.glob("*.json"))
        assert not list(paths.leases.glob("*.json"))
        assert len(list(paths.done.glob("*.json"))) == 2

    def test_heartbeat_keeps_long_unit_leased(self, trace_file,
                                              tmp_path, monkeypatch):
        """A unit slower than the heartbeat interval keeps its lease
        mtime advancing, runs on the tier it asked for, and its lease
        is never touched once completed."""
        from repro.exec import worker

        unit = WorkUnit.for_trace("spec", trace_file, "4wide-perfect",
                                  tmp_path / "spec.json",
                                  engine="specialized")
        paths = queue_paths(tmp_path / "queue")
        enqueue(paths, unit)
        lease = claim_next(paths)
        events, tiers, mtimes = [], [], []
        touch, complete = worker.touch_lease, worker.complete_lease
        build_engine = Simulation.build_engine

        def recording_touch(path):
            events.append("touch")
            touch(path)

        def recording_complete(queue, path):
            events.append("complete")
            complete(queue, path)

        def recording_build(simulation, trace=None):
            engine = build_engine(simulation, trace)
            tiers.append(getattr(engine, "tier", "reference"))
            return engine

        def slow_execute(unit):
            mtimes.append(lease.stat().st_mtime_ns)
            payload = execute_unit(unit)
            time.sleep(0.5)  # ten 0.05 s heartbeat intervals
            mtimes.append(lease.stat().st_mtime_ns)
            return payload

        monkeypatch.setattr(worker, "touch_lease", recording_touch)
        monkeypatch.setattr(worker, "complete_lease", recording_complete)
        monkeypatch.setattr(worker, "execute_unit", slow_execute)
        monkeypatch.setattr(Simulation, "build_engine", recording_build)
        assert worker.process_one(paths, lease, lease_seconds=0.2)
        time.sleep(0.3)  # a leaked heartbeat would touch again here
        assert mtimes[1] > mtimes[0]
        assert events.count("touch") >= 2
        assert events[-1] == "complete"
        assert events.count("complete") == 1
        assert tiers == ["specialized"]
        assert "stats" in load_unit_result(unit.result_path)

    def test_worker_skips_already_satisfied_unit(self, trace_file,
                                                 tmp_path):
        unit = make_unit(trace_file, tmp_path, rob=8)
        execute_unit(unit)
        stamp = Path(unit.result_path).stat().st_mtime_ns
        paths = queue_paths(tmp_path / "queue")
        enqueue(paths, unit)
        run_worker(paths.root, exit_when_drained=True,
                   poll_seconds=0.02)
        # Completed for free: the existing result was honored, not
        # recomputed (its file was never rewritten).
        assert Path(unit.result_path).stat().st_mtime_ns == stamp
        assert (paths.done / "rob8.json").exists()

    def test_stale_lease_is_reclaimed_and_completed(self, trace_file,
                                                    tmp_path):
        """The on-disk state a crashed worker leaves — a claimed unit
        going silent — must be recoverable by anyone."""
        paths = queue_paths(tmp_path / "queue")
        unit = make_unit(trace_file, tmp_path, rob=16)
        enqueue(paths, unit)
        lease = claim_next(paths)  # "worker" claims, then dies
        assert lease is not None and lease.exists()
        assert not list(paths.pending.glob("*.json"))
        # Fresh lease: not reclaimable yet.
        assert reclaim_stale(paths, lease_seconds=60) == 0
        # Silence past the horizon: reclaimable by anyone.
        old = time.time() - 120
        os.utime(lease, (old, old))
        assert reclaim_stale(paths, lease_seconds=60) == 1
        assert list(paths.pending.glob("*.json"))
        processed = run_worker(paths.root, exit_when_drained=True,
                               poll_seconds=0.02)
        assert processed == 1
        assert load_unit_result(unit.result_path) is not None

    def test_lease_with_existing_result_completes_not_reruns(
            self, trace_file, tmp_path):
        """Worker died between result write and lease rename: the
        reclaim pass must finish the bookkeeping, not re-simulate."""
        paths = queue_paths(tmp_path / "queue")
        unit = make_unit(trace_file, tmp_path, rob=32)
        enqueue(paths, unit)
        lease = claim_next(paths)
        execute_unit(unit)  # result lands; lease never completed
        old = time.time() - 120
        os.utime(lease, (old, old))
        assert reclaim_stale(paths, lease_seconds=60) == 0
        assert (paths.done / "rob32.json").exists()
        assert not lease.exists()

    def test_worker_killed_mid_unit_leaves_reclaimable_lease(
            self, tmp_path):
        """Satellite: SIGKILL a worker mid-simulation; its lease must
        survive (reclaimable), and another worker must complete the
        batch with no duplicated or lost units."""
        trace = tmp_path / "slow.rtrc"
        write_workload_trace("gzip", PAPER_4WIDE_PERFECT, trace,
                             budget=30_000, seed=7)
        unit = make_unit(trace, tmp_path, rob=16, uid="victim")
        paths = queue_paths(tmp_path / "queue")
        enqueue(paths, unit)
        worker = _spawn_worker(paths.root)
        try:
            deadline = time.monotonic() + 30
            lease = None  # claimant-unique name: victim.<nonce>.json
            while lease is None:
                assert time.monotonic() < deadline, \
                    "worker never claimed the unit"
                assert worker.poll() is None, "worker exited early"
                lease = next(
                    iter(paths.leases.glob("victim.*.json")), None)
                if lease is None:
                    time.sleep(0.005)
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=30)
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup
                worker.kill()
                worker.wait()
        # Killed mid-unit: the claim is still on disk, unfinished.
        assert lease.exists()
        assert load_unit_result(unit.result_path) is None
        # Another worker (after the lease horizon) completes it.
        old = time.time() - 120
        os.utime(lease, (old, old))
        processed = run_worker(paths.root, exit_when_drained=True,
                               poll_seconds=0.02, lease_seconds=60)
        assert processed == 1
        payload = load_unit_result(unit.result_path)
        assert payload is not None and "error" not in payload
        assert len(list(paths.done.glob("*.json"))) == 1
        assert not lease.exists()

    def test_failing_unit_surfaces_as_unit_execution_error(
            self, tmp_path):
        unit = WorkUnit(unit_id="boom",
                        spec={"workload": "nonesuch"},
                        result_path=str(tmp_path / "boom.json"))
        backend = DirectoryQueueBackend(
            tmp_path / "queue", workers=1, poll_seconds=0.02,
            timeout=120)
        with pytest.raises(UnitExecutionError,
                           match="UnknownWorkloadError") as info:
            backend.run_units([unit])
        assert info.value.unit_id == "boom"
        assert info.value.kind == "UnknownWorkloadError"
        # The error document is on disk for post-mortems...
        payload = load_unit_result(unit.result_path)
        assert payload["error"]["type"] == "UnknownWorkloadError"
        # ...but is never mistaken for a usable checkpoint.
        assert "stats" not in payload

    def test_failed_unit_is_retried_on_the_next_run(self, trace_file,
                                                    tmp_path):
        """A stale error document must not poison later runs: once
        the cause is fixed, re-submitting the unit re-executes it
        (the 'a later rerun recomputes it' contract)."""
        moved = tmp_path / "not-there-yet.rtrc"
        unit = WorkUnit.for_trace(
            "flaky", moved, config_to_dict(PAPER_4WIDE_PERFECT),
            tmp_path / "flaky.json")
        queue_dir = tmp_path / "queue"
        with pytest.raises(UnitExecutionError):
            DirectoryQueueBackend(
                queue_dir, workers=1, poll_seconds=0.02,
                timeout=120).run_units([unit])
        assert "error" in load_unit_result(unit.result_path)
        # The transient cause goes away (the trace appears)...
        moved.write_bytes(Path(trace_file).read_bytes())
        # ...and a rerun recomputes instead of replaying the error.
        results = DirectoryQueueBackend(
            queue_dir, workers=1, poll_seconds=0.02,
            timeout=120).run_units([unit])
        assert "stats" in results["flaky"]
        assert load_unit_result(unit.result_path) == results["flaky"]

    def test_coordinator_timeout_when_no_workers(self, trace_file,
                                                 tmp_path):
        backend = DirectoryQueueBackend(
            tmp_path / "queue", workers=0, poll_seconds=0.02,
            timeout=0.3)
        with pytest.raises(ExecError, match="no unit completed"):
            backend.run_units([make_unit(trace_file, tmp_path)])

    def test_live_lease_defers_the_timeout(self, trace_file,
                                           tmp_path):
        """A heartbeaten lease proves a worker is alive: a unit
        slower than --queue-timeout must not abort the run."""
        import threading
        paths = queue_paths(tmp_path / "queue")
        unit = make_unit(trace_file, tmp_path, rob=16)
        enqueue(paths, unit)
        lease = claim_next(paths)  # a live (fresh) worker's claim
        assert lease is not None

        def slow_worker():
            time.sleep(0.8)  # well past the 0.2s timeout below
            execute_unit(unit)

        thread = threading.Thread(target=slow_worker)
        thread.start()
        try:
            backend = DirectoryQueueBackend(
                tmp_path / "queue", workers=0, poll_seconds=0.02,
                timeout=0.2, lease_seconds=60)
            results = backend.run_units([unit])
        finally:
            thread.join()
        assert "stats" in results["rob16"]

    def test_stale_result_for_different_spec_not_revived(
            self, trace_file, tmp_path):
        """A result file produced by a *different* unit at the same
        path (same id, different spec) must be recomputed, not
        reused — reusing it would break the bit-identical contract
        with the serial backend."""
        stale = make_unit(trace_file, tmp_path, rob=8, uid="point")
        execute_unit(stale)  # rob=8 statistics now live at the path
        fresh = make_unit(trace_file, tmp_path, rob=64, uid="point")
        queued = DirectoryQueueBackend(
            tmp_path / "queue", workers=1, poll_seconds=0.02,
            timeout=120).run_units([fresh])
        reference = SerialBackend().run_units(
            [make_unit(trace_file, tmp_path / "ref", rob=64,
                       uid="point")])
        assert queued["point"]["stats"] == \
            reference["point"]["stats"]
        assert queued["point"]["config"]["rob_entries"] == 64

    def test_worker_recomputes_mismatched_result(self, trace_file,
                                                 tmp_path):
        """Same guard on the worker side: an existing result is only
        honored when it matches the claimed unit exactly."""
        stale = make_unit(trace_file, tmp_path, rob=8, uid="point")
        execute_unit(stale)
        fresh = make_unit(trace_file, tmp_path, rob=64, uid="point")
        paths = queue_paths(tmp_path / "queue")
        enqueue(paths, fresh)
        assert run_worker(paths.root, exit_when_drained=True,
                          poll_seconds=0.02) == 1
        payload = load_unit_result(fresh.result_path)
        assert payload["config"]["rob_entries"] == 64

    def test_result_matches_unit_gates_on_identity(self, trace_file,
                                                   tmp_path):
        from repro.exec.unit import result_matches_unit
        unit = make_unit(trace_file, tmp_path, rob=16)
        payload = execute_unit(unit)
        assert result_matches_unit(payload, unit)
        assert not result_matches_unit(None, unit)
        assert not result_matches_unit(
            payload, make_unit(trace_file, tmp_path, rob=8,
                               uid="rob16"))
        other_tags = WorkUnit(unit_id=unit.unit_id, spec=unit.spec,
                              result_path=unit.result_path,
                              tags={"sweep": {"workload": "bzip2"}})
        assert not result_matches_unit(payload, other_tags)

    def test_reusable_result_is_a_matching_success(self, trace_file,
                                                   tmp_path):
        from repro.exec.unit import (
            atomic_write_json, error_document, reusable_result)
        unit = make_unit(trace_file, tmp_path, rob=16)
        assert reusable_result(unit) is None  # nothing written yet
        payload = execute_unit(unit)
        assert reusable_result(unit) == payload
        foreign = make_unit(trace_file, tmp_path, rob=8, uid="rob16")
        assert reusable_result(foreign) is None
        atomic_write_json(unit.result_path,
                          error_document(unit, RuntimeError("boom")))
        assert load_unit_result(unit.result_path) is not None
        assert reusable_result(unit) is None

    def test_unreadable_descriptor_abandoned_not_counted(
            self, tmp_path):
        paths = queue_paths(tmp_path / "queue")
        (paths.pending / "garbage.json").write_text("{not json")
        assert run_worker(paths.root, exit_when_drained=True,
                          poll_seconds=0.02) == 0
        assert (paths.done / "garbage.json").exists()
        assert not list(paths.pending.glob("*.json"))

    def test_reusable_across_drains(self, trace_file, tmp_path):
        """One backend instance serves batch after batch (the shape
        adaptive search uses)."""
        backend = DirectoryQueueBackend(
            tmp_path / "queue", workers=1, poll_seconds=0.02,
            timeout=120)
        first = backend.run_units(
            [make_unit(trace_file, tmp_path, rob=8)])
        second = backend.run_units(
            [make_unit(trace_file, tmp_path, rob=16)])
        assert set(first) == {"rob8"}
        assert set(second) == {"rob16"}


# -- sharded execution ------------------------------------------------

from repro.exec import (  # noqa: E402  (grouped with their tests)
    EXACT_SUM_COUNTERS,
    SliceReducer,
    merge_slice_documents,
    plan_shards,
    slice_units,
)
from repro.trace.fileio import read_segment_table  # noqa: E402
from repro.trace.fileio import iter_trace_records  # noqa: E402


@pytest.fixture(scope="module")
def segmented_trace(tmp_path_factory):
    """A finely segmented trace the shard planner can actually split."""
    path = tmp_path_factory.mktemp("shard") / "gzip.rtrc"
    write_workload_trace("gzip", PAPER_4WIDE_PERFECT, path,
                         budget=2_000, seed=7, segment_records=64)
    return path


def make_base_unit(trace, out_dir, uid="point") -> WorkUnit:
    return WorkUnit.for_trace(
        uid, trace, config_to_dict(PAPER_4WIDE_PERFECT),
        Path(out_dir) / f"{uid}.json",
        tags={"sweep": {"workload": "gzip"}})


class TestShardPlan:
    def test_ranges_partition_the_segment_table(self, segmented_trace):
        table = read_segment_table(segmented_trace)
        plan = plan_shards(segmented_trace, 4)
        assert plan.count == 4
        assert plan.ranges[0][0] == 0
        assert plan.ranges[-1][1] == len(table)
        for (_, hi), (lo, _) in zip(plan.ranges, plan.ranges[1:], strict=False):
            assert hi == lo  # contiguous, no gap, no overlap
        assert plan.total_records == sum(s.record_count for s in table)

    def test_boundaries_are_clean(self, segmented_trace):
        """Every shard must open on the correct path — a boundary
        cutting a branch from its wrong-path block would lose the
        misprediction signal."""
        table = read_segment_table(segmented_trace)
        plan = plan_shards(segmented_trace, 5)
        for lo, _ in plan.ranges[1:]:
            first = next(iter_trace_records(
                segmented_trace, segments=table[lo:lo + 1]))
            assert not first.tag, f"shard boundary {lo} is dirty"

    def test_shards_balanced_by_records(self, segmented_trace):
        plan = plan_shards(segmented_trace, 4)
        ideal = plan.total_records / 4
        for count in plan.records:
            # Clean snapping moves cuts by about a segment, no more.
            assert abs(count - ideal) <= 3 * 64

    def test_more_shards_than_segments_clamps(self, segmented_trace):
        table = read_segment_table(segmented_trace)
        plan = plan_shards(segmented_trace, 10_000)
        assert plan.count <= len(table)
        assert all(count > 0 for count in plan.records)

    def test_single_shard_and_bad_count(self, segmented_trace):
        plan = plan_shards(segmented_trace, 1)
        assert plan.count == 1
        with pytest.raises(ExecError, match="shards must be >= 1"):
            plan_shards(segmented_trace, 0)

    def test_v1_trace_is_one_pseudo_segment(self, tmp_path):
        from repro.trace.fileio import write_trace_file
        from repro.workloads.tracegen import generate_workload_trace
        generation, start_pc = generate_workload_trace(
            "gzip", PAPER_4WIDE_PERFECT, budget=500, seed=7)
        path = tmp_path / "v1.rtrc"
        write_trace_file(path, generation.records, version=1)
        plan = plan_shards(path, 4)  # cannot split a v1 payload
        assert plan.count == 1


class TestShardPlanAdversarial:
    """Boundary snapping against traces *built* to have dirty
    stretches exactly where the record-balanced cuts want to land.

    Regression for the planner's forward-only boundary scan: one long
    dirty stretch used to push a boundary past every later target,
    starving all trailing shards down to single segments."""

    SEGMENT_RECORDS = 8

    def _tagged_trace(self, directory, dirty, *, segments=16):
        """A v2 trace whose segment ``i`` opens wrong-path (dirty)
        exactly when ``i in dirty`` — the only thing the planner's
        cleanliness probe looks at."""
        from repro.trace.fileio import write_trace_file
        from repro.trace.record import OtherRecord
        records = [
            OtherRecord(tag=(slot == 0 and segment in dirty))
            for segment in range(segments)
            for slot in range(self.SEGMENT_RECORDS)]
        path = Path(directory) / "adversarial.rtrc"
        write_trace_file(path, records,
                         segment_records=self.SEGMENT_RECORDS)
        return path

    def _assert_boundaries_clean(self, plan, dirty):
        for lo, _ in plan.ranges[1:]:
            assert lo not in dirty, f"boundary {lo} is dirty"

    def test_dirty_stretch_does_not_starve_trailing_shards(
            self, tmp_path):
        # Targets for 4 shards over 16 uniform segments: 4, 8, 12.
        # Segments 4..11 are dirty; the nearest-in-either-direction
        # search lands 3 / 12 / 13, keeping four shards alive.  The
        # old forward-only scan slid the first boundary to 12 and
        # left every trailing shard a single segment.
        dirty = set(range(4, 12))
        plan = plan_shards(self._tagged_trace(tmp_path, dirty), 4)
        assert plan.ranges == ((0, 3), (3, 12), (12, 13), (13, 16))
        self._assert_boundaries_clean(plan, dirty)

    def test_all_dirty_interior_collapses_to_one_shard(self, tmp_path):
        # No clean cut exists at all: merging into one shard is the
        # only sound plan (never an empty or dirty-opening shard).
        dirty = set(range(1, 16))
        plan = plan_shards(self._tagged_trace(tmp_path, dirty), 4)
        assert plan.ranges == ((0, 16),)

    @given(data=st.data(),
           shards=st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_boundaries_are_nearest_clean_cuts(self, data, shards,
                                               tmp_path_factory):
        """Property: every chosen boundary is clean, respects the
        previous boundary's floor, and no *closer* admissible clean
        segment to the record-balanced target exists (the
        nearest-in-either-direction contract)."""
        segments = data.draw(st.integers(min_value=4, max_value=24))
        dirty = data.draw(st.sets(
            st.integers(min_value=1, max_value=segments - 1)))
        trace = self._tagged_trace(
            tmp_path_factory.mktemp("adv"), dirty, segments=segments)
        plan = plan_shards(trace, shards)
        assert plan.ranges[0][0] == 0
        assert plan.ranges[-1][1] == segments
        assert all(hi > lo for lo, hi in plan.ranges)
        self._assert_boundaries_clean(plan, dirty)
        # Replay the target rule; check nearest-ness of each cut.
        effective = min(shards, segments)
        boundaries = [lo for lo, _ in plan.ranges[1:]]
        previous = 0
        from bisect import bisect_left
        cumulative = [self.SEGMENT_RECORDS * index
                      for index in range(segments + 1)]
        total = cumulative[-1]
        for k in range(1, effective):
            if previous + 1 > segments - 1 or not boundaries:
                break
            target = (total * k) // effective
            candidate = min(max(bisect_left(cumulative, target),
                                previous + 1), segments - 1)
            admissible = [index for index in range(previous + 1,
                                                   segments)
                          if index not in dirty]
            if not admissible:
                continue  # planner merged this cut into a neighbor
            chosen = boundaries.pop(0)
            best = min(abs(index - candidate) for index in admissible)
            assert abs(chosen - candidate) == best, (
                f"boundary {chosen} is {abs(chosen - candidate)} "
                f"segments from target {candidate}; a clean cut "
                f"{best} away existed (dirty={sorted(dirty)})")
            previous = chosen
        assert not boundaries, "planner produced unexplained cuts"


class TestShardUnits:
    def test_units_carry_ranges_tags_and_paths(self, segmented_trace,
                                               tmp_path):
        base = make_base_unit(segmented_trace, tmp_path)
        plan = plan_shards(segmented_trace, 3)
        units = slice_units(base, plan)
        assert [u.spec["segments"] for u in units] == \
            [list(span) for span in plan.ranges]
        for index, unit in enumerate(units):
            assert unit.unit_id == f"point.s{index}of3"
            assert unit.tags["shard"] == {
                "index": index, "of": 3, "unit": "point"}
            assert unit.tags["sweep"] == base.tags["sweep"]
            assert unit.result_path.endswith(f"point.s{index}of3.json")
            # Everything else of the spec rides along unchanged.
            rest = {k: v for k, v in unit.spec.items()
                    if k != "segments"}
            assert rest == dict(base.spec)

    def test_already_sharded_unit_refused(self, segmented_trace,
                                          tmp_path):
        base = WorkUnit.for_trace(
            "shard", segmented_trace, "4wide-perfect",
            tmp_path / "s.json", segments=(0, 2))
        with pytest.raises(ExecError, match="already segment"):
            slice_units(base, plan_shards(segmented_trace, 2))

    def test_sharded_result_key_is_reserved(self, tmp_path):
        with pytest.raises(ExecError, match="may not shadow"):
            WorkUnit(unit_id="x", spec={"workload": "gzip"},
                     result_path=str(tmp_path / "x.json"),
                     tags={"sharded": {}})


class TestShardReducer:
    def test_merged_document_matches_monolithic_exact_sums(
            self, segmented_trace, tmp_path):
        base = make_base_unit(segmented_trace, tmp_path)
        monolithic = execute_unit(base)
        plan = plan_shards(segmented_trace, 4)
        reducer = SliceReducer(base, plan)
        for unit in slice_units(base, plan):
            reducer.add(execute_unit(unit))
        assert reducer.complete
        merged = reducer.write()
        for counter in EXACT_SUM_COUNTERS:
            assert merged["stats"][counter] == \
                monolithic["stats"][counter], counter
        # The merged document is checkpoint-shaped: loadable, shard-
        # tagged, carrying the monolithic unit's identity and tags.
        loaded = load_unit_result(base.result_path)
        assert loaded is not None
        assert loaded["unit_id"] == base.unit_id
        assert loaded["spec"] == dict(base.spec)
        assert loaded["sweep"] == base.tags["sweep"]
        assert loaded["sharded"]["shards"] == 4
        assert len(loaded["stats"]["shards"]) == 4

    def test_out_of_order_and_duplicate_adds(self, segmented_trace,
                                             tmp_path):
        base = make_base_unit(segmented_trace, tmp_path, uid="ooo")
        plan = plan_shards(segmented_trace, 2)
        payloads = [execute_unit(u) for u in slice_units(base, plan)]
        reducer = SliceReducer(base, plan)
        reducer.add(payloads[1])  # any order
        with pytest.raises(ExecError, match="not collected yet"):
            reducer.merged()
        reducer.add(payloads[0])
        assert reducer.complete
        with pytest.raises(ExecError, match="duplicate result"):
            reducer.add(payloads[0])

    def test_foreign_and_untagged_payloads_rejected(
            self, segmented_trace, tmp_path):
        base = make_base_unit(segmented_trace, tmp_path, uid="bad")
        plan = plan_shards(segmented_trace, 2)
        reducer = SliceReducer(base, plan)
        with pytest.raises(ExecError, match="no shard tag"):
            reducer.add(execute_unit(base))  # monolithic result
        other_plan_payload = execute_unit(
            slice_units(make_base_unit(segmented_trace, tmp_path,
                                       uid="other"),
                        plan_shards(segmented_trace, 3))[0])
        with pytest.raises(ExecError, match="does not belong"):
            reducer.add(other_plan_payload)
        # Same shard count, different unit: still refused — a shard
        # of another design point must never fold into this one.
        foreign_unit_payload = execute_unit(
            slice_units(make_base_unit(segmented_trace, tmp_path,
                                       uid="foreign"), plan)[0])
        with pytest.raises(ExecError, match="does not belong"):
            reducer.add(foreign_unit_payload)

    def test_merge_refuses_shards_of_different_runs(
            self, segmented_trace, tmp_path):
        """Two shards with equal configs but different run specs
        (budget/seed/trace) describe different experiments; the
        standalone reducer must refuse, not average them."""
        base = make_base_unit(segmented_trace, tmp_path, uid="runa")
        plan = plan_shards(segmented_trace, 2)
        units = slice_units(base, plan)
        good = execute_unit(units[0])
        other = dict(execute_unit(units[1]))
        other_spec = dict(other["spec"])
        other_spec["budget"] = 99_999  # same config, different run
        other["spec"] = other_spec
        with pytest.raises(ExecError, match="different runs"):
            merge_slice_documents([good, other])

    def test_merge_refuses_errors_and_mixed_configs(
            self, segmented_trace, tmp_path):
        base = make_base_unit(segmented_trace, tmp_path, uid="mix")
        plan = plan_shards(segmented_trace, 2)
        units = slice_units(base, plan)
        good = execute_unit(units[0])
        from repro.exec.unit import error_document
        failed = error_document(units[1], ValueError("boom"))
        with pytest.raises(ExecError, match="failed shard"):
            merge_slice_documents([good, failed])
        other_config = replace(PAPER_4WIDE_PERFECT, rob_entries=8)
        foreign = dict(good)
        foreign["config"] = config_to_dict(other_config)
        with pytest.raises(ExecError, match="different design points"):
            merge_slice_documents([good, foreign])
        with pytest.raises(ExecError, match="nothing to merge"):
            merge_slice_documents([])

    def test_standalone_merge_composes_associatively(
            self, segmented_trace, tmp_path):
        """`resim stats merge` semantics: merging merged documents
        flattens provenance, and any grouping yields the same
        statistics."""
        base = make_base_unit(segmented_trace, tmp_path, uid="assoc")
        plan = plan_shards(segmented_trace, 3)
        payloads = [execute_unit(u) for u in slice_units(base, plan)]
        flat = merge_slice_documents(payloads)
        nested = merge_slice_documents(
            [merge_slice_documents(payloads[:2]), payloads[2]])
        assert flat["stats"] == nested["stats"]
        assert len(nested["stats"]["shards"]) == 3


class TestShardedQueueFaultTolerance:
    def test_killed_shard_worker_unit_reclaimed_merge_unchanged(
            self, tmp_path):
        """Satellite: SIGKILL a worker mid-shard; the shard's unit is
        reclaimed and re-run, and the merged point result is
        byte-identical to an undisturbed reduction."""
        trace = tmp_path / "slow.rtrc"
        write_workload_trace("gzip", PAPER_4WIDE_PERFECT, trace,
                             budget=30_000, seed=7,
                             segment_records=2048)
        base = make_base_unit(trace, tmp_path, uid="victim")
        plan = plan_shards(trace, 2)
        units = slice_units(base, plan)
        reference = [execute_unit(unit) for unit in units]
        for unit in units:  # forget the reference runs' files
            Path(unit.result_path).unlink()

        paths = queue_paths(tmp_path / "queue")
        for unit in units:
            assert enqueue(paths, unit)
        worker = _spawn_worker(paths.root)
        try:
            deadline = time.monotonic() + 30
            lease = None
            while lease is None:
                assert time.monotonic() < deadline, \
                    "worker never claimed a shard"
                assert worker.poll() is None, "worker exited early"
                lease = next(
                    iter(paths.leases.glob("victim.s*.json")), None)
                if lease is None:
                    time.sleep(0.005)
            worker.send_signal(signal.SIGKILL)
            worker.wait(timeout=30)
        finally:
            if worker.poll() is None:  # pragma: no cover - cleanup
                worker.kill()
                worker.wait()
        assert lease.exists()  # the kill left a reclaimable claim
        old = time.time() - 120
        os.utime(lease, (old, old))
        processed = run_worker(paths.root, exit_when_drained=True,
                               poll_seconds=0.02, lease_seconds=60)
        assert processed == 2
        reducer = SliceReducer(base, plan)
        for unit in units:
            payload = load_unit_result(unit.result_path)
            assert payload is not None and "error" not in payload
            reducer.add(payload)
        merged = reducer.merged()
        undisturbed = merge_slice_documents(
            reference, unit_id=base.unit_id,
            spec=dict(base.spec), tags=dict(base.tags))
        assert merged == undisturbed
