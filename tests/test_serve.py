"""Campaign-service tests: cache keys, store, memoizing backend,
job manager, and the HTTP service end to end.

The load-bearing assertions mirror the subsystem's contract:

* **key soundness** — two spellings of the same computation produce
  one cache key (property-tested under key reordering and default
  materialization); any engine-version change produces different keys
  and purges foreign entries;
* **memoization** — a cold sweep misses every unit, an identical
  resubmission is served entirely from cache, and the cache-served
  result documents are byte-identical to the simulated ones;
* **service durability** — duplicate in-flight submissions coalesce
  to one job, journaled jobs survive a dead server and resume on the
  next start, and a SIGKILLed ``resim serve`` process recovers its
  queue on restart;
* **protocol hygiene** — malformed specs answer 4xx, unknown jobs
  404, results of unfinished jobs 409.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    SerialBackend,
    WorkUnit,
    execute_unit,
    plan_shards,
    slice_units,
)
from repro.serve import (
    BackgroundServer,
    CacheStore,
    CachingBackend,
    CampaignService,
    CanonError,
    ClientError,
    ServiceClient,
    cache_key,
    canonical_spec,
    trace_digest,
)
from repro.serve.http import MAX_BODY_BYTES
from repro.session import CONFIGS, Simulation
from repro.trace.fileio import write_trace_file

from test_engine_properties import structured_trace

BUDGET = 1200


def workload_spec(*, budget: int = BUDGET, seed: int = 7,
                  config: str = "4wide-perfect") -> dict:
    return Simulation.for_workload(
        "gzip", CONFIGS.get(config), budget=budget, seed=seed
    ).to_spec()


def sweep_request(*, budget: int = BUDGET) -> dict:
    return {"kind": "sweep", "workload": "gzip", "budget": budget,
            "axes": {"rob_entries": [8, 16]}}


# ---------------------------------------------------------------------------
# canon: content-addressed keys


class TestCacheKey:
    def test_key_ignores_spec_key_order(self):
        spec = workload_spec()
        shuffled = dict(reversed(list(spec.items())))
        assert cache_key(spec) == cache_key(shuffled)

    def test_key_ignores_default_materialization(self):
        spec = workload_spec()
        assert cache_key(spec) == cache_key(canonical_spec(spec))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=100, max_value=5000),
           st.integers(min_value=0, max_value=99),
           st.randoms(use_true_random=False))
    def test_key_invariant_under_permutation(self, budget, seed, rng):
        spec = workload_spec(budget=budget, seed=seed)
        items = list(spec.items())
        rng.shuffle(items)
        assert cache_key(dict(items)) == cache_key(spec)

    def test_different_specs_get_different_keys(self):
        assert cache_key(workload_spec(seed=1)) \
            != cache_key(workload_spec(seed=2))

    def test_engine_version_changes_every_key(self):
        spec = workload_spec()
        assert cache_key(spec, engine_version="1.0.0") \
            != cache_key(spec, engine_version="1.0.1")

    def test_trace_file_spec_requires_digest(self, tmp_path):
        trace = tmp_path / "t.rtrc"
        Simulation.for_workload(
            "gzip", CONFIGS.get("4wide-perfect"), budget=BUDGET,
        ).save_trace(trace)
        spec = Simulation.for_trace_file(trace).to_spec()
        with pytest.raises(CanonError, match="digest"):
            cache_key(spec)
        keyed = cache_key(spec, trace_digest=trace_digest(trace))
        assert len(keyed) == 40

    def test_workload_spec_rejects_digest(self):
        with pytest.raises(CanonError, match="no trace file"):
            cache_key(workload_spec(), trace_digest="sha256:00")

    def test_relocated_identical_trace_shares_a_key(self, tmp_path):
        simulation = Simulation.for_workload(
            "gzip", CONFIGS.get("4wide-perfect"), budget=BUDGET)
        a, b = tmp_path / "a" / "t.rtrc", tmp_path / "b" / "t.rtrc"
        for path in (a, b):
            path.parent.mkdir()
            simulation.save_trace(path)
        assert trace_digest(a) == trace_digest(b)
        key_a = cache_key(Simulation.for_trace_file(a).to_spec(),
                          trace_digest=trace_digest(a))
        key_b = cache_key(Simulation.for_trace_file(b).to_spec(),
                          trace_digest=trace_digest(b))
        assert key_a == key_b

    def test_trace_digest_tracks_content(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"\x00" * 64)
        before = trace_digest(path)
        path.write_bytes(b"\x00" * 63 + b"\x01")
        assert trace_digest(path) != before


# ---------------------------------------------------------------------------
# the store


class TestCacheStore:
    KEY = "ab" * 20

    def test_round_trip_and_counters(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.get(self.KEY) is None
        store.put(self.KEY, config={"width": 4}, stats={"cycles": 9})
        entry = store.get(self.KEY)
        assert entry["stats"] == {"cycles": 9}
        assert len(store) == 1
        doc = store.stats_document()
        assert (doc["hits"], doc["misses"], doc["stores"]) == (1, 1, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put(self.KEY, config={}, stats={"cycles": 1})
        store._entry_path(self.KEY).write_text("{not json")
        assert store.get(self.KEY) is None

    def test_engine_version_bump_purges_store(self, tmp_path):
        CacheStore(tmp_path, engine_version="1.0.0").put(
            self.KEY, config={}, stats={"cycles": 1})
        bumped = CacheStore(tmp_path, engine_version="9.9.9")
        assert len(bumped) == 0
        assert bumped.get(self.KEY) is None
        assert bumped.stats_document()["invalidated"] == 1
        # Same version re-opens without purging.
        again = CacheStore(tmp_path, engine_version="9.9.9")
        again.put(self.KEY, config={}, stats={"cycles": 2})
        assert len(CacheStore(tmp_path, engine_version="9.9.9")) == 1


# ---------------------------------------------------------------------------
# the memoizing backend


class _ClosingSerial(SerialBackend):
    """A serial backend that counts its ``close()`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.closes = 0

    def close(self) -> None:
        self.closes += 1


class TestCachingBackend:
    def _units(self, tmp_path, run: str) -> list[WorkUnit]:
        outdir = tmp_path / run
        outdir.mkdir()
        return [
            WorkUnit(unit_id=f"unit-{seed}",
                     spec=workload_spec(seed=seed),
                     result_path=str(outdir / f"unit-{seed}.json"))
            for seed in (1, 2)
        ]

    def test_cold_miss_then_hit_byte_identical(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        cold = CachingBackend(store, SerialBackend())
        cold.run_units(self._units(tmp_path, "cold"))
        assert (cold.hits, cold.misses) == (0, 2)

        warm = CachingBackend(store, SerialBackend())
        warm.run_units(self._units(tmp_path, "warm"))
        assert (warm.hits, warm.misses) == (2, 0)

        for seed in (1, 2):
            cold_bytes = (tmp_path / "cold"
                          / f"unit-{seed}.json").read_bytes()
            warm_bytes = (tmp_path / "warm"
                          / f"unit-{seed}.json").read_bytes()
            assert cold_bytes == warm_bytes

    def test_close_reaches_the_inner_backend(self, tmp_path):
        inner = _ClosingSerial()
        with CachingBackend(CacheStore(tmp_path / "cache"),
                            inner) as caching:
            caching.run_units(self._units(tmp_path, "run"))
        assert inner.closes == 1

    def test_engine_bump_invalidates_and_rekeys(self, tmp_path):
        old_store = CacheStore(tmp_path / "cache",
                               engine_version="1.0.0")
        old = CachingBackend(old_store, SerialBackend())
        old.run_units(self._units(tmp_path, "v1"))
        unit = self._units(tmp_path, "keys")[0]

        new_store = CacheStore(tmp_path / "cache",
                               engine_version="2.0.0")
        new = CachingBackend(new_store, SerialBackend())
        assert new.key_for(unit) != old.key_for(unit)
        new.run_units(self._units(tmp_path, "v2"))
        assert (new.hits, new.misses) == (0, 2)


@settings(max_examples=15, deadline=None)
@given(structured_trace(max_segments=16), st.sampled_from(sorted(CONFIGS)),
       st.integers(min_value=2, max_value=3))
def test_cache_served_documents_equal_fresh_ones(trace, config_name,
                                                 shards):
    """Generated cached ≡ fresh: for a whole-trace unit and its shard
    slices, a cache hit writes the bytes ``execute_unit`` writes."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        path = root / "drawn.rtrc"
        write_trace_file(path, trace, segment_records=4)
        plan = plan_shards(path, shards)

        def units(run: str) -> list[WorkUnit]:
            base = WorkUnit.for_trace(
                "point", path, config_name, root / run / "point.json",
                tags={"sweep": {"workload": "drawn"}})
            return [base, *slice_units(base, plan)]

        fresh = units("fresh")
        for unit in fresh:
            execute_unit(unit)
        store = CacheStore(root / "cache")
        CachingBackend(store, SerialBackend()).run_units(units("cold"))
        warm = CachingBackend(store, SerialBackend())
        served = units("warm")
        warm.run_units(served)
        assert (warm.hits, warm.misses) == (len(served), 0)
        for unit, hit in zip(fresh, served, strict=True):
            assert Path(hit.result_path).read_bytes() \
                == Path(unit.result_path).read_bytes(), unit.unit_id


# ---------------------------------------------------------------------------
# the service: validation, coalescing, durability


class TestCampaignService:
    def test_malformed_requests_rejected(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        try:
            for bad in (
                {"kind": "launch"},
                {"kind": "simulate"},
                {"kind": "simulate", "spec": {"version": 99}},
                {"kind": "sweep", "axes": {}},
                {"kind": "sweep", "axes": {"rob_entries": 8}},
                {"kind": "sweep", "axes": {"rob_entries": [8]},
                 "workload": "doom"},
                {"kind": "sweep", "axes": {"rob_entries": [8]},
                 "budget": "lots"},
                {"kind": "search", "axes": {"rob_entries": [8]},
                 "strategy": "oracle"},
                # Non-positive sizes fail at submission, not mid-job.
                {"kind": "search", "axes": {"rob_entries": [8]},
                 "strategy": "random", "samples": 0},
                {"kind": "search", "axes": {"rob_entries": [8]},
                 "max_steps": -1},
                {"kind": "sweep", "axes": {"rob_entries": [8]},
                 "shards": 0},
                {"kind": "sweep", "axes": {"rob_entries": [8]},
                 "budget": 0},
                {"kind": "sweep", "axes": {"rob_entries": [8]},
                 "budget": -5},
            ):
                with pytest.raises(ValueError):
                    service.validate_request(bad)
        finally:
            service.close()

    def test_equivalent_spellings_coalesce(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        try:
            first, coalesced1 = service.submit(sweep_request())
            # Same computation, different spelling: keys reordered,
            # defaults (seed, config, shards) spelled out.
            spelled = {"workload": "gzip", "seed": 7,
                       "kind": "sweep", "config": "4wide-perfect",
                       "budget": BUDGET, "shards": 1,
                       "axes": {"rob_entries": (8, 16)}}
            second, coalesced2 = service.submit(spelled)
            assert not coalesced1 and coalesced2
            assert second.job_id == first.job_id
            # Different work is NOT coalesced.
            third, coalesced3 = service.submit(
                sweep_request(budget=BUDGET + 100))
            assert not coalesced3 and third.job_id != first.job_id
        finally:
            service.close()

    def test_sampling_is_part_of_the_job_identity(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        try:
            # Full replay normalizes by omission: a pre-sampling
            # submission document is unchanged, so old clients keep
            # coalescing with explicit sampling="full" ones.
            exact = service.validate_request(sweep_request())
            assert "sampling" not in exact
            assert exact == service.validate_request(
                {**sweep_request(), "sampling": "full"})
            sampled = service.validate_request(
                {**sweep_request(), "sampling": "regions",
                 "regions": 4})
            assert sampled["sampling"] == {
                "mode": "regions", "regions": 4, "seed": 0,
                "warmup_segments": 1}
            # An estimate and an exact run are different jobs.
            exact_job, _ = service.submit(sweep_request())
            sampled_job, coalesced = service.submit(
                {**sweep_request(), "sampling": "regions"})
            assert not coalesced
            assert sampled_job.job_id != exact_job.job_id
        finally:
            service.close()

    def test_sampling_request_validation(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        try:
            for bad in (
                {**sweep_request(), "sampling": "nearest"},
                {**sweep_request(), "sampling": "regions",
                 "shards": 2},
                {**sweep_request(), "sampling": "regions",
                 "regions": "many"},
            ):
                with pytest.raises(ValueError):
                    service.validate_request(bad)
        finally:
            service.close()

    def test_terminal_jobs_do_not_coalesce(self, tmp_path):
        service = CampaignService(tmp_path)
        try:
            job, _ = service.submit(sweep_request())
            service.manager.wait(job.job_id, timeout=120)
            assert job.state == "done"
            again, coalesced = service.submit(sweep_request())
            assert not coalesced and again.job_id != job.job_id
        finally:
            service.close()

    def test_each_job_closes_its_backend(self, tmp_path, monkeypatch):
        backends = []

        def make(workers):
            backends.append(_ClosingSerial())
            return backends[-1]

        monkeypatch.setattr("repro.serve.app.default_backend", make)
        service = CampaignService(tmp_path)
        try:
            for request in (sweep_request(),
                            {"kind": "simulate", "spec": workload_spec()}):
                job, _ = service.submit(request)
                assert service.manager.wait(
                    job.job_id, timeout=120).state == "done"
        finally:
            service.close()
        assert [backend.closes for backend in backends] == [1, 1]

    def test_journaled_jobs_resume_after_dead_server(self, tmp_path):
        # Server #1 journals a submission but dies before running it
        # (autostart=False stands in for the crash window); #2 also
        # leaves a job journaled mid-"running".
        dead = CampaignService(tmp_path, autostart=False)
        job, _ = dead.submit(sweep_request())
        journal = dead.manager._journal_path(job.job_id)
        dead.close()
        entry = json.loads(journal.read_text())
        assert entry["state"] == "queued"
        entry["state"] = "running"  # died mid-execution
        journal.write_text(json.dumps(entry, sort_keys=True))

        revived = CampaignService(tmp_path)
        try:
            recovered = revived.manager.wait(job.job_id, timeout=120)
            assert recovered.state == "done"
            document = revived.manager.result_document(job.job_id)
            assert document["kind"] == "sweep"
            assert len(document["sweep"]["outcomes"]) == 2
        finally:
            revived.close()

    def test_cancel_before_start_is_cancelled(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        try:
            job, _ = service.submit(sweep_request())
            service.manager.cancel(job.job_id)
            service.start()
            assert service.manager.wait(
                job.job_id, timeout=30).state == "cancelled"
        finally:
            service.close()


# ---------------------------------------------------------------------------
# HTTP end to end


class TestHttpService:
    def test_submit_twice_second_run_is_all_cache_hits(self, tmp_path):
        service = CampaignService(tmp_path)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            assert client.health()["ok"] is True

            first = client.submit(sweep_request())
            assert first["coalesced"] is False
            client.wait(first["job_id"])
            cold = client.result(first["job_id"])
            assert cold["cache"] == {"hits": 0, "misses": 2}

            second = client.submit(sweep_request())
            assert second["job_id"] != first["job_id"]
            client.wait(second["job_id"])
            warm = client.result(second["job_id"])
            assert warm["cache"] == {"hits": 2, "misses": 0}

            # The acceptance bar: byte-identical result documents.
            assert json.dumps(cold["result"], sort_keys=True) \
                == json.dumps(warm["result"], sort_keys=True)

            stats = client.cache_stats()
            assert stats["entries"] == 2
            assert stats["stores"] == 2

    def test_events_stream_reports_cache_verdicts(self, tmp_path):
        service = CampaignService(tmp_path)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            job_id = client.submit(sweep_request())["job_id"]
            events = []
            client.wait(job_id, on_event=events.append)
            kinds = [event.get("event") for event in events]
            assert kinds.count("cache") == 2
            assert kinds.count("point") == 2
            assert kinds[-1] == "state"
            assert events[-1]["state"] == "done"
            assert [event["seq"] for event in events] \
                == sorted(event["seq"] for event in events)

    def test_protocol_errors(self, tmp_path):
        service = CampaignService(tmp_path, autostart=False)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            with pytest.raises(ClientError) as bad_kind:
                client.submit({"kind": "launch"})
            assert bad_kind.value.status == 400
            with pytest.raises(ClientError) as bad_spec:
                client.submit({"kind": "simulate",
                               "spec": {"version": 99}})
            assert bad_spec.value.status == 400
            with pytest.raises(ClientError) as misspelled:
                client.submit({**sweep_request(), "budjet": 10})
            assert misspelled.value.status == 400
            assert "'budjet'" in str(misspelled.value)
            assert client.jobs() == []
            with pytest.raises(ClientError) as missing:
                client.status("job-999999")
            assert missing.value.status == 404
            job_id = client.submit(sweep_request())["job_id"]
            with pytest.raises(ClientError) as unfinished:
                client.result(job_id)  # queued: no result yet
            assert unfinished.value.status == 409

    def test_second_server_cannot_share_a_port(self, tmp_path):
        """Two servers on one port would run one root's journaled
        queue twice; the second bind must fail."""
        first = CampaignService(tmp_path / "first", autostart=False)
        with BackgroundServer(first) as server:
            second = CampaignService(tmp_path / "second",
                                     autostart=False)
            try:
                with pytest.raises(OSError):
                    BackgroundServer(second, port=server.address[1])
            finally:
                second.close()

    def test_connection_burst_is_not_dropped(self, tmp_path):
        """Forty clients connecting at once all get in without a SYN
        retry (the kernel's first one waits a whole second), so the
        listen backlog holds a burst."""
        import threading

        service = CampaignService(tmp_path, autostart=False)
        latencies = []
        with BackgroundServer(service) as server:
            start = threading.Barrier(40)

            def call():
                client = ServiceClient(*server.address)
                start.wait()
                began = time.perf_counter()
                client.health()
                latencies.append(time.perf_counter() - began)

            callers = [threading.Thread(target=call) for _ in range(40)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join()
        assert len(latencies) == 40
        assert max(latencies) < 1.0, max(latencies)

    def test_http_error_contract(self, tmp_path):
        """Raw-socket requests the client never sends: each error
        answers a status line and a JSON object with an ``error``
        string, and no route accepts a method it does not serve."""

        def exchange(address, raw: bytes) -> tuple[int, dict]:
            with socket.create_connection(address, timeout=30) as conn:
                conn.sendall(raw)
                answer = b""
                while chunk := conn.recv(65536):
                    answer += chunk
            head, _, body = answer.partition(b"\r\n\r\n")
            status_line = head.split(b"\r\n", 1)[0].decode()
            assert re.fullmatch(r"HTTP/1\.[01] \d{3} .*", status_line), \
                answer
            document = json.loads(body)
            assert isinstance(document, dict)
            assert isinstance(document.get("error"), str), document
            return int(status_line.split()[1]), document

        def request(address, method: str, path: str, body: bytes = b"",
                    headers: str = "") -> int:
            if body and "Content-Length" not in headers:
                headers += f"Content-Length: {len(body)}\r\n"
            raw = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                   f"{headers}\r\n").encode() + body
            return exchange(address, raw)[0]

        service = CampaignService(tmp_path, autostart=False)
        with BackgroundServer(service) as server:
            address = server.address
            assert exchange(address, b"BOGUS\r\n\r\n")[0] == 400
            assert exchange(
                address, b"GET /v1/health NOTHTTP\r\n\r\n")[0] == 400
            for method in ("PUT", "DELETE"):
                for path in ("/v1/jobs", "/v1/health"):
                    assert request(address, method, path,
                                   b"{}") == 405, (method, path)
            job_id = ServiceClient(*address).submit(
                sweep_request())["job_id"]
            assert request(address, "GET",
                           f"/v1/jobs/{job_id}/cancel") == 405
            too_big = f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
            assert request(address, "POST", "/v1/jobs",
                           headers=too_big) == 413
            assert request(address, "POST", "/v1/jobs", b"{x") == 400
            assert request(address, "POST", "/v1/jobs", b"[1]") == 400
            assert request(address, "POST", "/v1/jobs",
                           headers="Content-Length: abc\r\n") == 400
            assert request(address, "GET", "/v2/x") == 404
            assert request(address, "GET",
                           f"/v1/jobs/{job_id}/events?after=x") == 400
            assert [job["job_id"] for job in
                    ServiceClient(*address).jobs()] == [job_id]

    @pytest.mark.parametrize("key, value", [
        ("budget", 0), ("budget", "500"), ("budget", 500.5),
        ("budget", True), ("update_predictor_at_commit", "false"),
        ("warmup_instructions", -1), ("roi_instructions", 0),
        ("max_cycles", 0),
    ])
    def test_ill_typed_simulate_spec_answers_400_naming_the_key(
            self, tmp_path, key, value):
        """A spec value its row's check refuses fails at submission,
        as a refused campaign field does, never coerced or mid-job."""
        service = CampaignService(tmp_path, autostart=False)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            with pytest.raises(ClientError) as refused:
                client.submit({"kind": "simulate",
                               "spec": {"workload": "gzip", key: value}})
            assert refused.value.status == 400
            error = str(refused.value).split("): ", 1)[1]
            assert error.startswith(f"{key} must be "), error
            assert client.jobs() == []

    def test_simulate_round_trip_matches_direct_run(self, tmp_path):
        service = CampaignService(tmp_path)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            answer = client.submit({"kind": "simulate",
                                    "spec": workload_spec()})
            client.wait(answer["job_id"])
            served = client.result(answer["job_id"])["result"]
            from repro.serialize import stats_to_dict
            direct = Simulation.for_workload(
                "gzip", CONFIGS.get("4wide-perfect"),
                budget=BUDGET, seed=7).run()
            assert served["stats"] == stats_to_dict(direct.stats)

    def test_sampled_simulate_needs_a_trace_file(self, tmp_path):
        """Answers 400 with the message ``resim simulate
        --sample-regions`` exits with on a workload."""
        from repro.cli import main
        with pytest.raises(SystemExit) as cli_exit:
            main(["simulate", "gzip", "--sample-regions", "2"])
        service = CampaignService(tmp_path, autostart=False)
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            with pytest.raises(ClientError) as refused:
                client.submit({"kind": "simulate",
                               "spec": workload_spec(),
                               "sampling": "regions", "regions": 2})
            assert refused.value.status == 400
            assert str(refused.value).split("): ", 1)[1] \
                == cli_exit.value.code
            with pytest.raises(ClientError) as unknown:
                client.submit({"kind": "simulate",
                               "spec": workload_spec(), "shards": 2})
            assert unknown.value.status == 400
            assert "'shards'" in str(unknown.value)
            assert client.jobs() == []

    def test_sampled_simulate_is_a_marked_estimate(self, tmp_path):
        """A served sampled simulate reports the ``sampled`` marker of
        its merged document, never the exact run's ``cache_key``; a
        resubmission is served from the cache, region by region."""
        from repro.cli import main
        from repro.exec import plan_regions
        from repro.trace import ensure_profile
        trace = tmp_path / "gzip.rtrc"
        assert main(["trace", "gzip", str(trace), "--budget", "3000",
                     "--segment-records", "256"]) == 0
        spec = {"trace_file": str(trace)}
        request = {"kind": "simulate", "spec": spec,
                   "sampling": "regions", "regions": 3}
        plan = plan_regions(trace, ensure_profile(trace), regions=3)
        service = CampaignService(tmp_path / "root")
        try:
            results = []
            for _ in range(2):
                job, _ = service.submit(request)
                service.manager.wait(job.job_id, timeout=120)
                assert job.state == "done", job.error
                results.append(
                    service.manager.result_document(job.job_id))
                assert (job.cache_hits, job.cache_misses) == \
                    ((0, plan.count) if len(results) == 1
                     else (plan.count, 0))
            exact, _ = service.submit({"kind": "simulate", "spec": spec})
            service.manager.wait(exact.job_id, timeout=120)
            exact_result = service.manager.result_document(exact.job_id)
        finally:
            service.close()
        cold, warm = results
        assert cold == warm
        assert cold["sampled"] == {"regions": plan.count,
                                   "segments": plan.total_segments}
        assert "cache_key" not in cold
        assert "sampled" not in exact_result
        assert exact_result["stats"] != cold["stats"]

    def test_cache_document_reports_a_region_plan_hit(self, tmp_path):
        """Two served sampled simulates over one trace cluster it once:
        ``GET /v1/cache`` reports the second job's plan as a hit of
        the process-wide memo, and no result document carries memo
        counts."""
        from repro.cli import main
        from repro.exec.regions import clear_plan_cache
        trace = tmp_path / "gzip.rtrc"
        assert main(["trace", "gzip", str(trace), "--budget", "3000",
                     "--segment-records", "256"]) == 0
        request = {"kind": "simulate", "spec": {"trace_file": str(trace)},
                   "sampling": "regions", "regions": 3}
        clear_plan_cache()
        service = CampaignService(tmp_path / "root")
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            plans = []
            for _ in range(2):
                job_id = client.submit(request)["job_id"]
                client.wait(job_id)
                assert "memos" not in client.result(job_id)["result"]
                plans.append(client.cache_stats()["memos"]["region plans"])
        assert (plans[0]["hits"], plans[0]["misses"]) == (0, 1)
        assert (plans[1]["hits"], plans[1]["misses"]) == (1, 1)

    def test_spec_hash_prints_the_served_cache_key(self, tmp_path,
                                                   capsys):
        """``resim spec hash`` prints the key a served simulate job of
        the same spec reports, for a workload and a trace-file spec."""
        from repro.cli import main
        trace = tmp_path / "gzip.rtrc"
        assert main(["trace", "gzip", str(trace), "--budget",
                     str(BUDGET)]) == 0
        specs = [workload_spec(), {"trace_file": str(trace)}]
        service = CampaignService(tmp_path / "root")
        with BackgroundServer(service) as server:
            client = ServiceClient(*server.address)
            for index, spec in enumerate(specs):
                answer = client.submit({"kind": "simulate", "spec": spec})
                client.wait(answer["job_id"])
                served = client.result(answer["job_id"])["result"]
                saved = tmp_path / f"spec{index}.json"
                saved.write_text(json.dumps(spec))
                capsys.readouterr()
                assert main(["spec", "hash", "--file", str(saved)]) == 0
                assert capsys.readouterr().out.strip() \
                    == served["cache_key"]


# ---------------------------------------------------------------------------
# process-level durability: SIGKILL the server, restart, resume


class TestServerKillRestart:
    def _spawn(self, root: Path, port: int = 0) -> tuple:
        repo = Path(__file__).resolve().parents[1]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(root),
             "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=repo,
            env={**os.environ, "PYTHONPATH": str(repo / "src")})
        line = process.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, f"no listen line from resim serve: {line!r}"
        return process, int(match.group(1))

    def test_sigkilled_server_resumes_journal_on_restart(
            self, tmp_path):
        root = tmp_path / "root"
        process, port = self._spawn(root)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=30)
            job_id = client.submit(
                sweep_request(budget=6000))["job_id"]
        finally:
            process.kill()
            process.wait(timeout=30)

        process, port = self._spawn(root)
        try:
            client = ServiceClient("127.0.0.1", port, timeout=120)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                state = client.status(job_id)["state"]
                if state in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.25)
            assert state == "done"
            result = client.result(job_id)
            assert len(result["result"]["sweep"]["outcomes"]) == 2
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
