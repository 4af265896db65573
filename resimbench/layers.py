"""Per-layer metrics: direct, timed calls into each layer's public
functions, made from the benchmark's own files on the inputs of the
workload that just ran.

:data:`LAYER_METRICS` says, for every metric, which end-to-end metric
on which workload it is expected to move; the traced run prints that
beside each value.  Rates are medians over a few repetitions; the
ratios (coverage, fallback share, hit ratio, IPC error) are
deterministic for a given seed.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from pathlib import Path

from repro.core.specialize import SpecializedEngine, clear_codegen_cache
from repro.exec import (
    ProcessPoolBackend,
    WorkUnit,
    execute_unit,
    merge_region_documents,
    plan_regions,
    region_units,
)
from repro.serialize import (
    canonical_json,
    config_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.serve import (
    BackgroundServer,
    CacheStore,
    CampaignService,
    ServiceClient,
)
from repro.serve.canon import cache_key, trace_digest
from repro.session import Simulation
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.trace.analyze import analyze_trace
from repro.trace.fileio import (
    iter_trace_records,
    read_segment_table,
    read_trace_header,
    write_trace_file,
)
from repro.trace.source import FileSource
from repro.workloads.tracegen import write_workload_trace

from spans import Tracer
from workloads import GRID, CountingQueueBackend, Workload

#: metric -> (unit, better, the end-to-end metric it should move).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "trace.decode_rps": (
        "1/s", "higher",
        "simulate-trace wall_s and sim_ips, sweep-queue wall_s"),
    "trace.decode_v1_rps": (
        "1/s", "higher", "none: regression guard for v1 files"),
    "trace.source_rps": ("1/s", "higher", "simulate-trace wall_s"),
    "trace.analyze_s": ("s", "lower", "sweep-regions wall_s"),
    "exec.regions.plan_s": ("s", "lower", "sweep-regions wall_s"),
    "exec.regions.coverage": (
        "ratio", "lower", "sweep-regions wall_s (records executed / "
        "total)"),
    "exec.regions.ipc_error_pct": (
        "%", "lower", "none: accuracy of region sampling on this "
        "workload's trace"),
    "core.engine_reference_rps": (
        "1/s", "higher", "simulate-trace wall_s and sim_ips (default "
        "tier)"),
    "core.engine_specialized_rps": (
        "1/s", "higher", "sweep-queue and sweep-regions wall_s"),
    "core.codegen_s": ("s", "lower", "sweep-queue wall_s"),
    "core.tier_fallback_frac": (
        "ratio", "lower", "sweep-queue and sweep-regions wall_s "
        "(units that ran another tier than requested)"),
    "core.merge_s": ("s", "lower", "sweep-regions wall_s"),
    "core.merge_weighted_s": ("s", "lower", "sweep-regions wall_s"),
    "serialize.stats_to_dict_s": (
        "s", "lower", "sweep-* wall_s and warm_job_s"),
    "serialize.canonical_json_s": (
        "s", "lower", "sweep-* wall_s and warm_job_s"),
    "exec.unit_overhead_s": ("s", "lower", "sweep-* wall_s"),
    "exec.backend_wait_s": (
        "s", "lower", "sweep-queue and sweep-regions wall_s"),
    "workloads.tracegen_rps": (
        "1/s", "higher", "setup_s on every workload"),
    # The campaign service has no end-to-end workload (it could not be
    # made steady on 2 cores); these layers are timed on a probe server.
    "sweep.trace_prepare_s": (
        "s", "lower", "none here: every resim serve job regenerates its "
        "trace this way"),
    "serve.cache_key_s": (
        "s", "lower", "none here: resim serve cache-served jobs"),
    "serve.cache_get_s": (
        "s", "lower", "none here: resim serve cache-served jobs"),
    "serve.cache_hit_ratio": (
        "ratio", "higher", "none here: resim serve cache-served jobs"),
    "serve.http_roundtrip_s": (
        "s", "lower", "none here: every resim serve request"),
    "serve.job_start_wait_s": (
        "s", "lower", "none here: every resim serve job"),
    "bench.trace_overhead_frac": (
        "ratio", "lower", "none: cost of the span wrappers on one "
        "round"),
}


def _seconds(function: Callable[[], object], repeats: int,
             batch: int = 1) -> float:
    """Median seconds of one call over ``repeats`` timed batches."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            function()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def _drain_file(path: Path) -> int:
    return sum(1 for _ in iter_trace_records(path))


def _drain_source(path: Path) -> int:
    source = FileSource(path)
    count = 0
    while source.peek() is not None:
        source.next()
        count += 1
    return count


def measure(workload: Workload, scratch: Path,
            overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric for ``workload`` (after its rounds)."""
    oracle = workload.oracle
    path = workload.trace_path
    config = workload.config
    config_dict = config_to_dict(config)
    header = read_trace_header(path)
    start_pc = header.metadata.get("start_pc")
    segments = len(read_segment_table(path))
    records = list(iter_trace_records(path))
    values: dict[str, float] = {"bench.trace_overhead_frac": overhead_frac}

    # -- trace: decode and the streaming cursor ------------------------
    values["trace.decode_rps"] = len(records) / _seconds(
        lambda: _drain_file(path), 3)
    v1_path = scratch / "v1.rtrc"
    write_trace_file(v1_path, records, version=1)
    values["trace.decode_v1_rps"] = len(records) / _seconds(
        lambda: _drain_file(v1_path), 3)
    values["trace.source_rps"] = len(records) / _seconds(
        lambda: _drain_source(path), 3)

    # -- profiling and region planning --------------------------------
    profile = analyze_trace(path)
    values["trace.analyze_s"] = _seconds(lambda: analyze_trace(path), 2)
    plan = plan_regions(path, profile)
    values["exec.regions.plan_s"] = _seconds(
        lambda: plan_regions(path, profile), 3)
    values["exec.regions.coverage"] = plan.coverage

    # -- engine tiers on records decoded beforehand --------------------
    def run_tier(engine: str):
        return Simulation.for_records(
            records, config, start_pc=start_pc).with_engine(engine).run()

    clear_codegen_cache()
    values["core.codegen_s"] = _seconds(
        lambda: (clear_codegen_cache(), SpecializedEngine(config, records)),
        3)
    reference, reference_s = _timed(lambda: run_tier("reference"))
    specialized = run_tier("specialized")
    values["core.engine_reference_rps"] = len(records) / reference_s
    values["core.engine_specialized_rps"] = len(records) / _seconds(
        lambda: run_tier("specialized"), 2)
    oracle.check(
        stats_to_dict(reference.stats) == stats_to_dict(specialized.stats),
        "specialized tier diverged from the reference tier")

    # -- region sampling accuracy on this trace ------------------------
    base = WorkUnit.for_trace("probe-regions", path, config_dict,
                              scratch / "regions" / "point.json",
                              start_pc=start_pc)
    merged = merge_region_documents(
        [execute_unit(unit) for unit in region_units(base, plan)])
    exact_ipc = reference.stats.ipc
    values["exec.regions.ipc_error_pct"] = 100.0 * abs(
        stats_from_dict(merged["stats"]).ipc - exact_ipc) / exact_ipc

    # -- tier the units of the last round actually ran -----------------
    documents = workload.unit_documents()
    oracle.check(bool(documents), "no unit documents to probe")
    differs = 0
    for document in documents:
        spec = document["spec"]
        simulation = Simulation.from_spec(spec)
        if workload.unit_observers():
            simulation = simulation.with_observer(
                *workload.unit_observers())
        engine = simulation.build_engine()
        differs += (getattr(engine, "tier", "reference")
                    != spec.get("engine", "reference"))
    values["core.tier_fallback_frac"] = differs / max(1, len(documents))

    # -- statistics merge and serialization ----------------------------
    parts = [stats_from_dict(document["stats"]) for document in documents]
    weights = [document.get("region", {}).get("weight", 1)
               for document in documents]
    if len(parts) < 2:
        parts, weights = parts * 8, weights * 8
    values["core.merge_s"] = _seconds(
        lambda: parts[0].merge(parts[1:]), 9, batch=5)
    values["core.merge_weighted_s"] = _seconds(
        lambda: parts[0].merge(parts[1:], weights=weights), 9, batch=5)
    values["serialize.stats_to_dict_s"] = _seconds(
        lambda: stats_to_dict(parts[0]), 9, batch=50)
    values["serialize.canonical_json_s"] = _seconds(
        lambda: canonical_json(documents[0]), 9, batch=50)

    # -- execution layer -----------------------------------------------
    values["exec.unit_overhead_s"] = _unit_overhead(
        path, config_dict, start_pc, scratch)
    values["exec.backend_wait_s"] = _backend_wait(
        workload, path, config_dict, start_pc, min(4, segments), scratch)

    # -- trace generation and sweep trace preparation ------------------
    generated = scratch / "generated.rtrc"

    def generate():
        return write_workload_trace(
            workload.profile, config, generated, budget=4_000,
            seed=workload.gen_seed,
            segment_records=workload.segment_records).record_count

    values["workloads.tracegen_rps"] = generate() / _seconds(generate, 2)
    runner = SweepRunner(
        SweepSpec(axes=GRID, base=config), workload.profile,
        results_dir=scratch / "prepare", budget=workload.budget,
        seed=workload.gen_seed, segment_records=workload.segment_records)
    values["sweep.trace_prepare_s"] = _seconds(
        lambda: runner.prepare_trace(config.predictor), 1)

    # -- campaign service: cache and HTTP ------------------------------
    spec = documents[0]["spec"]
    values["serve.cache_key_s"] = _seconds(
        lambda: cache_key(spec, trace_digest=trace_digest(
            spec["trace_file"])), 5)
    key = cache_key(spec, trace_digest=trace_digest(spec["trace_file"]))
    store = CacheStore(scratch / "cache")
    store.put(key, config=config_dict, stats=documents[0]["stats"])
    values["serve.cache_get_s"] = _seconds(lambda: store.get(key), 9,
                                           batch=10)
    values.update(_serve_probes(workload, path, start_pc, scratch))

    missing = set(LAYER_METRICS) - set(values)
    oracle.check(not missing, f"per-layer metrics not measured: {missing}")
    return values


def _timed(function: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start


def _unit_overhead(path: Path, config_dict: dict, start_pc,
                   scratch: Path) -> float:
    """``execute_unit`` time minus the ``Simulation.run`` inside it."""
    unit = WorkUnit.for_trace("probe-unit", path, config_dict,
                              scratch / "unit" / "result.json",
                              segments=(0, 1), start_pc=start_pc)
    samples = []
    for _ in range(3):
        with Tracer(targets=(("repro.session.simulation", "Simulation",
                              "run"),)) as tracer:
            _, total = _timed(lambda: execute_unit(unit))
        inner = sum(span.end - span.start for span in tracer.spans)
        samples.append(total - inner)
    return statistics.median(samples)


def _backend_wait(workload: Workload, path: Path, config_dict: dict,
                  start_pc, count: int, scratch: Path) -> float:
    """Backend wall time minus the serial unit time over 2 workers."""
    def units(tag: str) -> list[WorkUnit]:
        return [WorkUnit.for_trace(
            f"probe-{index}", path, config_dict,
            scratch / tag / f"unit-{index}.json",
            segments=(index, index + 1), start_pc=start_pc)
            for index in range(count)]

    serial = sum(_timed(lambda unit=unit: execute_unit(unit))[1]
                 for unit in units("serial"))
    if workload.backend_kind() == "queue":
        backend = CountingQueueBackend(scratch / "queue", workers=2,
                                       timeout=60)
        try:
            _, wall = _timed(lambda: backend.run_units(units("queue")))
        finally:
            deaths = backend.close_counting_deaths()
        workload.oracle.check(deaths == 0,
                              f"{deaths} queue worker(s) died")
    else:
        _, wall = _timed(
            lambda: ProcessPoolBackend(2).run_units(units("pool")))
    return wall - serial / 2


def _serve_probes(workload: Workload, path: Path, start_pc,
                  scratch: Path) -> dict[str, float]:
    """HTTP round trip, submit-to-start wait and cache hit ratio on a
    probe campaign server: one slice of the trace submitted three
    times, so one cache miss and two hits."""
    service = CampaignService(scratch / "serve", concurrency=1)
    server = BackgroundServer(service).__enter__()
    try:
        client = ServiceClient(*server.address)
        roundtrip = _seconds(client.health, 15)
        spec = {"trace_file": str(path), "config": workload.config_name,
                "segments": [0, 1]}
        if start_pc is not None:
            spec["start_pc"] = start_pc
        waits = []
        for _ in range(3):
            start = time.perf_counter()
            answer = client.submit({"kind": "simulate", "spec": spec})
            started = None
            for event in client.events(answer["job_id"]):
                if started is None and event.get("event") == "start":
                    started = time.perf_counter() - start
            workload.oracle.check(started is not None,
                                  "probe job never started")
            waits.append(started or 0.0)
        store = service.store
        hit_ratio = store.hits / (store.hits + store.misses)
    finally:
        server.__exit__(None, None, None)
        service.close()
    return {"serve.http_roundtrip_s": roundtrip,
            "serve.job_start_wait_s": statistics.median(waits),
            "serve.cache_hit_ratio": hit_ratio}
