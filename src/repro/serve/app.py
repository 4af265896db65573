"""The campaign service: requests → jobs → backends → cached results.

:class:`CampaignService` is the composition root the HTTP layer and
the CLI both drive.  It owns one :class:`~repro.serve.cache.CacheStore`
and one :class:`~repro.serve.jobs.JobManager` rooted under a single
service directory::

    <root>/cache/     content-addressed result store
    <root>/jobs/      crash-safe job journal
    <root>/results/   per-job result payloads
    <root>/work/      per-job working directories (traces, checkpoints)

Three request kinds are accepted, all as plain JSON documents:

* ``{"kind": "simulate", "spec": {...}}`` — one
  :meth:`Simulation.from_spec` run; the spec is canonicalized on
  submission, so equivalent spellings coalesce to one job;
* ``{"kind": "sweep", "workload": ..., "axes": {...}, ...}`` — a
  :class:`~repro.sweep.SweepRunner` grid over a shared trace;
* ``{"kind": "search", "strategy": ..., ...}`` — an adaptive
  :class:`~repro.sweep.SearchRunner` over the same machinery.

Every simulation a job performs flows through a
:class:`~repro.serve.cache.CachingBackend` wrapped around the
service's execution backend, so overlapping submissions — the same
sweep twice, two searches exploring intersecting regions, a sweep
whose grid contains points a simulate request already ran — execute
each distinct computation exactly once.

Two server shells wrap the service: :class:`CampaignServer` (the
foreground ``resim serve`` process) and :class:`BackgroundServer`
(a daemon-thread server for tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path
from collections.abc import Mapping

from repro.core.specialize import ENGINES
from repro.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    WorkUnit,
)
from repro.serialize import config_from_dict, config_to_dict
from repro.serve.cache import CacheStore, CachingBackend
from repro.serve.canon import ENGINE_VERSION, canonical_spec
from repro.serve.http import HttpApi
from repro.serve.jobs import Job, JobContext, JobManager
from repro.session import CONFIGS, RegistryError
from repro.sweep import SEARCHES, SweepError, SweepRunner, SweepSpec
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SORT_KEYS
from repro.sweep.runner import sampling_entry
from repro.sweep.search import SearchRunner, make_strategy
from repro.workloads.tracegen import is_known_workload

#: Default bind address of ``resim serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8437

#: Request kinds the service accepts.
REQUEST_KINDS = ("simulate", "sweep", "search")


class ServiceError(ValueError):
    """Raised for malformed submissions (the HTTP 4xx family)."""


def _validate_engine(value: object) -> str:
    """Check an engine-tier name against the ENGINES registry.

    Tiers are bit-identical by contract, so the tier never reaches a
    cache key — it is carried beside the canonical spec and re-applied
    at execution time."""
    if not isinstance(value, str):
        raise ServiceError(
            f"request field 'engine' must be an engine tier name, "
            f"got {value!r}")
    try:
        ENGINES.get(value)
    except RegistryError as error:
        raise ServiceError(str(error)) from error
    return value


class _JobProgress(SweepProgress):
    """Bridge sweep/search progress into a job's event stream — and
    the cooperative cancellation point: every completed design point
    polls the job's cancel flag."""

    def __init__(self, context: JobContext) -> None:
        self._context = context
        self._total: int | None = None
        self._done = 0

    def start(self, total: int | None, *, label: str = "sweep") -> None:
        self._total = total
        self._done = 0
        self._context.set_progress(0, total)
        self._context.emit(event="start", label=label, total=total)

    def round(self, index: int, count: int) -> None:
        self._context.emit(event="round", round=index, count=count)

    def point(self, outcome) -> None:
        self._context.check_cancelled()
        self._done += 1
        self._context.set_progress(self._done, self._total)
        self._context.emit(
            event="point", key=outcome.key, label=outcome.label,
            ipc=outcome.ipc, from_checkpoint=outcome.from_checkpoint)

    def unit_failed(self, unit_id: str, message: str) -> None:
        self._context.emit(event="point_failed", unit=unit_id,
                           message=message)

    def finish(self) -> None:
        self._context.emit(event="evaluated", done=self._done)


def _require_int(request: Mapping, key: str, default: int) -> int:
    value = request.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            f"request field {key!r} must be an integer, "
            f"got {value!r}")
    return value


class CampaignService:
    """One campaign service instance (see module docstring).

    ``concurrency`` bounds how many jobs execute at once;
    ``workers`` sizes each job's execution backend (1 = serial,
    N > 1 = a per-job process pool).  ``autostart=False`` journals
    submissions without executing them until :meth:`start` — the
    restart-recovery and test hook.
    """

    def __init__(self, root: str | Path, *,
                 engine_version: str = ENGINE_VERSION,
                 concurrency: int = 2, workers: int = 1,
                 autostart: bool = True) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        self.workers = workers
        self.store = CacheStore(self.root / "cache",
                                engine_version=engine_version)
        self.manager = JobManager(self.root, self._execute_job,
                                  concurrency=concurrency,
                                  autostart=autostart)

    def start(self) -> None:
        self.manager.start()

    def close(self) -> None:
        self.manager.close()

    # -- submission ----------------------------------------------------

    def submit(self, request: Mapping) -> tuple[Job, bool]:
        """Validate, normalize, and enqueue one request document."""
        return self.manager.submit(self.validate_request(request))

    def validate_request(self, request: Mapping) -> dict:
        """The normalized form of a request (raises
        :class:`ServiceError` — or a canon/sweep error, all
        ``ValueError`` — on malformed documents).  Normalization is
        what makes coalescing and caching language-independent:
        equivalent spellings produce one normalized document."""
        if not isinstance(request, Mapping):
            raise ServiceError(
                f"request must be a JSON object, got "
                f"{type(request).__name__}")
        kind = request.get("kind")
        if kind == "simulate":
            return self._validate_simulate(request)
        if kind in ("sweep", "search"):
            return self._validate_bulk(request, kind)
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_KINDS)}")

    def _validate_simulate(self, request: Mapping) -> dict:
        spec = request.get("spec")
        if not isinstance(spec, Mapping):
            raise ServiceError(
                "a simulate request needs a 'spec' object "
                "(a Simulation.from_spec document)")
        normalized = {"kind": "simulate", "spec": canonical_spec(spec)}
        # canonical_spec() drops the engine tier (tiers are
        # bit-identical, so cache keys must not depend on it); carry
        # it beside the spec so execution still honors the choice.
        engine = _validate_engine(spec.get("engine", "reference"))
        if engine != "reference":
            normalized["engine"] = engine
        return normalized

    def _base_config(self, value: object):
        if isinstance(value, str):
            try:
                return CONFIGS.get(value)
            except RegistryError as error:
                raise ServiceError(str(error)) from error
        if isinstance(value, Mapping):
            try:
                return config_from_dict(dict(value))
            except (KeyError, TypeError, ValueError) as error:
                raise ServiceError(
                    f"bad config in request: {error!r}") from error
        raise ServiceError(
            f"request field 'config' must be a registered config "
            f"name or a config dict, got {value!r}")

    def _validate_bulk(self, request: Mapping, kind: str) -> dict:
        axes = request.get("axes")
        if not isinstance(axes, Mapping) or not axes:
            raise ServiceError(
                f"a {kind} request needs a non-empty 'axes' object "
                f"(config field name -> list of values)")
        axes_lists: dict[str, list] = {}
        for name in sorted(axes):
            values = axes[name]
            if isinstance(values, (str, bytes)) \
                    or not isinstance(values, (list, tuple)):
                raise ServiceError(
                    f"axis {name!r} must map to a list of values, "
                    f"got {values!r}")
            axes_lists[str(name)] = list(values)
        base = self._base_config(request.get("config", "4wide-perfect"))
        spec = SweepSpec(axes=axes_lists, base=base)
        if not spec.expand().points:
            raise ServiceError(
                f"the {kind} grid expands to no valid design points")
        workload = request.get("workload", "gzip")
        if not isinstance(workload, str) \
                or not is_known_workload(workload):
            raise ServiceError(f"unknown workload {workload!r}")
        normalized = {
            "kind": kind,
            "workload": workload,
            "config": config_to_dict(base),
            "axes": axes_lists,
            "budget": _require_int(request, "budget", 30_000),
            "seed": _require_int(request, "seed", 7),
            "shards": _require_int(request, "shards", 1),
        }
        engine = _validate_engine(request.get("engine", "reference"))
        if engine != "reference":
            normalized["engine"] = engine
        # Region sampling changes what the job *computes* (estimates,
        # not exact statistics), so every sampling parameter is part
        # of the normalized document — a sampled and an exact
        # submission of the same grid must never coalesce into one
        # job.  Full replay (the default) is normalized by omission,
        # keeping pre-sampling submissions byte-identical.
        sampling = request.get("sampling", "full")
        if sampling != "full":
            try:
                normalized["sampling"] = sampling_entry(
                    sampling, shards=normalized["shards"],
                    regions=_require_int(request, "regions", 8),
                    seed=_require_int(request, "region_seed", 0),
                    warmup_segments=_require_int(
                        request, "region_warmup", 1))
            except SweepError as error:
                raise ServiceError(str(error)) from None
        if kind == "search":
            strategy = request.get("strategy", "hillclimb")
            try:
                SEARCHES.get(strategy)
            except RegistryError as error:
                raise ServiceError(str(error)) from error
            metric = request.get("metric", "ipc")
            if metric not in SORT_KEYS:
                raise ServiceError(
                    f"unknown metric {metric!r}; choose from "
                    f"{', '.join(SORT_KEYS)}")
            normalized.update({
                "strategy": strategy,
                "metric": metric,
                "samples": _require_int(request, "samples", 16),
                "search_seed": _require_int(request, "search_seed", 1),
                "max_steps": _require_int(request, "max_steps", 64),
            })
        return normalized

    # -- execution -----------------------------------------------------

    def _inner_backend(self) -> ExecutionBackend:
        if self.workers > 1:
            return ProcessPoolBackend(self.workers)
        return SerialBackend()

    def _caching_backend(self, context: JobContext) -> CachingBackend:
        return CachingBackend(
            self.store, self._inner_backend(),
            on_verdict=lambda unit, key, hit: context.emit(
                event="cache", unit=unit.unit_id, key=key, hit=hit))

    def _workdir(self, job: Job) -> Path:
        workdir = self.root / "work" / job.job_id
        workdir.mkdir(parents=True, exist_ok=True)
        return workdir

    def _execute_job(self, job: Job, context: JobContext) -> dict:
        kind = job.request.get("kind")
        context.check_cancelled()
        if kind == "simulate":
            return self._run_simulate(job, context)
        if kind == "sweep":
            return self._run_sweep(job, context)
        if kind == "search":
            return self._run_search(job, context)
        raise ServiceError(f"unknown request kind {kind!r}")

    def _run_simulate(self, job: Job, context: JobContext) -> dict:
        backend = self._caching_backend(context)
        spec = dict(job.request["spec"])
        engine = job.request.get("engine", "reference")
        if engine != "reference":
            spec["engine"] = engine
        unit = WorkUnit(
            unit_id=job.job_id, spec=spec,
            result_path=str(self._workdir(job) / "result.json"))
        context.emit(event="start", label="simulate", total=1)
        outcome = backend.run_units([unit])[unit.unit_id]
        context.set_cache_tally(backend.hits, backend.misses)
        context.set_progress(1, 1)
        return {
            "kind": "simulate",
            "cache_key": backend.key_for(unit),
            "config": outcome["config"],
            "stats": outcome["stats"],
        }

    def _sweep_spec(self, request: Mapping) -> SweepSpec:
        return SweepSpec(axes=dict(request["axes"]),
                         base=config_from_dict(request["config"]))

    def _runner_kwargs(self, job: Job, context: JobContext,
                       backend: ExecutionBackend) -> dict:
        """SweepRunner/SearchRunner kwargs of a normalized request,
        its sampling entry included."""
        request = job.request
        sampling = request.get("sampling")
        return {"results_dir": self._workdir(job),
                "budget": request["budget"], "seed": request["seed"],
                "backend": backend, "progress": _JobProgress(context),
                "shards": request["shards"],
                "engine": request.get("engine", "reference"),
                **({} if not sampling else {
                    "sampling": sampling["mode"],
                    "regions": sampling["regions"],
                    "region_seed": sampling["seed"],
                    "region_warmup": sampling["warmup_segments"]})}

    def _run_sweep(self, job: Job, context: JobContext) -> dict:
        request = job.request
        backend = self._caching_backend(context)
        runner = SweepRunner(
            self._sweep_spec(request), request["workload"],
            **self._runner_kwargs(job, context, backend))
        outcome = runner.run()
        context.set_cache_tally(backend.hits, backend.misses)
        return {"kind": "sweep", "sweep": json.loads(outcome.to_json())}

    def _run_search(self, job: Job, context: JobContext) -> dict:
        request = job.request
        strategy = make_strategy(
            request["strategy"], self._sweep_spec(request),
            metric=request["metric"], samples=request["samples"],
            seed=request["search_seed"], max_steps=request["max_steps"])
        backend = self._caching_backend(context)
        runner = SearchRunner(
            strategy, request["workload"],
            **self._runner_kwargs(job, context, backend))
        outcome = runner.run()
        context.set_cache_tally(backend.hits, backend.misses)
        best = outcome.best
        return {
            "kind": "search",
            "strategy": outcome.strategy,
            "metric": outcome.metric,
            "rounds": outcome.rounds,
            "best": None if best is None else {
                "key": best.key,
                "label": best.label,
                "ipc": best.ipc,
                "config": config_to_dict(best.config),
            },
            "sweep": json.loads(outcome.result.to_json()),
        }

    # -- documents -----------------------------------------------------

    def status_document(self, job: Job) -> dict:
        """The JSON status form of one job (``GET /v1/jobs/<id>``)."""
        return {
            "job_id": job.job_id,
            "kind": job.request.get("kind"),
            "request_key": job.request_key,
            "state": job.state,
            "error": job.error,
            "cache": {"hits": job.cache_hits,
                      "misses": job.cache_misses},
            "points": {"done": job.points_done,
                       "total": job.points_total},
        }

    def health_document(self) -> dict:
        return {
            "ok": True,
            "engine_version": self.store.engine_version,
            "jobs": self.manager.counts(),
        }


class CampaignServer:
    """The foreground asyncio server shell (``resim serve``)."""

    def __init__(self, service: CampaignService, *,
                 host: str = DEFAULT_HOST,
                 port: int = DEFAULT_PORT) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._api = HttpApi(service)

    async def _serve(self, ready=None) -> None:
        server = await asyncio.start_server(
            self._api.handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if ready is not None:
            ready(self.host, self.port)
        async with server:
            await server.serve_forever()

    def run(self, *, ready=None) -> None:
        """Serve until interrupted; ``ready(host, port)`` fires once
        the socket is bound (port 0 resolves to the real port)."""
        try:
            asyncio.run(self._serve(ready))
        except KeyboardInterrupt:
            pass
        finally:
            self.service.close()


class BackgroundServer:
    """A campaign server on a daemon thread — the harness tests and
    benchmarks drive::

        with BackgroundServer(CampaignService(root)) as server:
            client = ServiceClient(*server.address)
            ...

    Exiting the context stops the listener and closes the service
    (running jobs are awaited; queued ones stay journaled).
    """

    def __init__(self, service: CampaignService, *,
                 host: str = DEFAULT_HOST, port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._api = HttpApi(service)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._api.handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # noqa: BLE001 — surfaced to
            # the entering thread below, not swallowed.
            self._error = error
            self._ready.set()

    def __enter__(self) -> BackgroundServer:
        self._thread = threading.Thread(
            target=self._main, name="resim-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServiceError("campaign server did not start")
        if self._error is not None:
            raise ServiceError(
                f"campaign server failed to start: {self._error}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.service.close()
