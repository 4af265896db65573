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
* ``{"kind": "sweep" | "search", "axes": {...}, ...}`` — a campaign
  over a shared trace, validated by
  :func:`~repro.sweep.campaign.normalize_campaign` and run by
  :func:`~repro.sweep.campaign.run_campaign`, the two functions behind
  ``resim sweep``/``resim search`` too.  Unknown fields are rejected,
  and the axes run in name order.

Every simulation a job performs flows through a
:class:`~repro.serve.cache.CachingBackend` wrapped around the
service's execution backend, so overlapping submissions — the same
sweep twice, two searches exploring intersecting regions, a sweep
whose grid contains points a simulate request already ran — execute
each distinct computation exactly once.

:class:`~repro.serve.http.BackgroundServer` serves the service over
HTTP: in the foreground of ``resim serve``, or from a daemon thread
for tests and benchmarks.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping

from repro.core.specialize import DEFAULT_ENGINE
from repro.exec import WorkUnit
from repro.serialize import config_to_dict
from repro.serve.cache import CacheStore, CachingBackend
from repro.serve.canon import ENGINE_VERSION, canonical_spec
from repro.serve.jobs import Job, JobContext, JobManager
from repro.session import SessionError, coerce_engine
from repro.sweep.campaign import normalize_campaign, run_campaign
from repro.sweep.fields import CAMPAIGN_KINDS
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SweepResult
from repro.sweep.runner import default_backend

#: Request kinds the service accepts.
REQUEST_KINDS = ("simulate", *CAMPAIGN_KINDS)


class ServiceError(ValueError):
    """Raised for malformed submissions (the HTTP 4xx family)."""


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
        if kind in CAMPAIGN_KINDS:
            return normalize_campaign(request)
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
        try:
            engine = coerce_engine(spec.get("engine", DEFAULT_ENGINE))
        except SessionError as error:
            raise ServiceError(str(error)) from error
        if engine != DEFAULT_ENGINE:
            normalized["engine"] = engine
        return normalized

    # -- execution -----------------------------------------------------

    def _caching_backend(self, context: JobContext) -> CachingBackend:
        return CachingBackend(
            self.store, default_backend(self.workers),
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
        if kind in CAMPAIGN_KINDS:
            return self._run_campaign(job, context)
        raise ServiceError(f"unknown request kind {kind!r}")

    def _run_simulate(self, job: Job, context: JobContext) -> dict:
        backend = self._caching_backend(context)
        spec = dict(job.request["spec"])
        engine = job.request.get("engine", DEFAULT_ENGINE)
        if engine != DEFAULT_ENGINE:
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

    def _run_campaign(self, job: Job, context: JobContext) -> dict:
        backend = self._caching_backend(context)
        outcome = run_campaign(job.request, results_dir=self._workdir(job),
                               backend=backend,
                               progress=_JobProgress(context))
        context.set_cache_tally(backend.hits, backend.misses)
        if isinstance(outcome, SweepResult):
            return {"kind": "sweep", "sweep": json.loads(outcome.to_json())}
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
