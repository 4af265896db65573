"""The campaign service: requests → jobs → backends → cached results.

:class:`CampaignService` is the composition root the HTTP layer and
the CLI both drive.  It owns one :class:`~repro.serve.cache.CacheStore`
and one :class:`~repro.serve.jobs.JobManager` rooted under a single
service directory::

    <root>/cache/     content-addressed result store
    <root>/jobs/      crash-safe job journal
    <root>/results/   per-job result payloads
    <root>/work/      per-job working directories (traces, checkpoints)

Three request kinds are accepted, as plain JSON documents, each
normalized and run by the same functions as its CLI command, so
equivalent spellings coalesce to one job and unknown fields are
rejected:

* ``{"kind": "simulate", "spec": {...}}``, optionally with the
  sampling fields of ``resim simulate --sample-regions`` — one design
  point (:func:`~repro.exec.point.normalize_simulate`,
  :func:`~repro.exec.point.run_point`);
* ``{"kind": "sweep" | "search", "axes": {...}, ...}`` — a campaign
  over a shared trace (:func:`~repro.sweep.campaign.normalize_campaign`,
  :func:`~repro.sweep.campaign.run_campaign`).

Every unit a job runs, a region of a sampled simulate included, goes
through a :class:`~repro.serve.cache.CachingBackend` around the
service's execution backend, so overlapping submissions execute each
distinct computation once.

:class:`~repro.serve.http.BackgroundServer` serves the service over
HTTP: in the foreground of ``resim serve``, or from a daemon thread
for tests and benchmarks.
"""

from __future__ import annotations

import json
from pathlib import Path
from collections.abc import Mapping

from repro.exec.point import normalize_simulate, run_point, simulate_point
from repro.serialize import config_to_dict
from repro.serve.cache import CacheStore, CachingBackend
from repro.serve.canon import ENGINE_VERSION
from repro.serve.jobs import Job, JobContext, JobManager
from repro.sweep.campaign import normalize_campaign, run_campaign
from repro.sweep.fields import CAMPAIGN_KINDS
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SweepResult
from repro.sweep.runner import default_backend
from repro.utils.memo import memo_info

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
            return normalize_simulate(request)
        if kind in CAMPAIGN_KINDS:
            return normalize_campaign(request)
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_KINDS)}")

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
        context.emit(event="start", label="simulate", total=1)
        base, plan = simulate_point(
            job.request, self._workdir(job) / "result.json",
            unit_id=job.job_id)
        with self._caching_backend(context) as backend:
            document = run_point(base, plan, backend)
        context.set_cache_tally(backend.hits, backend.misses)
        context.set_progress(1, 1)
        # A merged estimate is no cache entry: it carries its marker
        # instead of a key.
        identity = {"cache_key": backend.key_for(base)} if plan is None \
            else {plan.kind.marker: document[plan.kind.marker]}
        return {"kind": "simulate", **identity,
                "config": document["config"], "stats": document["stats"]}

    def _run_campaign(self, job: Job, context: JobContext) -> dict:
        with self._caching_backend(context) as backend:
            outcome = run_campaign(
                job.request, results_dir=self._workdir(job),
                backend=backend, progress=_JobProgress(context))
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

    def cache_document(self) -> dict:
        """``GET /v1/cache``: the result store's counters and
        occupancy, plus every process-wide memo's counts
        (:func:`~repro.utils.memo.memo_info`) — telemetry, never part
        of a result document."""
        return {**self.store.stats_document(), "memos": memo_info()}

    def health_document(self) -> dict:
        return {
            "ok": True,
            "engine_version": self.store.engine_version,
            "jobs": self.manager.counts(),
        }
