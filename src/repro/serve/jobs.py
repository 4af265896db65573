"""The campaign service's job manager: submit, schedule, journal.

A *job* is one accepted submission — a simulate/sweep/search request
document — moving through ``queued → running → done`` (or ``failed``
/ ``cancelled``).  The manager's obligations:

* **crash safety** — every state transition is journaled to
  ``jobs/<job_id>.json`` with the repo's atomic write-then-rename
  idiom (this module is registered with resim-lint as a
  queue-protocol module, rule S201).  A server killed mid-run
  restarts, re-reads the journal, and re-queues every job that had
  not reached a terminal state; because execution is deterministic
  and results are content-address-cached, the re-run re-simulates
  only what the first attempt never finished.
* **coalescing** — submissions are keyed by the canonical digest of
  their (normalized) request document; a request identical to one
  already queued or running returns *that* job instead of spawning a
  duplicate, so N users racing to submit the same sweep trigger one
  execution.  (Terminal jobs never coalesce: a resubmission is a new
  job — which then serves from the result cache.)
* **bounded concurrency** — jobs execute on a fixed-size thread pool
  (each job's own work fans out through its execution backend), so a
  burst of submissions queues instead of forking without limit.
* **cooperative cancellation** — ``cancel`` flips a per-job flag that
  the executor polls between design points
  (:exc:`JobCancelled`); a queued job that was never started
  cancels immediately.

Job documents deliberately carry **no wall-clock values** (rule
D102): a journal is part of the deterministic record of what was
computed, not when.  Timing belongs to clients.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Mapping

from repro.exec.unit import atomic_write_json
from repro.serialize import canonical_digest

#: Job journal document schema; bump on incompatible layout changes.
JOB_SCHEMA = 1

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every legal job state, in lifecycle order.
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = frozenset((DONE, FAILED, CANCELLED))

#: Hex digits of a request key (the coalescing identity).
REQUEST_KEY_LENGTH = 40


class JobError(ValueError):
    """Raised for unknown jobs, bad states, or malformed journals."""


class JobCancelled(Exception):
    """Raised inside an executor to stop a cancelled job.

    Not an error: the run loop converts it into the ``cancelled``
    terminal state.  Executors surface it by calling
    :meth:`JobContext.check_cancelled` between units of work.
    """


def request_key(request: Mapping) -> str:
    """The coalescing identity of one request document: canonical
    digest of its (normalized) JSON form.  Two submissions with equal
    normalized requests are the same campaign."""
    return canonical_digest(dict(request), length=REQUEST_KEY_LENGTH)


@dataclass
class Job:
    """One accepted submission and its journaled progress."""

    job_id: str
    request: dict
    request_key: str
    state: str = QUEUED
    error: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    points_done: int = 0
    points_total: int | None = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        """JSON-safe journal form (inverse of :meth:`from_dict`)."""
        return {
            "schema": JOB_SCHEMA,
            "job_id": self.job_id,
            "request": dict(self.request),
            "request_key": self.request_key,
            "state": self.state,
            "error": self.error,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "points_done": self.points_done,
            "points_total": self.points_total,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Job:
        if not isinstance(data, Mapping):
            raise JobError(
                f"job document must be a mapping, got "
                f"{type(data).__name__}")
        if data.get("schema") != JOB_SCHEMA:
            raise JobError(
                f"unsupported job schema {data.get('schema')!r} "
                f"(this version reads schema {JOB_SCHEMA})")
        state = data.get("state")
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        try:
            return cls(
                job_id=data["job_id"],
                request=dict(data["request"]),
                request_key=data["request_key"],
                state=state,
                error=data.get("error"),
                cache_hits=int(data.get("cache_hits", 0)),
                cache_misses=int(data.get("cache_misses", 0)),
                points_done=int(data.get("points_done", 0)),
                points_total=data.get("points_total"),
            )
        except KeyError as error:
            raise JobError(
                f"job document missing key {error.args[0]!r}"
            ) from None


@dataclass
class _Runtime:
    """Per-job in-memory state the journal does not carry: the event
    log (progress streaming), the cancel flag, and the finished
    latch."""

    events: list[dict] = field(default_factory=list)
    cancel: threading.Event = field(default_factory=threading.Event)
    finished: threading.Event = field(default_factory=threading.Event)


class JobContext:
    """The executor's handle back into the manager: emit progress
    events, report cache/point tallies, and poll cancellation."""

    def __init__(self, manager: JobManager, job: Job) -> None:
        self._manager = manager
        self.job = job

    def emit(self, **event: object) -> None:
        """Append one progress event to the job's stream."""
        self._manager.emit(self.job.job_id, dict(event))

    def cancelled(self) -> bool:
        return self._manager.cancel_requested(self.job.job_id)

    def check_cancelled(self) -> None:
        """Raise :exc:`JobCancelled` if a cancel was requested —
        executors call this between units of work."""
        if self.cancelled():
            raise JobCancelled(self.job.job_id)

    def set_progress(self, done: int, total: int | None) -> None:
        self._manager.update_job(self.job.job_id, points_done=done,
                                 points_total=total)

    def set_cache_tally(self, hits: int, misses: int) -> None:
        self._manager.update_job(self.job.job_id, cache_hits=hits,
                                 cache_misses=misses)


#: The pluggable executor: runs one job to completion and returns its
#: result payload (a JSON-safe dict the manager persists).  Raises to
#: fail the job; raises :exc:`JobCancelled` to cancel it.
JobExecutor = Callable[[Job, JobContext], dict]


class JobManager:
    """Schedule jobs onto a bounded thread pool with a crash-safe
    journal (see module docstring).

    ``autostart=False`` journals submissions without executing them —
    the restart path (a server that died before running its queue)
    and the test hook for observing pre-execution states; call
    :meth:`start` to begin draining.
    """

    def __init__(self, root: str | Path, execute: JobExecutor, *,
                 concurrency: int = 2, autostart: bool = True) -> None:
        if concurrency < 1:
            raise JobError(
                f"concurrency must be >= 1, got {concurrency}")
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._execute = execute
        self.concurrency = concurrency
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._runtime: dict[str, _Runtime] = {}
        self._seq = 0
        self._pool: ThreadPoolExecutor | None = None
        self._recover()
        if autostart:
            self.start()

    # -- journal -------------------------------------------------------

    def _journal_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def _persist(self, job: Job) -> None:
        atomic_write_json(self._journal_path(job.job_id), job.to_dict())

    def _recover(self) -> None:
        """Re-adopt journaled jobs: terminal ones as history,
        interrupted ones (queued *or* running — a running job whose
        server died never finished) back onto the queue."""
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                job = Job.from_dict(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError, JobError):
                # A torn or foreign journal entry is skipped, not
                # fatal: atomic writes make this near-impossible for
                # our own entries, and one bad file must not take the
                # whole service down.
                continue
            self._jobs[job.job_id] = job
            runtime = _Runtime()
            if job.finished:
                runtime.finished.set()
            elif job.state != QUEUED:
                job.state = QUEUED
                self._persist(job)
            self._runtime[job.job_id] = runtime
            stem, _, number = job.job_id.partition("-")
            if stem == "job" and number.isdigit():
                self._seq = max(self._seq, int(number))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Begin (or resume) draining the queue."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.concurrency,
                    thread_name_prefix="resim-job")
            pending = [job for job in self._sorted_jobs()
                       if job.state == QUEUED]
            for job in pending:
                self._pool.submit(self._run, job)

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work and (by default) wait for running jobs;
        queued-but-unstarted jobs stay journaled for the next start."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _sorted_jobs(self) -> list[Job]:
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    # -- submission ----------------------------------------------------

    def submit(self, request: Mapping) -> tuple[Job, bool]:
        """Accept one request document; returns ``(job, coalesced)``.

        ``coalesced`` is True when an identical request was already
        queued or running and that job was returned instead of a new
        one.
        """
        if not isinstance(request, Mapping):
            raise JobError(
                f"request must be a mapping, got "
                f"{type(request).__name__}")
        key = request_key(request)
        with self._lock:
            for job in self._sorted_jobs():
                if job.request_key == key and not job.finished:
                    return job, True
            self._seq += 1
            job = Job(job_id=f"job-{self._seq:06d}",
                      request=dict(request), request_key=key)
            self._jobs[job.job_id] = job
            self._runtime[job.job_id] = _Runtime()
            self._persist(job)
            self.emit(job.job_id, {"event": "state", "state": QUEUED})
            if self._pool is not None:
                self._pool.submit(self._run, job)
        return job, False

    # -- execution -----------------------------------------------------

    def _transition(self, job: Job, state: str, *,
                    error: str | None = None) -> None:
        event = {"event": "state", "state": state}
        if error is not None:
            event["error"] = error
        with self._lock:
            job.state = state
            job.error = error
            self._persist(job)
            # Under the same lock: an event stream that sees the new
            # state must also see its event, or it may stop before it.
            self.emit(job.job_id, event)
        if state in TERMINAL_STATES:
            self._runtime[job.job_id].finished.set()

    def _run(self, job: Job) -> None:
        with self._lock:
            if job.state != QUEUED:
                return
            if self._runtime[job.job_id].cancel.is_set():
                pass  # transition below, outside the lock
            else:
                job.state = RUNNING
                self._persist(job)
        if job.state == QUEUED:  # cancelled before it ever ran
            self._transition(job, CANCELLED)
            return
        self.emit(job.job_id, {"event": "state", "state": RUNNING})
        context = JobContext(self, job)
        try:
            payload = self._execute(job, context)
        except JobCancelled:
            self._transition(job, CANCELLED)
        except Exception as error:  # noqa: BLE001 — job isolation:
            # one failed campaign must not take the service down.
            self._transition(
                job, FAILED,
                error=f"{type(error).__name__}: {error}")
        else:
            atomic_write_json(self.result_path(job.job_id), payload)
            self._transition(job, DONE)

    # -- inspection / control ------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return self._sorted_jobs()

    def counts(self) -> dict[str, int]:
        with self._lock:
            tally = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                tally[job.state] += 1
        return tally

    def cancel(self, job_id: str) -> Job:
        """Request cancellation (cooperative; see module docstring)."""
        job = self.get(job_id)
        with self._lock:
            if job.finished:
                return job
            self._runtime[job_id].cancel.set()
        self.emit(job_id, {"event": "cancel_requested"})
        return job

    def cancel_requested(self, job_id: str) -> bool:
        return self._runtime[self.get(job_id).job_id].cancel.is_set()

    def update_job(self, job_id: str, **fields_: int | None) -> None:
        """Update journaled tally fields (points/cache counters)."""
        job = self.get(job_id)
        with self._lock:
            for name, value in sorted(fields_.items()):
                if name not in ("cache_hits", "cache_misses",
                                "points_done", "points_total"):
                    raise JobError(
                        f"not an updatable job field: {name!r}")
                setattr(job, name, value)
            self._persist(job)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        job = self.get(job_id)
        if not self._runtime[job.job_id].finished.wait(timeout):
            raise JobError(
                f"job {job_id!r} did not finish within {timeout}s")
        return job

    def result_document(self, job_id: str) -> dict:
        """The persisted result payload of a finished job."""
        job = self.get(job_id)
        if job.state != DONE:
            raise JobError(
                f"job {job_id!r} has no result (state {job.state!r})")
        try:
            return json.loads(self.result_path(job_id).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise JobError(
                f"result of job {job_id!r} is unreadable: {error}"
            ) from error

    # -- events --------------------------------------------------------

    def emit(self, job_id: str, event: Mapping) -> None:
        """Append one event to a job's in-memory stream (events are
        ephemeral; the journal carries durable state)."""
        with self._lock:
            runtime = self._runtime.get(job_id)
            if runtime is None:
                raise JobError(f"unknown job {job_id!r}")
            entry = {"seq": len(runtime.events) + 1, "job_id": job_id}
            entry.update(event)
            runtime.events.append(entry)

    def events_since(self, job_id: str, after: int = 0) -> list[dict]:
        """Events with ``seq > after``, in order."""
        job = self.get(job_id)
        with self._lock:
            events = self._runtime[job.job_id].events
            return [dict(entry) for entry in events
                    if entry["seq"] > after]

    def describe(self) -> str:
        return (f"JobManager({str(self.root)!r}, "
                f"concurrency={self.concurrency})")

    __repr__ = describe
