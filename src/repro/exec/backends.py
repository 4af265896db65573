"""Execution backends: *how* a batch of work units actually runs.

The simulation core answers "what does design point X score?"; a
backend answers "on which CPUs?", so every bulk consumer is written
once against :class:`ExecutionBackend`:

* :class:`SerialBackend` — in-process, in-order: the reference
  semantics the others match bit for bit, and the one backend that
  can attach engine observers;
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` fan-out on
  one host, whose workers live as long as the backend;
* :class:`~repro.exec.queue.DirectoryQueueBackend` — a shared-
  filesystem queue drained by ``resim worker`` processes on any
  number of hosts (see :mod:`repro.exec.queue`).

All three run :func:`~repro.exec.unit.execute_unit` on the same
serializable :class:`~repro.exec.unit.WorkUnit`\\ s, and the engine is
deterministic, so every backend writes byte-identical result documents
for a batch (the test suite asserts it).  Backends are registered in
:data:`BACKENDS`, so ``--backend queue`` can name one.

A backend that keeps local worker processes between batches releases
them in :meth:`ExecutionBackend.close` (also ``with backend: ...``);
whoever creates a backend closes it, and whoever is handed one leaves
it open.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from collections.abc import Callable, Sequence

from repro.core.engine import EngineObserver
from repro.exec.unit import ExecError, WorkUnit, execute_unit
from repro.utils.registry import Registry

#: Named backend classes (``serial``, ``pool``, ``queue``); the CLI
#: resolves ``--backend`` values here, so a new backend registered by
#: an extension becomes a valid flag with no CLI change.
BACKENDS: Registry[type] = Registry("execution backend")

#: Callback invoked as each unit finishes: ``(unit, payload)``.  The
#: payload is the unit's result document; for backends that tolerate
#: per-unit failure (the directory queue) it may be an error document
#: (``"error"`` key) — in-process backends raise instead.
OnResult = Callable[[WorkUnit, dict], None]


class ExecutionBackend(ABC):
    """Run serializable work units to completion.

    :meth:`run_units` executes one batch and returns
    ``{unit_id: result_document}``.  A backend instance is reusable —
    adaptive search pushes batch after batch through one backend —
    until :meth:`close`.
    """

    #: Human-readable backend name (also its registry key).
    name = "?"

    def run_units(self, units: Sequence[WorkUnit] = (), *,
                  on_result: OnResult | None = None) -> dict[str, dict]:
        """Execute a batch; return result documents by unit id."""
        batch = list(units)
        seen: set[str] = set()
        for unit in batch:
            if not isinstance(unit, WorkUnit):
                raise ExecError(
                    f"run_units() takes a WorkUnit, got "
                    f"{type(unit).__name__}")
            if unit.unit_id in seen:
                raise ExecError(
                    f"unit {unit.unit_id!r} is already enqueued; unit "
                    f"ids must be unique within a batch"
                )
            seen.add(unit.unit_id)
        return self._execute(batch, on_result)

    @abstractmethod
    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        """Backend-specific execution of one validated batch."""

    def close(self) -> None:
        """Release the worker processes this backend keeps between
        batches (nothing, by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        return f"{type(self).__name__}()"

    __repr__ = describe


@BACKENDS.register("serial")
class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the reference semantics.

    Being in-process, it alone can instrument runs: ``observers`` makes
    each unit's engine observers.  ``share_segments`` is
    :func:`~repro.exec.unit.execute_unit`'s.
    """

    name = "serial"

    def __init__(self, *,
                 observers: Callable[[], Sequence[EngineObserver]]
                 | None = None,
                 share_segments: bool = True) -> None:
        self.observers = observers
        self.share_segments = share_segments

    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        results: dict[str, dict] = {}
        for unit in batch:
            payload = execute_unit(
                unit, share_segments=self.share_segments,
                observers=() if self.observers is None
                else self.observers())
            results[unit.unit_id] = payload
            if on_result is not None:
                on_result(unit, payload)
        return results


#: Chunks a pool batch is cut into per worker: enough that a slow
#: chunk does not leave the other workers idle at the end of a batch,
#: few enough that a batch of millisecond units is not a round trip
#: per unit.
CHUNKS_PER_WORKER = 8


def _execute_chunk(units: Sequence[WorkUnit]) -> list[dict]:
    """A pool worker's task: execute ``units`` in order.  A unit that
    raises is re-raised once the rest of the chunk has run, so a
    failure costs no other unit its result file."""
    payloads = []
    failure: Exception | None = None
    for unit in units:
        try:
            payloads.append(execute_unit(unit))
        except Exception as error:
            if failure is None:
                failure = error
    if failure is not None:
        raise failure
    return payloads


@BACKENDS.register("pool", aliases=("process-pool",))
class ProcessPoolBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` fan-out on the local host.

    One executor serves every batch, so its workers keep their
    decoded-segment caches and memos from one batch to the next.  It
    starts at the first batch; :meth:`close`, interpreter exit or the
    backend's collection shuts it down, and a batch that finds a
    worker dead starts a fresh one.

    A batch goes out in contiguous chunks of
    ``ceil(n / (CHUNKS_PER_WORKER * workers))`` units, one task each
    (one unit per task for batches of up to ``CHUNKS_PER_WORKER *
    workers`` units), so a point's consecutive units stay together.
    Results arrive in chunk completion order, in unit order within a
    chunk (``on_result`` observes that sequence); the returned mapping
    is keyed by unit id, so callers needing a stable order impose
    their own.  A unit that raises re-raises the original (pickled)
    exception here once the rest of the batch has run; a worker that
    dies mid-batch fails the batch with ``BrokenProcessPool``.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ExecError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._release: weakref.finalize | None = None

    def _pool(self) -> ProcessPoolExecutor:
        """The live executor, started (or restarted after a worker
        died) on demand."""
        executor = self._executor
        # The executor keeps no public word on its workers' health.
        if executor is not None and (executor._broken or not all(
                process.is_alive()
                for process in executor._processes.values())):
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            # Runs at close(), at the backend's collection, or at exit;
            # it holds the executor, never the backend.
            self._release = weakref.finalize(self,
                                             self._executor.shutdown)
        return self._executor

    def close(self) -> None:
        """Shut the workers down (called at exit too); the next batch
        starts new ones."""
        if self._release is not None:
            self._release()
        self._executor = self._release = None

    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        results: dict[str, dict] = {}
        if not batch:
            return results
        pool = self._pool()
        size = -(-len(batch) // (CHUNKS_PER_WORKER * self.workers))
        futures = {}
        try:
            for start in range(0, len(batch), size):
                chunk = batch[start:start + size]
                futures[pool.submit(_execute_chunk, chunk)] = chunk
            for future in as_completed(futures):
                for unit, payload in zip(futures[future], future.result(),
                                         strict=True):
                    results[unit.unit_id] = payload
                    if on_result is not None:
                        on_result(unit, payload)
        finally:
            # As a per-batch executor's exit did: the whole batch runs,
            # and writes its result files, before an error surfaces.
            wait(futures)
        return results

    def describe(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"
