"""Execution backends: *how* a batch of work units actually runs.

The simulation core answers "what does design point X score?"; a
backend answers "on which CPUs?", so every bulk consumer is written
once against :class:`ExecutionBackend`:

* :class:`SerialBackend` — in-process, in-order: the reference
  semantics the others match bit for bit, and the one backend that
  can attach engine observers;
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` fan-out on
  one host;
* :class:`~repro.exec.queue.DirectoryQueueBackend` — a shared-
  filesystem queue drained by ``resim worker`` processes on any
  number of hosts (see :mod:`repro.exec.queue`).

All three run :func:`~repro.exec.unit.execute_unit` on the same
serializable :class:`~repro.exec.unit.WorkUnit`\\ s, and the engine is
deterministic, so every backend writes byte-identical result documents
for a batch (the test suite asserts it).  Backends are registered in
:data:`BACKENDS`, so ``--backend queue`` can name one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
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
    adaptive search pushes batch after batch through one backend.
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


@BACKENDS.register("pool", aliases=("process-pool",))
class ProcessPoolBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` fan-out on the local host.

    Results arrive in completion order (``on_result`` observes the
    true finish sequence); the returned mapping is keyed by unit id,
    so callers needing a stable order impose their own.  A unit that
    raises re-raises the original (pickled) exception here, exactly
    like the pre-backend sweep runner did.
    """

    name = "pool"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ExecError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        results: dict[str, dict] = {}
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(execute_unit, unit): unit
                       for unit in batch}
            for future in as_completed(futures):
                unit = futures[future]
                payload = future.result()
                results[unit.unit_id] = payload
                if on_result is not None:
                    on_result(unit, payload)
        return results

    def describe(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"
