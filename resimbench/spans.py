"""In-memory spans around calls into ReSim's layers.

The benchmark traces the simulator from its own files: :class:`Tracer`
replaces chosen functions and methods with wrappers that record one
span per call (name, start, end, parent span) on the monotonic clock,
and restores the originals afterwards.  Nothing inside ``src/`` is
instrumented.  Spans stay in memory; :meth:`Tracer.summary` reduces
them to per-name call counts, total time and self time (a span's
duration minus the part its child spans cover).

Calls made in other processes (pool or queue workers) are not seen.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

#: Layer boundaries wrapped in a traced run, as ``(module, owner,
#: attribute)``; ``owner`` is a class name, or None for a module-level
#: function looked up through that module.
TARGETS: tuple[tuple[str, str | None, str], ...] = (
    ("repro.session.simulation", "Simulation", "run"),
    ("repro.session.simulation", "Simulation", "prepare"),
    ("repro.sweep.runner", "SweepRunner", "prepare_trace"),
    ("repro.sweep.runner", "SweepRunner", "evaluate"),
    ("repro.sweep.runner", None, "ensure_profile"),
    ("repro.sweep.runner", None, "plan_regions"),
    ("repro.sweep.runner", None, "write_workload_trace"),
    ("repro.exec.backends", "ExecutionBackend", "run_units"),
    ("repro.exec.unit", None, "atomic_write_json"),
    ("repro.core.stats", "SimulationStatistics", "merge"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records spans while installed (use as a context manager)."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        return traced

    def __enter__(self) -> Tracer:
        for module_name, owner_name, attribute in self.targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None \
                else getattr(module, owner_name)
            original = owner.__dict__[attribute] \
                if owner_name is not None else getattr(owner, attribute)
            name = f"{owner_name or module_name.rsplit('.', 1)[1]}" \
                   f".{attribute}"
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
        return table
