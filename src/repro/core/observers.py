"""Stock :class:`~repro.core.engine.EngineObserver` implementations.

The observer API turns engine instrumentation into pluggable
components; this module collects the implementations generic enough to
ship with the simulator.  The first is progress reporting — the
ROADMAP follow-up the streaming ingestion layer makes worthwhile: a
multi-million-record :class:`~repro.trace.source.FileSource` run can
now take minutes at constant memory, and the operator wants to see it
move.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from repro.core.engine import EngineObserver, ReSimEngine


class ProgressObserver(EngineObserver):
    """Emits periodic progress lines while an engine runs.

    A line is printed every ``every_records`` consumed trace records
    (and no more often than ``min_seconds`` apart, so tiny traces
    don't spam), carrying records consumed / total, percentage, the
    major-cycle count and the running IPC::

        [progress] 120,000/1,000,000 records (12.0%)  cycle 48,213  IPC 2.49

    The total comes from the source's stream-length estimate — exact
    for trace files, the live length for growing in-memory streams
    (for those the percentage tracks the records *delivered so far*).

    Attach via ``engine.add_observer(ProgressObserver())``,
    ``Simulation.with_observer(...)``, or the ``--progress`` flag of
    ``resim simulate``.  Overrides only :meth:`on_cycle`, so the
    zero-observer hot loop is untouched and the attached cost is one
    integer compare per major cycle.  That also keeps a run on the
    specialized tier: its generated engine calls :meth:`on_cycle`
    from a record tick bounded by :attr:`next_threshold`, so with
    ``min_seconds=0`` both tiers print the same lines.  A subclass
    runs on the reference tier: its :meth:`emit` may read engine state
    the generated engine does not keep.
    """

    def __init__(
        self,
        every_records: int = 100_000,
        *,
        stream: TextIO | None = None,
        min_seconds: float = 0.0,
    ) -> None:
        if every_records < 1:
            raise ValueError(
                f"every_records must be >= 1, got {every_records}")
        if min_seconds < 0:
            raise ValueError(
                f"min_seconds must be >= 0, got {min_seconds}")
        self._every = every_records
        self._stream = stream
        self._min_seconds = min_seconds
        self._next_threshold = every_records
        self._last_emit = 0.0
        self.lines_emitted = 0

    @property
    def next_threshold(self) -> int:
        """The consumed-record count at which :meth:`on_cycle` next
        has anything to do."""
        return self._next_threshold

    def on_cycle(self, engine: ReSimEngine) -> None:
        consumed = engine.cursor_position
        if consumed < self._next_threshold:
            return
        now = time.monotonic()
        if now - self._last_emit < self._min_seconds:
            return
        self._last_emit = now
        # Skip thresholds a wide-fetch cycle jumped over.
        while self._next_threshold <= consumed:
            self._next_threshold += self._every
        self.emit(engine)

    def emit(self, engine: ReSimEngine) -> None:
        """Format and write one progress line (also usable directly,
        e.g. for a final summary after ``run()`` returns)."""
        consumed = engine.cursor_position
        total = engine.total_records
        percent = 100.0 * consumed / total if total else 100.0
        line = (
            f"[progress] {consumed:,}/{total:,} records "
            f"({percent:.1f}%)  cycle {engine.cycle:,}  "
            f"IPC {engine.stats.ipc:.2f}"
        )
        print(line, file=self._stream or sys.stderr)
        self.lines_emitted += 1
