"""Bounded-lookahead trace sources — streaming ingestion for the engine.

ReSim's hardware consumes its trace through an input FIFO: the
deserializer exposes the *next few* records, never the whole trace.
This module is the software equivalent.  A :class:`TraceSource` is a
forward-only cursor with one record of lookahead — exactly what the
engine's fetch stage needs (``peek`` the next record, ``next`` to
consume it, ``peek_is_tagged`` for the wrong-path discard loop at
recovery) — so simulation memory no longer scales with trace length:

* :class:`InMemorySource` wraps a record sequence already in memory
  (including a *growing* list — the streaming co-simulation driver
  appends chunks while the engine runs, and the source sees them);
* :class:`FileSource` streams a stored ``.rtrc`` file, decoding one
  v2 segment (or one v1 chunk) at a time — peak resident memory is
  bounded by the segment size, not the trace length (work units add
  only the fixed-size decoded-segment cache, see
  :func:`repro.trace.fileio.decoded_segment_reuse`).

Every consumer — the engine, the session facade, sweep workers, the
multicore study, co-simulation — speaks this protocol; a sequence
passed to :class:`~repro.core.engine.ReSimEngine` is wrapped in an
:class:`InMemorySource` automatically, so the two ingestion paths
share one fetch implementation and produce bit-identical statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from collections.abc import Iterator, Sequence

from repro.trace.fileio import (
    TraceFileHeader,
    TraceSegment,
    iter_trace_records,
    read_segment_table,
    read_trace_header,
)
from repro.trace.record import TraceRecord


class TraceSourceError(ValueError):
    """Raised for misused or exhausted trace sources."""


class TraceSource(ABC):
    """A forward-only record cursor with one record of lookahead.

    The contract the engine relies on:

    * :meth:`peek` returns the next record without consuming it, or
      ``None`` when no record is available *right now* (a growing
      in-memory stream may produce more later; a file is simply done);
    * :meth:`next` consumes and returns that record;
    * :attr:`total_records` is the best current estimate of the full
      stream length (exact for files; the live length for growing
      lists) — used for cycle budgets and progress reporting, never
      for termination.
    """

    @abstractmethod
    def peek(self) -> TraceRecord | None:
        """The next record, or ``None`` if none is available."""

    @abstractmethod
    def next(self) -> TraceRecord:
        """Consume and return the next record.

        Raises
        ------
        TraceSourceError
            If the source is exhausted.
        """

    def peek_is_tagged(self) -> bool:
        """True when the next record exists and is wrong-path."""
        record = self.peek()
        return record is not None and record.tag

    @property
    @abstractmethod
    def consumed(self) -> int:
        """Records consumed so far."""

    @property
    @abstractmethod
    def total_records(self) -> int:
        """Best current estimate of the stream length (see class doc)."""

    @property
    def exhausted(self) -> bool:
        """True when no record is available right now."""
        return self.peek() is None

    def fresh(self) -> TraceSource:
        """An independent cursor over the same stream, rewound to the
        start.  Sources that cannot rewind raise
        :class:`TraceSourceError`."""
        raise TraceSourceError(
            f"{type(self).__name__} cannot be reopened")

    def __iter__(self) -> Iterator[TraceRecord]:
        while self.peek() is not None:
            yield self.next()


class InMemorySource(TraceSource):
    """Cursor over a record sequence already in memory.

    The sequence is referenced, not copied, and its length is read
    live — appending to the underlying list makes the new records
    visible, which is exactly how the streaming co-simulation driver
    models its flow-controlled input FIFO.
    """

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        self._records = records
        self._index = 0

    def peek(self) -> TraceRecord | None:
        if self._index < len(self._records):
            return self._records[self._index]
        return None

    def next(self) -> TraceRecord:
        if self._index >= len(self._records):
            raise TraceSourceError("in-memory source exhausted")
        record = self._records[self._index]
        self._index += 1
        return record

    @property
    def consumed(self) -> int:
        return self._index

    @property
    def total_records(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Sequence[TraceRecord]:
        """The wrapped sequence (shared, not copied) — lets the
        specialized engine index it directly."""
        return self._records

    def fresh(self) -> InMemorySource:
        return InMemorySource(self._records)


class FileSource(TraceSource):
    """Streams a stored trace file with bounded memory.

    The header is parsed eagerly (so a bad file fails at construction,
    not mid-simulation); the payload is decoded lazily, one v2 segment
    or one v1 chunk at a time, with end-of-stream consistency checks
    (record count, committed count) exactly as in
    :func:`repro.trace.fileio.iter_trace_records`.  The cursor holds
    one decoded segment; inside an executing work unit, v2 segments
    also pass through the process-wide decoded-segment cache, whose
    fixed :data:`~repro.trace.fileio.DECODED_SEGMENT_CACHE_RECORDS`
    bound is the only extra memory.

    ``segments`` restricts the cursor to a slice of a v2 file's
    segment table — ``FileSource(path, segments=(lo, hi))`` replays
    segments ``lo..hi-1`` only, which is how sharded sweeps split one
    trace at segment boundaries.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        segments: tuple[int, int] | None = None,
    ) -> None:
        self._path = Path(path)
        self._header = read_trace_header(self._path)
        self._segments: tuple[TraceSegment, ...] | None = None
        self._range = segments
        if segments is not None:
            table = read_segment_table(self._path)
            lo, hi = segments
            if not (0 <= lo < hi <= len(table)):
                # `lo < hi` (not `<=`): an empty range replays zero
                # records but still looks like a successful run to
                # every consumer downstream — reject it here, matching
                # SlicePlan and the session spec validation.
                raise TraceSourceError(
                    f"segment range {segments} empty or outside the "
                    f"{len(table)}-segment table of {self._path}"
                )
            if self._header.version == 1 and (lo, hi) != (0, 1):
                raise TraceSourceError(
                    "segment-restricted reads need a v2 trace file")
            self._segments = table[lo:hi]
        self._iterator: Iterator[TraceRecord] | None = None
        self._lookahead: TraceRecord | None = None
        self._consumed = 0
        self._done = False

    @property
    def path(self) -> Path:
        return self._path

    @property
    def header(self) -> TraceFileHeader:
        return self._header

    def _fill(self) -> None:
        if self._lookahead is not None or self._done:
            return
        if self._iterator is None:
            if (self._segments is not None
                    and self._header.version != 1):
                self._iterator = iter_trace_records(
                    self._path, segments=self._segments)
            else:
                self._iterator = iter_trace_records(self._path)
        self._lookahead = next(self._iterator, None)
        if self._lookahead is None:
            self._done = True

    def peek(self) -> TraceRecord | None:
        self._fill()
        return self._lookahead

    def next(self) -> TraceRecord:
        self._fill()
        record = self._lookahead
        if record is None:
            raise TraceSourceError(f"trace file {self._path} exhausted")
        self._lookahead = None
        self._consumed += 1
        return record

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def total_records(self) -> int:
        if self._segments is not None:
            return sum(s.record_count for s in self._segments)
        return self._header.record_count

    def fresh(self) -> FileSource:
        return FileSource(self._path, segments=self._range)


def as_source(
    trace: TraceSource | Sequence[TraceRecord],
) -> TraceSource:
    """Coerce the engine's ``trace`` argument into a source."""
    if isinstance(trace, TraceSource):
        return trace
    return InMemorySource(trace)
