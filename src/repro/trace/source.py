"""Block-fed trace sources — streaming ingestion for the engine.

ReSim's hardware reads its trace through an input FIFO whose
deserializer decodes one record per minor cycle and never holds the
whole trace.  A :class:`TraceSource` is the software equivalent: a
forward-only cursor over decoded **blocks**, one held at a time.
:class:`InMemorySource` holds one block, the live sequence itself (a
*growing* list, which the streaming co-simulation driver appends to,
shows its new records); :class:`FileSource` holds one decoded v2
segment or v1 chunk of a stored ``.rtrc`` file at a time, from
:func:`repro.trace.fileio.iter_trace_blocks`, so memory is bounded by
the segment size, not the trace length.

A held block has two views on one cursor.  The generated engine
(:mod:`repro.core.specialize`) takes the **row** view:
:meth:`~TraceSource.rows` hands out the held block as plain field rows
(:data:`repro.trace.record.ROW_FIELDS`) and the cursor's index into
it, the engine indexes it as a plain sequence, and it calls back only
at block ends and once, through :meth:`~TraceSource.seek`, when the
run stops.  The reference engine
(:class:`~repro.core.engine.ReSimEngine`) and step-wise drivers take
the **record** view, :meth:`~TraceSource.block` and
:meth:`~TraceSource.peek`/:meth:`~TraceSource.next`.  A file decodes
to rows and builds a block's records only when a record view asks for
them; an in-memory sequence is records and converts to rows only when
the row view asks.  Both views move one position
(:attr:`~TraceSource.consumed`) through the same file checks, so both
tiers see the same records.  A sequence passed to an engine is
wrapped in an :class:`InMemorySource`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from pathlib import Path
from collections.abc import Iterator, Sequence

from repro.trace.fileio import (
    DEFAULT_SEGMENT_RECORDS,
    TraceFileHeader,
    TraceLayout,
    TraceSegment,
    iter_trace_blocks,
    read_trace_layout,
)
from repro.trace.record import Row, TraceRecord, record_row, row_record


#: Rows an :class:`InMemorySource` converts at a time: as many as a
#: default v2 segment holds.
ROW_CHUNK = DEFAULT_SEGMENT_RECORDS


class TraceSourceError(ValueError):
    """Raised for misused or exhausted trace sources."""


class TraceSource(ABC):
    """A forward-only cursor over decoded blocks, which subclasses
    supply through :meth:`_load` and expose as records
    (:meth:`_records`) and as rows (:meth:`_rows`).

    :attr:`total_records` is the best current estimate of the stream
    length (exact for files, live for growing lists), for cycle
    budgets and progress reporting, never for termination.
    """

    _block: Sequence = ()  # the held block, records or rows
    _index = 0  # the cursor, within _block
    _base = 0   # records consumed before _block

    @abstractmethod
    def _load(self) -> bool:
        """Replace the held block with the next one (``_base`` grows by
        the held block's length, ``_index`` restarts at 0); False, with
        nothing changed, when no further block is available now."""

    @abstractmethod
    def _records(self) -> Sequence[TraceRecord]:
        """The held block as records."""

    @abstractmethod
    def _rows(self) -> Sequence[Row]:
        """The held block as rows, index for index."""

    def _advance(self) -> None:
        """Move past used-up blocks."""
        while self._index >= len(self._block) and self._load():
            pass

    def block(self) -> tuple[Sequence[TraceRecord], int]:
        """The held block's records and the cursor's index into them,
        after moving past used-up blocks.  An index at the block's end
        means no record is available *right now* (a growing in-memory
        stream may produce more later; a file is done)."""
        self._advance()
        return self._records(), self._index

    def rows(self) -> tuple[Sequence[Row], int]:
        """:meth:`block` in the row layout: the held block's rows and
        the cursor's index into them, on the same cursor."""
        self._advance()
        return self._rows(), self._index

    def seek(self, index: int) -> None:
        """Move the cursor to ``index`` of the held block; the records
        before it count as consumed."""
        if not self._index <= index <= len(self._block):
            raise TraceSourceError(
                f"cannot seek to {index}: the cursor is at "
                f"{self._index} of a {len(self._block)}-record block")
        self._index = index

    def peek(self) -> TraceRecord | None:
        """The next record, or ``None`` if none is available."""
        block, index = self.block()
        return block[index] if index < len(block) else None

    def next(self) -> TraceRecord:
        """Consume and return the next record (:class:`TraceSourceError`
        if the source is exhausted)."""
        record = self.peek()
        if record is None:
            raise TraceSourceError(f"{type(self).__name__} exhausted")
        self._index += 1
        return record

    def peek_is_tagged(self) -> bool:
        """True when the next record exists and is wrong-path."""
        record = self.peek()
        return record is not None and record.tag

    @property
    def consumed(self) -> int:
        """Records consumed so far."""
        return self._base + self._index

    @property
    @abstractmethod
    def total_records(self) -> int:
        """Best current estimate of the stream length (see class doc)."""

    @property
    def exhausted(self) -> bool:
        """True when no record is available right now."""
        return self.peek() is None

    @abstractmethod
    def fresh(self) -> TraceSource:
        """An independent cursor over the same stream, rewound to the
        start."""

    def __iter__(self) -> Iterator[TraceRecord]:
        """Consume the remaining records, a block at a time."""
        block, index = self.block()
        while index < len(block):
            for index in range(index, len(block)):
                self._index = index + 1
                yield block[index]
            block, index = self.block()


class InMemorySource(TraceSource):
    """Cursor over a record sequence already in memory.

    The sequence is its one block — referenced, not copied, and its
    length read live: appending to the underlying list makes the new
    records visible, which is exactly how the streaming co-simulation
    driver models its flow-controlled input FIFO.

    The row view indexes like the sequence, but holds at most
    :data:`ROW_CHUNK` converted rows: each time the cursor uses up the
    converted ones, the rows behind it are released (left as None)
    and the next chunk from the cursor on is converted, so a
    specialized run over records costs one chunk of rows, not a copy
    of the trace.
    """

    def __init__(self, records: Sequence[TraceRecord]) -> None:
        self._block = records
        self._converted: list[Row | None] = []
        self._released = 0  # rows before this index are None

    def _load(self) -> bool:
        return False

    def _records(self) -> Sequence[TraceRecord]:
        return self._block

    def _rows(self) -> Sequence[Row | None]:
        rows, index = self._converted, self._index
        if len(rows) <= index < len(self._block):
            done = self._released
            rows[done:] = repeat(None, len(rows) - done)
            rows += repeat(None, index - len(rows))
            rows += map(record_row, self._block[index:index + ROW_CHUNK])
            self._released = index
        return rows

    @property
    def total_records(self) -> int:
        return len(self._block)

    def fresh(self) -> InMemorySource:
        return InMemorySource(self._block)


class FileSource(TraceSource):
    """Streams a stored trace file with bounded memory.

    The header and segment table are parsed and validated once, at
    construction (so a bad file fails there, not mid-simulation), and
    every :meth:`fresh` cursor shares that parse; the blocks are
    decoded lazily, as rows, by
    :func:`repro.trace.fileio.iter_trace_blocks`, with its per-segment
    and end-of-stream checks and its decoded-segment cache.  A block's
    records are built once, when the record view first asks.

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
        path = Path(path)
        layout = read_trace_layout(path)
        selected: tuple[TraceSegment, ...] | None = None
        if segments is not None:
            table = layout.segments
            lo, hi = segments
            if not (0 <= lo < hi <= len(table)):
                # `lo < hi` (not `<=`): an empty range replays zero
                # records but still looks like a successful run to
                # every consumer downstream — reject it here, matching
                # SlicePlan and the session spec validation.
                raise TraceSourceError(
                    f"segment range {segments} empty or outside the "
                    f"{len(table)}-segment table of {path}"
                )
            if layout.header.version != 1:
                selected = table[lo:hi]
            elif (lo, hi) != (0, 1):
                raise TraceSourceError(
                    "segment-restricted reads need a v2 trace file")
        self._start(path, layout, selected)

    def _start(self, path: Path, layout: TraceLayout,
               segments: tuple[TraceSegment, ...] | None) -> None:
        self._path = path
        self._layout = layout  # immutable: shared by fresh() cursors
        self._segments = segments
        self._blocks: Iterator[Sequence[Row]] | None = None
        self._block_records: list[TraceRecord] | None = []

    @property
    def path(self) -> Path:
        return self._path

    @property
    def header(self) -> TraceFileHeader:
        return self._layout.header

    def _load(self) -> bool:
        if self._blocks is None:
            self._blocks = iter_trace_blocks(self._path,
                                             segments=self._segments,
                                             layout=self._layout)
        block = next(self._blocks, None)
        if block is None:
            return False
        self._base += len(self._block)
        self._block, self._block_records, self._index = block, None, 0
        return True

    def _records(self) -> Sequence[TraceRecord]:
        if self._block_records is None:
            self._block_records = list(map(row_record, self._block))
        return self._block_records

    def _rows(self) -> Sequence[Row]:
        return self._block

    @property
    def total_records(self) -> int:
        if self._segments is not None:
            return sum(s.record_count for s in self._segments)
        return self._layout.header.record_count

    def fresh(self) -> FileSource:
        source = FileSource.__new__(FileSource)
        source._start(self._path, self._layout, self._segments)
        return source


def as_source(
    trace: TraceSource | Sequence[TraceRecord],
) -> TraceSource:
    """Coerce the engine's ``trace`` argument into a source."""
    if isinstance(trace, TraceSource):
        return trace
    return InMemorySource(trace)
