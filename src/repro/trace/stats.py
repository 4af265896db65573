"""Trace statistics — the measurement side of Table 3.

Table 3 of the paper reports, per benchmark: average trace **bits per
instruction** (41.16-47.14), simulation throughput *including
mis-speculated instructions*, and the resulting input **trace bandwidth
in MBytes/second**.  The bandwidth column is simply
``MIPS x bits-per-instruction / 8``; this module supplies the
bits-per-instruction and record-mix measurements that feed it.

The statistics fold rows (:data:`repro.trace.record.ROW_FIELDS`), the
form trace generation produces, a batch at a time
(:meth:`TraceStatistics.observe_rows`); :meth:`~TraceStatistics.observe`
and :func:`measure_trace` fold records through their rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.trace.encode import FORMAT_BITS
from repro.trace.record import RecordKind, Row, TraceRecord, record_row

_BRANCH_CODE, _MEMORY_CODE = RecordKind.BRANCH.value, RecordKind.MEMORY.value


@dataclass
class TraceStatistics:
    """Aggregate measurements over a record stream."""

    total_records: int = 0
    total_bits: int = 0
    wrong_path_records: int = 0
    kind_counts: dict[RecordKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in RecordKind}
    )
    store_count: int = 0
    taken_branches: int = 0

    def observe_rows(self, rows: Iterable[Row]) -> None:
        """Fold a batch of rows into the statistics (flags count by
        truthiness)."""
        counts = [0] * len(RecordKind)
        wrong_path = stores = taken = 0
        for kind, tag, _, _, _, _, f1, f2, _ in rows:
            counts[kind] += 1
            if tag:
                wrong_path += 1
            if kind == _MEMORY_CODE:
                if f1:
                    stores += 1
            elif kind == _BRANCH_CODE and f2:
                taken += 1
        for kind in RecordKind:
            self.kind_counts[kind] += counts[kind]
            self.total_bits += counts[kind] * FORMAT_BITS[kind]
        self.total_records += sum(counts)
        self.wrong_path_records += wrong_path
        self.store_count += stores
        self.taken_branches += taken

    def observe(self, record: TraceRecord) -> None:
        """Fold one record into the statistics."""
        self.observe_rows((record_row(record),))

    # -- derived quantities -------------------------------------------

    @property
    def correct_path_records(self) -> int:
        return self.total_records - self.wrong_path_records

    @property
    def bits_per_instruction(self) -> float:
        """Average encoded bits per dynamic instruction (Table 3 col. 1)."""
        if self.total_records == 0:
            return 0.0
        return self.total_bits / self.total_records

    @property
    def wrong_path_fraction(self) -> float:
        """Fraction of trace records that are wrong-path (paper: ~10%)."""
        if self.total_records == 0:
            return 0.0
        return self.wrong_path_records / self.total_records

    def kind_fraction(self, kind: RecordKind) -> float:
        """Fraction of records of the given format."""
        if self.total_records == 0:
            return 0.0
        return self.kind_counts[kind] / self.total_records

    def bandwidth_mbytes_per_sec(self, mips: float) -> float:
        """Trace input bandwidth needed at a given simulation rate.

        Parameters
        ----------
        mips:
            Simulation throughput in millions of trace instructions per
            second, *including* wrong-path records (Table 3 col. 2).

        Returns
        -------
        float
            Required trace bandwidth in MBytes/s (Table 3 col. 3).
        """
        return mips * self.bits_per_instruction / 8.0

    def summary(self) -> str:
        """Human-readable one-trace report."""
        lines = [
            f"records              : {self.total_records}",
            f"  other              : {self.kind_counts[RecordKind.OTHER]}",
            f"  memory             : {self.kind_counts[RecordKind.MEMORY]}"
            f" ({self.store_count} stores)",
            f"  branch             : {self.kind_counts[RecordKind.BRANCH]}"
            f" ({self.taken_branches} taken)",
            f"wrong-path records   : {self.wrong_path_records}"
            f" ({100.0 * self.wrong_path_fraction:.1f}%)",
            f"bits per instruction : {self.bits_per_instruction:.2f}",
        ]
        return "\n".join(lines)


def measure_trace(records: Iterable[TraceRecord]) -> TraceStatistics:
    """Measure a full record stream (convenience wrapper)."""
    stats = TraceStatistics()
    stats.observe_rows(map(record_row, records))
    return stats
