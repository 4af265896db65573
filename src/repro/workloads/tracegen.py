"""One shared entry point for turning a workload name into a trace.

Every trace-producing subsystem needs the same branch — "SPECINT
profile → synthetic generator, kernel → assemble + functional tracer"
— with the same front-end parameters threaded through (predictor, ROB,
IFQ, so trace and engine stay consistent).  The session facade, the
CLI, the benchmark harness, the multicore simulator and the sweep
runner all generate traces here, so a change to trace-generation
parameters happens in exactly one place.

Workloads are named components: the :data:`WORKLOADS` registry maps
each name to a trace source (:class:`SyntheticSource`,
:class:`KernelSource`, or anything with their ``start_pc`` and
streaming ``generate(..., sink=)`` methods), so new workloads (a new
profile, a new kernel, or an entirely new source kind) register once
and are immediately reachable from CLI flags, sweep specs, and
:class:`~repro.session.Simulation` specs.

A source's ``sink`` receives rows (:data:`repro.trace.record.ROW_FIELDS`):
the synthetic generator emits them directly, and a kernel's records
are handed over as their :func:`~repro.trace.record.record_row`.
:func:`write_workload_trace` packs and counts them a segment-sized
batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.functional.sim_bpred import SimBpred, TraceGenerationResult
from repro.session.simulation import SPEC_FIELDS
from repro.trace.fileio import DEFAULT_SEGMENT_RECORDS, SegmentedTraceWriter
from repro.trace.record import Row, record_row
from repro.trace.stats import TraceStatistics
from repro.utils.atomic import atomic_path
from repro.utils.registry import Registry
from repro.workloads.kernels import KERNELS, kernel_program
from repro.workloads.profiles import SPECINT_PROFILES, get_profile
from repro.workloads.synthetic import SyntheticWorkload

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.config import ProcessorConfig


class UnknownWorkloadError(ValueError):
    """Raised for a workload name that is neither a SPECINT profile
    nor an assembly kernel."""

    def __init__(self, workload: str) -> None:
        super().__init__(
            f"unknown workload {workload!r}; benchmarks: "
            f"{', '.join(SPECINT_PROFILES)}; kernels: "
            f"{', '.join(KERNELS)}"
        )


def build_tracer(config: ProcessorConfig) -> SimBpred:
    """A functional tracer wired to one processor config.

    The generator's predictor/ROB/IFQ parameters must match the
    engine's (the consistency contract of Section V.A); this is the
    single place that wiring happens.
    """
    return SimBpred(
        predictor_config=config.predictor,
        rob_entries=config.rob_entries,
        ifq_entries=config.ifq_entries,
    )


@dataclass(frozen=True)
class SyntheticSource:
    """A statistical SPECINT profile, traced by the synthetic
    generator (starts at the default text base → ``start_pc`` None)."""

    profile_name: str
    kind: str = "synthetic"

    def start_pc(self, config: ProcessorConfig) -> int | None:
        """Engine start PC, known before generation begins."""
        return None

    def generate(self, config: ProcessorConfig, *, budget: int,
                 seed: int, sink=None,
                 ) -> tuple[TraceGenerationResult, int | None]:
        synthetic = SyntheticWorkload(
            get_profile(self.profile_name), seed=seed,
            predictor_config=config.predictor,
            rob_entries=config.rob_entries,
            ifq_entries=config.ifq_entries,
        )
        return synthetic.generate(budget, sink=sink), None


@dataclass(frozen=True)
class KernelSource:
    """A real assembly kernel, assembled and traced through the
    functional simulator (runs to completion; budget/seed unused)."""

    kernel_name: str
    kind: str = "kernel"

    def start_pc(self, config: ProcessorConfig) -> int | None:
        """Engine start PC, known before generation begins."""
        return kernel_program(self.kernel_name).entry

    def generate(self, config: ProcessorConfig, *, budget: int,
                 seed: int, sink=None,
                 ) -> tuple[TraceGenerationResult, int | None]:
        program = kernel_program(self.kernel_name)
        tracer_sink = None if sink is None else _RecordRows(sink)
        generation = build_tracer(config).generate(program, sink=tracer_sink)
        if sink is not None:
            generation.records = sink
        return generation, program.entry


#: Workload registry: name → trace source.  Populated from the profile
#: and kernel tables at import; anything registered later (a custom
#: profile, a new source kind) is equally reachable by name.
WORKLOADS: Registry = Registry("workload")
for _name in SPECINT_PROFILES:
    WORKLOADS.register(_name, SyntheticSource(_name))
for _name in KERNELS:
    WORKLOADS.register(_name, KernelSource(_name))
del _name


def _resolve_source(workload: str):
    """Workload name → source."""
    if workload not in WORKLOADS:
        raise UnknownWorkloadError(workload)
    return WORKLOADS.get(workload)


def is_known_workload(workload: str) -> bool:
    """True for any name :func:`generate_workload_trace` accepts."""
    return workload in WORKLOADS


class _SegmentSink:
    """Collects generated rows about a segment at a time and folds each
    batch into a writer and a statistics record.

    The sink a source's ``generate(..., sink=)`` streams into when
    :func:`write_workload_trace` writes its trace: once it holds
    ``size`` rows (a segment, plus at most the rest of the wrong-path
    block that filled it), one loop packs the batch
    (:meth:`~repro.trace.fileio.SegmentedTraceWriter.extend_rows`) and
    one counts it (:meth:`~repro.trace.stats.TraceStatistics.observe_rows`).
    """

    def __init__(self, writer, stats: TraceStatistics, size: int) -> None:
        self._writer = writer
        self._stats = stats
        self._size = size
        self._rows: list[Row] = []

    def append(self, row: Row) -> None:
        self._rows.append(row)
        if len(self._rows) >= self._size:
            self.flush()

    def extend(self, rows) -> None:
        self._rows.extend(rows)
        if len(self._rows) >= self._size:
            self.flush()

    def flush(self) -> None:
        rows, self._rows = self._rows, []
        self._writer.extend_rows(rows)
        self._stats.observe_rows(rows)

    def __len__(self) -> int:
        return self._writer.record_count + len(self._rows)


class _RecordRows:
    """Hands a row sink the rows of the records a tracer appends."""

    def __init__(self, sink) -> None:
        self._sink = sink

    def append(self, record) -> None:
        self._sink.append(record_row(record))

    def extend(self, records) -> None:
        self._sink.extend(map(record_row, records))


@dataclass(frozen=True)
class WrittenTrace:
    """Outcome of :func:`write_workload_trace`."""

    path: Path
    record_count: int
    bytes_written: int
    start_pc: int | None
    trace_stats: TraceStatistics
    generation: TraceGenerationResult


def write_workload_trace(
    workload: str,
    config: ProcessorConfig,
    path: str | Path,
    *,
    budget: int = SPEC_FIELDS["budget"].default,
    seed: int = SPEC_FIELDS["seed"].default,
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
    extra: dict | None = None,
) -> WrittenTrace:
    """Generate a workload's trace straight into a segmented v2 file.

    The generator's rows are collected about a segment at a time;
    each batch is packed into a
    :class:`~repro.trace.fileio.SegmentedTraceWriter` and counted into
    the trace statistics — peak memory is one segment of rows, never
    the whole trace — which is what lets trace *files* exceed what a
    Python list of records could hold.  Metadata (predictor, workload,
    seed, start PC, plus ``extra``) is identical to the
    ``Simulation.save_trace`` path, so consumers cannot tell which
    path produced a file.

    The write is atomic: records stream to a temporary sibling that
    is renamed over ``path`` only on success, so a failure mid-
    generation (or mid-write) never destroys an existing trace at
    ``path`` and never leaves a half-written file behind.

    Raises
    ------
    UnknownWorkloadError
        If ``workload`` names neither a profile nor a kernel.
    """
    source = _resolve_source(workload)
    stats = TraceStatistics()
    # Start PC is declared up front so it can live in the header
    # metadata while records stream past it.
    start_pc = source.start_pc(config)
    metadata = dict(extra or {})
    if start_pc is not None:
        metadata.setdefault("start_pc", start_pc)
    target = Path(path)
    with atomic_path(target) as tmp, SegmentedTraceWriter(
        tmp, predictor=config.predictor, benchmark=workload,
        seed=seed, extra=metadata, segment_records=segment_records,
    ) as writer:
        sink = _SegmentSink(writer, stats, segment_records)
        generation, _ = source.generate(config, budget=budget, seed=seed,
                                        sink=sink)
        sink.flush()
    return WrittenTrace(
        path=target,
        record_count=writer.record_count,
        bytes_written=writer.bytes_written,
        start_pc=start_pc,
        trace_stats=stats,
        generation=generation,
    )


def generate_workload_trace(
    workload: str,
    config: ProcessorConfig,
    *,
    budget: int = SPEC_FIELDS["budget"].default,
    seed: int = SPEC_FIELDS["seed"].default,
) -> tuple[TraceGenerationResult, int | None]:
    """Generate the tagged trace for one workload name.

    Returns the generation result plus the engine start PC — a
    kernel's entry point, or ``None`` for synthetic workloads (which
    start at the default text base).  The generator's predictor/ROB/
    IFQ parameters are taken from ``config`` so the consistency
    contract (engine predictor == generation predictor) holds.

    Raises
    ------
    UnknownWorkloadError
        If ``workload`` names neither a profile nor a kernel.
    """
    return _resolve_source(workload).generate(config, budget=budget,
                                              seed=seed)
