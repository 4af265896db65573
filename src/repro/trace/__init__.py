"""The ReSim trace substrate.

ReSim's input is a *pre-decoded* trace with one record per dynamic
instruction (Section V.A of the paper).  Three formats are used —
**Branch (B)**, **Memory (M)** and **Other (O)** — each with its own
fields and bit length, and every format carries a **Tag bit** marking
mis-speculated (wrong-path) instructions.  Because the format is decoded
and generic, any ISA that can be described by it is supported; that is
what makes ReSim "almost ISA independent".

This package provides:

* :mod:`repro.trace.record` — the in-memory record types;
* :mod:`repro.trace.encode` — the bit-packed codec (Table 3 of the paper
  reports 41-47 *bits* per instruction, so the encoding is measured at
  bit granularity).  It holds the B/M/O field layout once, packs each
  record as one integer word, and has the one decode loop that every
  reader (in-memory, v1 chunks, v2 segments) goes through;
* :mod:`repro.trace.fileio` — the persistent trace-file format
  (segmented v2 plus the legacy v1), including the constant-memory
  :class:`~repro.trace.fileio.SegmentedTraceWriter` and the streaming
  reader :func:`~repro.trace.fileio.iter_trace_blocks`;
* :mod:`repro.trace.source` — the :class:`~repro.trace.source.TraceSource`
  block-fed cursor protocol the engines and every other consumer
  ingest traces through (in-memory, streamed file, segment range);
* :mod:`repro.trace.stats` — per-trace statistics (record mix, bits per
  instruction, wrong-path fraction) feeding the Table 3 reproduction;
* :mod:`repro.trace.analyze` — per-segment behaviour profiles (record
  mix, misprediction density, basic-block vectors) persisted as
  content-digest-keyed ``.rprof`` sidecars and an in-process memo, so
  each trace is profiled once — the measurement half of
  region-sampled simulation (:mod:`repro.exec.regions`);
* :mod:`repro.trace.wrongpath` — wrong-path block sizing and injection
  helpers shared by the functional and synthetic trace generators.
"""

from repro.trace.analyze import (
    DEFAULT_BBV_DIM,
    PROFILE_SCHEMA,
    ProfileError,
    SegmentProfile,
    TraceProfile,
    analyze_trace,
    ensure_profile,
    load_profile,
    profile_cache_info,
    profile_path,
    trace_content_digest,
    write_profile,
)
from repro.trace.fileio import (
    DEFAULT_SEGMENT_RECORDS,
    SegmentedTraceWriter,
    TraceFileError,
    TraceFileHeader,
    TraceSegment,
    iter_trace_blocks,
    iter_trace_records,
    read_segment_table,
    read_trace_file,
    read_trace_header,
    write_trace_file,
)
from repro.trace.encode import (
    TraceEncoder,
    decode_trace,
    encode_trace,
    record_bit_length,
)
from repro.trace.source import (
    FileSource,
    InMemorySource,
    TraceSource,
    TraceSourceError,
    as_source,
)
from repro.trace.record import (
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    RecordKind,
    TraceRecord,
)
from repro.trace.stats import TraceStatistics, measure_trace
from repro.trace.wrongpath import conservative_block_size

__all__ = [
    "BranchRecord",
    "DEFAULT_BBV_DIM",
    "DEFAULT_SEGMENT_RECORDS",
    "FileSource",
    "InMemorySource",
    "MemoryRecord",
    "OtherRecord",
    "PROFILE_SCHEMA",
    "ProfileError",
    "RecordKind",
    "SegmentProfile",
    "SegmentedTraceWriter",
    "TraceEncoder",
    "TraceFileError",
    "TraceFileHeader",
    "TraceRecord",
    "TraceSegment",
    "TraceProfile",
    "TraceSource",
    "TraceSourceError",
    "TraceStatistics",
    "analyze_trace",
    "as_source",
    "conservative_block_size",
    "decode_trace",
    "encode_trace",
    "ensure_profile",
    "iter_trace_blocks",
    "iter_trace_records",
    "load_profile",
    "measure_trace",
    "profile_cache_info",
    "profile_path",
    "read_segment_table",
    "read_trace_file",
    "read_trace_header",
    "record_bit_length",
    "trace_content_digest",
    "write_profile",
    "write_trace_file",
]
