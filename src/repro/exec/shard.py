"""Shard planning: split one run into exact segment-range slices.

The paper's bulk mode simulates one prepared trace across a whole
design grid, and a point that runs as one unit makes the longest trace
the slowest axis of a sweep no matter how many workers sit idle.
:func:`plan_shards` splits a point's v2 trace file into ``N``
contiguous **segment-range** shards (the ranges
:class:`~repro.trace.source.FileSource` replays), balanced by record
count and snapped to entries of
:func:`~repro.trace.fileio.read_segment_table`.  It returns an exact
:class:`~repro.exec.slice.SlicePlan`; :mod:`repro.exec.slice` runs the
shards as work units on any backend and merges their results back into
one point result.

Exact vs. approximate
---------------------
Shards start **cold** (empty caches and predictors, pipeline drained,
a fetch PC realigned only at the first committed taken branch), which
makes a merged result a form of sampled simulation in the spirit of
ChampSim's warmup/ROI regioning and the RIKEN Post-K simulator's
MPI-parallel region decomposition (see PAPERS.md).  The engine's
counters split into two classes:

* **exact-sum** — trace-authoritative counts that every record
  contributes exactly once regardless of where the trace is cut:
  ``committed_instructions``, ``committed_branches``,
  ``committed_loads``, ``committed_stores``, ``taken_branches`` and
  ``trace_records_consumed`` for *any* segment split, plus
  ``mispredictions`` when boundaries are **clean** (the planner below
  guarantees it) — the conformance suite asserts exact equality;
* **approximate** — anything cycle-, PC- or warm-state-dependent:
  ``major_cycles`` (hence IPC), stall cycles, the fetched/discarded
  wrong-path split, cache and misfetch counts, occupancy averages.
  The conformance suite bounds the monolithic-vs-sharded IPC delta
  instead of pretending bit-identity; each shard honors the existing
  warmup controls (``warmup_instructions`` in the spec) for callers
  who want to trade exact sums for warmer state.

A boundary is *clean* when the first record of its segment is on the
correct path (untagged).  A dirty boundary would cut a branch from its
wrong-path block — the branch's shard could no longer see the tag that
*is* the misprediction signal — so the planner probes boundary
segments and slides each cut to the nearest clean segment.  Wrong-path
blocks are generation-bounded to far fewer records than one segment,
so a clean boundary always exists within a step or two.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path

from repro.exec.slice import Slice, SlicePlan
from repro.exec.unit import ExecError
from repro.trace.fileio import (
    TraceLayout,
    iter_trace_blocks,
    read_trace_layout,
)
from repro.trace.record import ROW_TAG

#: Counters whose shard-wise sums equal the monolithic run's exactly
#: (``mispredictions`` requires the planner's clean boundaries; the
#: rest hold for any segment split).  The conformance suite and the CI
#: smoke job assert equality over this set.
EXACT_SUM_COUNTERS = (
    "committed_instructions",
    "committed_branches",
    "committed_loads",
    "committed_stores",
    "taken_branches",
    "trace_records_consumed",
    "mispredictions",
)


def _segment_is_clean(path: str | Path,
                      layout: TraceLayout,
                      index: int,
                      cache: dict[int, bool]) -> bool:
    """True when segment ``index`` starts on the correct path.

    Probing decodes just that segment's payload (bounded by the
    segment size); results are memoized per plan.
    """
    if index not in cache:
        blocks = iter_trace_blocks(
            path, segments=layout.segments[index:index + 1], layout=layout)
        rows = next(blocks, ())
        blocks.close()
        cache[index] = not rows or not rows[0][ROW_TAG]
    return cache[index]


def plan_shards(trace_path: str | Path, shards: int) -> SlicePlan:
    """Split a trace file's segment table into ``shards`` clean,
    record-balanced contiguous ranges: an exact slice plan (see module
    docstring).

    Fewer ranges than requested are returned when the table is too
    small to split (one segment per shard is the floor), so callers
    can always honor a plan without special-casing tiny traces.
    """
    if shards < 1:
        raise ExecError(f"shards must be >= 1, got {shards}")
    layout = read_trace_layout(trace_path)
    table = layout.segments
    counts = [segment.record_count for segment in table]
    cumulative = [0]
    for count in counts:
        cumulative.append(cumulative[-1] + count)
    total = cumulative[-1]
    segments = len(table)
    effective = min(shards, segments)
    cache: dict[int, bool] = {}
    boundaries: list[int] = []
    previous = 0
    for k in range(1, effective):
        if previous + 1 > segments - 1:
            break  # earlier snaps used up the remaining boundaries
        target = (total * k) // effective
        candidate = bisect_left(cumulative, target)
        candidate = min(max(candidate, previous + 1), segments - 1)
        # Nearest clean segment in *either* direction (forward wins
        # ties).  Scanning all the way forward before ever looking
        # backward would let one dirty stretch push this boundary far
        # past later targets and starve the trailing shards down to
        # single segments.  Backward stops at previous + 1 (a boundary
        # equal to the previous one would make an empty shard);
        # forward stops at segments - 1 (the last segment belongs to
        # the final shard).
        clean = None
        for distance in range(segments):
            forward = candidate + distance
            if forward <= segments - 1 and _segment_is_clean(
                    trace_path, layout, forward, cache):
                clean = forward
                break
            backward = candidate - distance
            if distance and backward >= previous + 1 \
                    and _segment_is_clean(
                        trace_path, layout, backward, cache):
                clean = backward
                break
        if clean is None:
            continue  # no clean cut in this span: merge into neighbor
        boundaries.append(clean)
        previous = clean
    edges = [0, *boundaries, segments]
    return SlicePlan(str(trace_path), segments, total, tuple(
        Slice(index, lo, hi, warm_lo=lo, warmup_instructions=0,
              records=cumulative[hi] - cumulative[lo])
        for index, (lo, hi)
        in enumerate(zip(edges, edges[1:], strict=False))))
