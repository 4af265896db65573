"""Region-sampled design-point execution: simulate representatives,
extrapolate the rest.

Sharded execution (:mod:`repro.exec.shard`) still replays **every**
record of a trace, just in parallel; for long traces most segments are
statistically redundant, so ROADMAP's region-sampling direction —
SimPoint's insight, institutionalized by ChampSim's warmup/ROI
regioning and validated with error bounds by the RIKEN Post-K
simulator (PAPERS.md) — estimates a design point from a few
*representative* segment ranges instead:

* **cluster**: deterministic k-means (an explicit
  :class:`~repro.utils.rng.XorShiftRNG` seed, sorted iteration — the
  same determinism contract resim-lint enforces everywhere else)
  groups the per-segment profiles of :mod:`repro.trace.analyze` by
  behaviour (record mix, misprediction density, BBV);
* **sample**: each cluster contributes one representative segment —
  the member nearest its centroid — carrying the cluster's *size* as
  an integer weight, prefixed by warmup segments replayed under the
  engine's existing ``warmup_instructions`` control (simulated to
  warm predictors/caches, excluded from statistics);
* **extrapolate**: the per-region results reduce through the weighted
  :meth:`SimulationStatistics.merge
  <repro.core.stats.SimulationStatistics.merge>` — each region's
  counters scale by its cluster weight, so the merged document
  estimates the full-trace run while executing only the
  representatives.

:func:`plan_regions` returns a weighted
:class:`~repro.exec.slice.SlicePlan`, so region units run and reduce
like shards (:mod:`repro.exec.slice`), but their merge is an
**estimate**: the conformance suite bounds its IPC error against full
runs (:data:`IPC_ERROR_BOUND`), and the ``"sampled"`` marker of merged
documents, the unit specs (``segments`` and ``warmup_instructions``
key the campaign cache apart) and sweep manifests all say so.

A plan is a pure function of the profile's counts and the planning
parameters, so each process clusters a trace at most once: a memo
keyed by that content (never by the trace's path or digest alone)
hands a repeated plan — a new sweep runner, a second served job, the
same bytes linked into another directory — its slices without
running k-means again.  Only a process that plans one profile more
than once gains from it; ``resim sweep`` and ``resim simulate`` plan
each trace once.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.slice import Slice, SlicePlan
from repro.exec.unit import ExecError
from repro.trace.analyze import SegmentProfile, TraceProfile
from repro.utils.memo import BoundedMemo
from repro.utils.rng import XorShiftRNG

#: Default number of regions (k-means clusters) a sampled run executes.
DEFAULT_REGIONS = 8

#: Default warmup prefix, in segments, replayed before each
#: representative to warm predictors and caches.
DEFAULT_WARMUP_SEGMENTS = 1

#: Documented relative IPC error bound of a region-sampled run against
#: the full replay, for the default parameters on the synthetic
#: workloads (the conformance suite and the CI smoke job assert it).
#: Sampling error is workload-dependent; callers needing exactness use
#: sharded execution instead.
IPC_ERROR_BOUND = 0.15

#: k-means iteration cap; assignments converge far earlier in practice.
_KMEANS_ITERATIONS = 25

#: Plans the in-process memo holds at most (least recently used first
#: out).  An entry is one plan's few slices.
PLAN_MEMO_ENTRIES = 32


def _sqdist(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b, strict=True))


def _centroid(vectors: list[tuple[float, ...]],
              members: list[int]) -> tuple[float, ...]:
    count = len(members)
    dims = len(vectors[0])
    return tuple(
        sum(vectors[member][axis] for member in members) / count
        for axis in range(dims))


def _kmeans(vectors: list[tuple[float, ...]], clusters: int,
            rng: XorShiftRNG) -> list[int]:
    """Deterministic k-means over the segment feature vectors.

    k-means++ style seeding driven by the caller's
    :class:`XorShiftRNG`, then plain Lloyd iterations with
    index-ordered tie-breaking — every step iterates lists in index
    order, so a fixed seed yields one assignment on every platform.
    Returns the cluster index of each vector.
    """
    count = len(vectors)
    clusters = min(clusters, count)
    centers: list[tuple[float, ...]] = [
        vectors[rng.randint(0, count - 1)]]
    nearest = [_sqdist(vector, centers[0]) for vector in vectors]
    while len(centers) < clusters:
        total = sum(nearest)
        if total <= 0.0:
            # Remaining vectors coincide with a center; spread the
            # leftover centers over distinct indices deterministically.
            taken = {tuple(center) for center in centers}
            extras = [index for index in range(count)
                      if tuple(vectors[index]) not in taken]
            for index in extras[:clusters - len(centers)]:
                centers.append(vectors[index])
            break
        draw = rng.random() * total
        acc = 0.0
        pick = count - 1
        for index in range(count):
            acc += nearest[index]
            if draw < acc:
                pick = index
                break
        centers.append(vectors[pick])
        nearest = [min(old, _sqdist(vectors[index], centers[-1]))
                   for index, old in enumerate(nearest)]
    assignment = [0] * count
    for _ in range(_KMEANS_ITERATIONS):
        changed = False
        for index in range(count):
            best = min(
                range(len(centers)),
                key=lambda c: (_sqdist(vectors[index], centers[c]), c))
            if assignment[index] != best:
                assignment[index] = best
                changed = True
        for cluster in range(len(centers)):
            members = [index for index in range(count)
                       if assignment[index] == cluster]
            if members:
                centers[cluster] = _centroid(vectors, members)
        if not changed:
            break
    return assignment


#: ``(bbv_dim, every segment's counts, regions, seed,
#: warmup_segments) -> slices``; the plan's path and trace digest
#: come from each caller.
_PLANS: BoundedMemo[tuple, tuple[Slice, ...]] = \
    BoundedMemo("region plans", PLAN_MEMO_ENTRIES)

#: Hit/miss/size counters of the in-process plan memo.  Process
#: telemetry only: never part of any statistics or result document.
plan_cache_info = _PLANS.info
#: Drop every memoized plan and zero the counters (test isolation).
clear_plan_cache = _PLANS.clear


def _profile_counts(segments: list[SegmentProfile]) -> tuple[int, ...]:
    """Every count a plan reads, segment by segment.  Each segment
    contributes eight counts and ``bbv_dim`` BBV entries, so with the
    BBV size beside it the tuple keys a plan without ambiguity."""
    counts: list[int] = []
    for s in segments:
        counts += (s.records, s.committed, s.wrong_path,
                   s.wrong_path_blocks, s.branches, s.taken_branches,
                   s.loads, s.stores)
        counts += s.bbv
    return tuple(counts)


def _plan_slices(segments: list[SegmentProfile], regions: int,
                 seed: int, warmup_segments: int) -> tuple[Slice, ...]:
    """Cluster the segment profiles and build one warmup-prefixed,
    weighted slice per cluster (see module docstring)."""
    vectors = [segment.features() for segment in segments]
    assignment = _kmeans(vectors, regions, XorShiftRNG(seed))
    clusters = sorted(set(assignment))
    chosen: list[tuple[int, int]] = []  # (representative, weight)
    for cluster in clusters:
        members = [index for index in range(len(segments))
                   if assignment[index] == cluster]
        centroid = _centroid(vectors, members)
        representative = min(
            members, key=lambda m: (_sqdist(vectors[m], centroid), m))
        chosen.append((representative, len(members)))
    chosen.sort()
    built: list[Slice] = []
    previous_hi = 0
    for position, (representative, weight) in enumerate(chosen):
        # The warmup prefix may not reach into the previous region's
        # measured range — ranges stay disjoint so every executed
        # record belongs to exactly one unit.
        warm_lo = max(previous_hi, representative - warmup_segments)
        warmup = sum(segments[index].committed
                     for index in range(warm_lo, representative))
        executed = sum(segments[index].records
                       for index in range(warm_lo, representative + 1))
        built.append(Slice(
            index=position,
            lo=representative,
            hi=representative + 1,
            warm_lo=warm_lo,
            warmup_instructions=warmup,
            records=executed,
            weight=weight,
        ))
        previous_hi = representative + 1
    return tuple(built)


def plan_regions(
    trace_path: str | Path,
    profile: TraceProfile,
    *,
    regions: int = DEFAULT_REGIONS,
    seed: int = 0,
    warmup_segments: int = DEFAULT_WARMUP_SEGMENTS,
) -> SlicePlan:
    """Cluster a trace's segment profiles and pick one weighted
    representative range per cluster (see module docstring).

    The plan is a pure function of ``(profile, regions, seed,
    warmup_segments)`` — same inputs, same plan, on any host — so its
    slices are memoized per process under the profile's counts and
    the parameters; ``trace_path`` and the profile's digest only label
    the returned plan.  Fewer regions than requested are returned when
    the trace has fewer segments.
    """
    if regions < 1:
        raise ExecError(f"regions must be >= 1, got {regions}")
    if warmup_segments < 0:
        raise ExecError(
            f"warmup_segments must be >= 0, got {warmup_segments}")
    segments = profile.segments
    if not segments:
        raise ExecError(f"trace {trace_path} profiles zero segments")
    key = (profile.bbv_dim, _profile_counts(segments), regions, seed,
           warmup_segments)
    slices = _PLANS.get(key)
    if slices is None:
        slices = _PLANS.put(
            key, _plan_slices(segments, regions, seed, warmup_segments))
    return SlicePlan(
        trace_path=str(trace_path),
        total_segments=len(segments),
        total_records=profile.total_records,
        slices=slices,
        trace_digest=profile.digest,
        seed=seed,
    )
