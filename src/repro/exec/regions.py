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
:class:`~repro.exec.slice.SlicePlan`, the same plan type
:func:`~repro.exec.shard.plan_shards` returns, so region units run and
reduce through :mod:`repro.exec.slice` like shards do.  Unlike a shard
merge, a region merge is an **estimate**: the conformance suite
measures its IPC error against full runs and documents the bound
(:data:`IPC_ERROR_BOUND`).  Sampled results are never mistaken for
exact ones: merged documents carry a top-level ``"sampled"`` summary,
region unit specs differ from full-run specs (``segments`` and
``warmup_instructions`` both survive canonicalization, keying the
campaign cache apart), and sweep manifests record the sampling mode.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.slice import Slice, SlicePlan
from repro.exec.unit import ExecError
from repro.trace.analyze import TraceProfile
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
    warmup_segments)`` — same inputs, same plan, on any host.  Fewer
    regions than requested are returned when the trace has fewer
    segments.
    """
    if regions < 1:
        raise ExecError(f"regions must be >= 1, got {regions}")
    if warmup_segments < 0:
        raise ExecError(
            f"warmup_segments must be >= 0, got {warmup_segments}")
    segments = profile.segments
    if not segments:
        raise ExecError(f"trace {trace_path} profiles zero segments")
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
    return SlicePlan(
        trace_path=str(trace_path),
        total_segments=len(segments),
        total_records=profile.total_records,
        slices=tuple(built),
        trace_digest=profile.digest,
        seed=seed,
    )
