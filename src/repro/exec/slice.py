"""One slice plan, one reducer: split a design point, merge it back.

A design point over a stored v2 trace can run as several work units,
each replaying a segment range (a *slice*) of the trace, whose result
documents then reduce into one point result.  Two planners produce
such splits:

* :func:`~repro.exec.shard.plan_shards` (``--shards``) cuts the segment
  table into contiguous, clean, record-balanced ranges.  Every record
  runs exactly once, so the merged exact-sum counters equal the
  monolithic run's: an **exact** plan;
* :func:`~repro.exec.regions.plan_regions` (``--sample-regions``) picks
  one warmup-prefixed representative segment per behaviour cluster and
  weights it by the cluster's size: an **estimate**.

Both return one frozen :class:`SlicePlan`, and
:func:`~repro.exec.point.choose_plan` picks one.  :func:`slice_units`
turns it into work units for any backend, and :class:`SliceReducer`
merges their result documents (:func:`merge_slice_documents`) into
the point's checkpoint, so split sweeps resume like monolithic ones.

A plan is exact if and only if it has no weights.  Exactness changes
only names and keys, all listed in the two :class:`SliceKind` rows
below (:data:`SHARD` and :data:`REGION`): estimates must never be
mistaken for exact results, so every unit, tag and merged document
says which kind it is.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.core.stats import SimulationStatistics
from repro.exec.unit import (
    ExecError,
    RESULT_SCHEMA,
    WorkUnit,
    atomic_write_json,
    tierless_spec,
)
from repro.serialize import stats_from_dict, stats_to_dict


@dataclass(frozen=True)
class SliceKind:
    """The names and keys one kind of slice carries."""

    #: Unit-id and result-path infix: ``<unit>.<letter><K>of<N>``.  The
    #: count is part of the id, so re-planning with other parameters
    #: can never revive a previous plan's per-slice results.
    letter: str
    #: Per-slice tag key in unit tags and result documents.
    tag: str
    #: Top-level key of the merged point document.
    marker: str
    #: Spec keys a slice sets; the base unit may not carry them, and
    #: the merge's run-identity check ignores them.
    slice_keys: tuple[str, ...]
    #: The marker's value from (documents, provenance entries, sum of
    #: weights).
    summary: Callable[[int, int, int], dict[str, int]]

    def unit_id(self, unit_id: str, index: int, count: int) -> str:
        """Stable id of slice ``index`` of ``count`` of a unit (also
        the stem of its queue and result files)."""
        return f"{unit_id}.{self.letter}{index}of{count}"


#: Exact plans (no weights).
SHARD = SliceKind(
    letter="s", tag="shard", marker="sharded",
    slice_keys=("segments",),
    summary=lambda documents, entries, _: {"shards": entries,
                                           "documents": documents})

#: Weighted plans: estimates.
REGION = SliceKind(
    letter="r", tag="region", marker="sampled",
    slice_keys=("segments", "warmup_instructions"),
    summary=lambda documents, _, segments: {"regions": documents,
                                            "segments": segments})


def kind_of(document: Mapping) -> SliceKind | None:
    """The kind of a per-slice or merged result document, from its
    tag or marker; ``None`` for a document of neither kind."""
    for kind in (SHARD, REGION):
        if kind.tag in document or kind.marker in document:
            return kind
    return None


@dataclass(frozen=True)
class Slice:
    """One slice of a trace.

    ``[lo, hi)`` is the measured segment range (statistics counted);
    ``[warm_lo, lo)`` is a warmup prefix, replayed but not counted,
    whose committed instruction count is ``warmup_instructions``;
    ``records`` is the number of records executed, prefix included.
    ``weight`` is the number of trace segments the slice stands for in
    a weighted plan, and ``None`` in an exact one.
    """

    index: int
    lo: int
    hi: int
    warm_lo: int
    warmup_instructions: int
    records: int
    weight: int | None = None


@dataclass(frozen=True)
class SlicePlan:
    """How one trace file splits into slices.

    ``total_segments``/``total_records`` describe the whole trace, so
    coverage (the fraction of records a split run executes) is a
    property of the plan.  An exact plan's slices are contiguous and
    cover the trace; a weighted plan's slices are disjoint and their
    weights sum to the segment count, since every segment extrapolates
    from exactly one slice.  ``trace_digest`` and ``seed`` record what
    a sampled plan was computed from.
    """

    trace_path: str
    total_segments: int
    total_records: int
    slices: tuple[Slice, ...]
    trace_digest: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.slices:
            raise ExecError("malformed slice plan: no slices")
        previous = 0
        for position, piece in enumerate(self.slices):
            if piece.index != position or piece.warmup_instructions < 0 \
                    or not previous <= piece.warm_lo <= piece.lo \
                    < piece.hi <= self.total_segments:
                raise ExecError(
                    f"slice {position} {piece} is not a disjoint, "
                    f"ascending span of the trace's "
                    f"{self.total_segments} segment(s)")
            previous = piece.hi
        weights = [piece.weight for piece in self.slices]
        if all(weight is None for weight in weights):
            if any(piece.warm_lo != piece.lo or piece.warmup_instructions
                   for piece in self.slices) or sum(
                    piece.hi - piece.lo for piece in self.slices) \
                    != self.total_segments:
                raise ExecError(
                    "exact slices must cover the trace's segments "
                    "contiguously, without warmup")
        elif any(isinstance(weight, bool) or not isinstance(weight, int)
                 or weight < 1 for weight in weights):
            raise ExecError(
                f"slice weights must be integers >= 1 on every slice "
                f"(or absent from all), got {weights}")
        elif sum(self.weights or ()) != self.total_segments:
            raise ExecError(
                "slice weights must sum to the trace's segment count "
                "(every segment extrapolates from exactly one slice)")

    @property
    def weights(self) -> tuple[int, ...] | None:
        """Per-slice weights, or ``None`` for an exact plan."""
        weights = tuple(piece.weight for piece in self.slices
                        if piece.weight is not None)
        return weights or None

    @property
    def exact(self) -> bool:
        return self.weights is None

    @property
    def kind(self) -> SliceKind:
        return SHARD if self.exact else REGION

    @property
    def count(self) -> int:
        return len(self.slices)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        """Measured ``(lo, hi)`` segment range of each slice."""
        return tuple((piece.lo, piece.hi) for piece in self.slices)

    @property
    def records(self) -> tuple[int, ...]:
        """Records executed by each slice (warmup included)."""
        return tuple(piece.records for piece in self.slices)

    @property
    def coverage(self) -> float:
        """Executed fraction of the trace's records."""
        if not self.total_records:
            return 0.0
        return sum(self.records) / self.total_records

    def describe(self) -> str:
        spans = ", ".join(
            f"{piece.lo}..{piece.hi - 1} "
            + (f"(w={piece.weight})" if piece.weight is not None
               else f"({piece.records} records)")
            for piece in self.slices)
        return (f"SlicePlan({self.count} {self.kind.tag}(s) of "
                f"{self.total_segments} segment(s), "
                f"{100.0 * self.coverage:.1f}% of records: {spans})")

    __repr__ = describe


def slice_units(base: WorkUnit, plan: SlicePlan) -> tuple[WorkUnit, ...]:
    """Split one monolithic work unit into one unit per plan slice.

    Each slice unit keeps the base spec (config, trace, start PC and
    windowing ride along) plus its ``segments`` range, warmup prefix
    included, and a nonzero ``warmup_instructions`` for that prefix.
    Its result lands next to the base unit's result path, and a tag
    (``shard``, or ``region`` with the slice's weight) records which
    slice of which unit it is: the identity :class:`SliceReducer` and
    resume checks match on.  Because ``segments`` and
    ``warmup_instructions`` survive :meth:`Simulation.canonical_spec`,
    slice units never share a campaign-cache entry with a full run.
    """
    kind = plan.kind
    for key in kind.slice_keys:
        if key in base.spec:
            raise ExecError(
                f"unit {base.unit_id!r} already carries {key!r} (it is "
                f"already segment-restricted or warmed up); slice the "
                f"unrestricted unit instead")
    base_path = Path(base.result_path)
    units = []
    for piece in plan.slices:
        spec = {**base.spec, "segments": [piece.warm_lo, piece.hi]}
        if piece.warmup_instructions:
            spec["warmup_instructions"] = piece.warmup_instructions
        tag: dict = {"index": piece.index, "of": plan.count,
                     "unit": base.unit_id}
        if piece.weight is not None:
            tag["weight"] = piece.weight
        stem = kind.unit_id(base_path.stem, piece.index, plan.count)
        units.append(WorkUnit(
            unit_id=kind.unit_id(base.unit_id, piece.index, plan.count),
            spec=spec,
            result_path=str(base_path.with_name(stem + base_path.suffix)),
            tags={**base.tags, kind.tag: tag}))
    return tuple(units)


def _provenance(payload: dict, stats: SimulationStatistics,
                position: int, kind: SliceKind,
                weight: int | None) -> list[dict]:
    """Provenance entries one part contributes to a merged document.

    A part that is itself a merged document contributes its flattened
    list (so ``resim stats merge`` composes associatively); a plain
    slice result contributes one entry describing its slice.
    """
    if stats.shards:
        return [dict(entry) for entry in stats.shards]
    tag = payload.get(kind.tag)
    entry: dict = {
        "index": (tag.get("index", position)
                  if isinstance(tag, dict) else position),
        "records": int(stats.trace_records_consumed),
        "cycles": int(stats.major_cycles),
        "instructions": int(stats.committed_instructions),
    }
    spec = payload.get("spec") or {}
    segments = spec.get("segments")
    if segments is not None:
        entry["segments"] = [int(segments[0]), int(segments[1])]
    if weight is not None:
        entry["weight"] = weight
        if spec.get("warmup_instructions") is not None:
            entry["warmup"] = int(spec["warmup_instructions"])
    return [entry]


def _common_kind(payloads: list[dict]) -> SliceKind:
    """The one slice kind every payload carries."""
    kinds = []
    for payload in payloads:
        kind = kind_of(payload)
        if kind is None:
            raise ExecError(
                f"document {payload.get('unit_id')!r} carries no slice "
                f"tag (a shard tag, or a region tag with an integer "
                f"weight); was it produced by slice_units()?")
        kinds.append(kind)
    if any(kind is not kinds[0] for kind in kinds):
        raise ExecError(
            "cannot merge shard and region documents: exact slices and "
            "sampled estimates never mix")
    return kinds[0]


def _weights(payloads: list[dict]) -> list[int]:
    weights = []
    for payload in payloads:
        tag = payload.get(REGION.tag)
        weight = tag.get("weight") if isinstance(tag, dict) else None
        if isinstance(weight, bool) or not isinstance(weight, int):
            raise ExecError(
                f"document {payload.get('unit_id')!r} carries no "
                f"integer region weight; was it produced by "
                f"slice_units()?")
        weights.append(weight)
    return weights


def merge_slice_documents(
    payloads: list[dict],
    *,
    unit_id: str | None = None,
    spec: dict | None = None,
    tags: dict | None = None,
) -> dict:
    """Reduce per-slice result documents into one merged document.

    Every payload must be a successful result document
    (:data:`~repro.exec.unit.RESULT_SCHEMA`, a ``stats`` dict, no
    ``error``), all must describe the **same configuration** and the
    same run (spec equal apart from the slice's own keys and the
    engine tier, which never changes a result), and all must
    be slices of one kind: exact parts (``shard`` tags, or merged
    ``sharded`` documents) or weighted parts (``region`` tags with
    integer weights).  The merged document carries the reduced
    statistics with flat provenance in ``stats.shards`` plus a
    top-level ``sharded`` or ``sampled`` summary, and, given the
    monolithic ``unit_id``/``spec``/``tags``, is a drop-in sweep
    checkpoint.
    """
    if not payloads:
        raise ExecError("nothing to merge: no result documents")
    for payload in payloads:
        if not isinstance(payload, dict) \
                or payload.get("schema") != RESULT_SCHEMA:
            raise ExecError(
                f"cannot merge: not a schema-{RESULT_SCHEMA} result "
                f"document")
        if "error" in payload:
            error = payload.get("error") or {}
            raise ExecError(
                f"cannot merge failed {(kind_of(payload) or SHARD).tag} "
                f"{payload.get('unit_id')!r}: {error.get('type')}: "
                f"{error.get('message')}")
        if not isinstance(payload.get("stats"), dict):
            raise ExecError(
                f"cannot merge: document "
                f"{payload.get('unit_id')!r} has no statistics")
    config = payloads[0].get("config")
    for payload in payloads[1:]:
        if payload.get("config") != config:
            raise ExecError(
                "cannot merge results of different design points: "
                f"{payloads[0].get('unit_id')!r} and "
                f"{payload.get('unit_id')!r} disagree on the "
                f"processor configuration")
    kind = _common_kind(payloads)
    weights = _weights(payloads) if kind is REGION else None

    def run_identity(payload: dict) -> dict | None:
        # Everything but the slice and the engine tier: two results
        # merge only if they simulated the same trace under the same
        # parameters.  None (no spec recorded) cannot prove a mismatch.
        document_spec = payload.get("spec")
        if not isinstance(document_spec, dict):
            return None
        return {key: value
                for key, value in tierless_spec(document_spec).items()
                if key not in kind.slice_keys}

    known = [(payload, identity) for payload in payloads
             if (identity := run_identity(payload)) is not None]
    for payload, identity in known[1:]:
        if identity != known[0][1]:
            raise ExecError(
                "cannot merge results of different runs: "
                f"{known[0][0].get('unit_id')!r} and "
                f"{payload.get('unit_id')!r} disagree on the run "
                f"spec (trace, budget, seed, or windowing)")
    parts = [stats_from_dict(payload["stats"]) for payload in payloads]
    provenance: list[dict] = []
    for position, (payload, stats) in enumerate(
            zip(payloads, parts, strict=True)):
        provenance.extend(_provenance(
            payload, stats, position, kind,
            None if weights is None else weights[position]))
    merged = parts[0].merge(parts[1:], weights=weights,
                            shards=provenance)
    document = {
        "schema": RESULT_SCHEMA,
        "unit_id": (unit_id if unit_id is not None
                    else payloads[0].get("unit_id")),
        "config": config,
        "stats": stats_to_dict(merged),
        kind.marker: kind.summary(len(payloads), len(provenance),
                                  sum(weights or ())),
        **(tags or {}),
    }
    if spec is not None:
        document["spec"] = dict(spec)
    elif known:
        # Standalone merges keep the run identity (the shared spec
        # minus the slice keys and the tier), so a merged document can
        # itself be merged further without losing the cross-run guard.
        document["spec"] = known[0][1]
    return document


# The benchmark harness (resimbench/) imports these two names from
# repro.exec and runs unchanged against older revisions too, so they
# stay as plain aliases of the unified functions.
region_units = slice_units
merge_region_documents = merge_slice_documents


class SliceReducer:
    """Collects one design point's per-slice results; emits the merged
    point result.

    Construction takes the **monolithic** unit (the spec without a
    slice, what a one-slice run would have executed) and the plan that
    split it.  Feed slice result documents to :meth:`add` in any order
    (resume paths feed previously persisted ones); once
    :attr:`complete`, :meth:`write` atomically writes the merged
    document to the monolithic unit's ``result_path``, which makes it
    the design point's checkpoint, resumable like any other.
    """

    def __init__(self, unit: WorkUnit, plan: SlicePlan) -> None:
        self._unit = unit
        self._plan = plan
        self._parts: dict[int, dict] = {}

    @property
    def complete(self) -> bool:
        return len(self._parts) == self._plan.count

    def add(self, payload: dict) -> None:
        """Accept one slice's result document."""
        name = self._plan.kind.tag
        count = self._plan.count
        unit_id = self._unit.unit_id
        tag = payload.get(name) if isinstance(payload, dict) else None
        if not isinstance(tag, dict) \
                or not isinstance(tag.get("index"), int):
            raise ExecError(
                f"result document for {unit_id!r} carries no {name} "
                f"tag; was it produced by slice_units()?")
        index = tag["index"]
        if tag.get("unit") != unit_id or tag.get("of") != count \
                or not 0 <= index < count:
            raise ExecError(
                f"{name} tag {tag} does not belong to the "
                f"{count}-{name} plan of {unit_id!r}")
        expected_weight = self._plan.slices[index].weight
        if tag.get("weight") != expected_weight:
            raise ExecError(
                f"{name} {index} of {unit_id!r} carries weight "
                f"{tag.get('weight')!r}, plan says {expected_weight}")
        if index in self._parts:
            raise ExecError(
                f"duplicate result for {name} {index} of {unit_id!r}")
        self._parts[index] = payload

    def merged(self) -> dict:
        """The merged point document (requires :attr:`complete`)."""
        if not self.complete:
            missing = sorted(set(range(self._plan.count))
                             - set(self._parts))
            raise ExecError(
                f"cannot merge {self._unit.unit_id!r}: "
                f"{self._plan.kind.tag}(s) {missing} not collected yet")
        return merge_slice_documents(
            [self._parts[index] for index in range(self._plan.count)],
            unit_id=self._unit.unit_id,
            spec=dict(self._unit.spec),
            tags=dict(self._unit.tags),
        )

    def write(self) -> dict:
        """Merge and atomically persist to the monolithic unit's
        result path; returns the merged document."""
        document = self.merged()
        atomic_write_json(self._unit.result_path, document)
        return document

    def describe(self) -> str:
        return (f"SliceReducer({self._unit.unit_id!r}, "
                f"{len(self._parts)}/{self._plan.count} "
                f"{self._plan.kind.tag}(s))")

    __repr__ = describe
