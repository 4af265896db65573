"""Serializable work units — the currency of execution backends.

The whole distributed-execution story rests on one observation: a
ReSim run is already *data*.  PR 2 made every bulk simulation
describable as a plain-dict :meth:`Simulation.from_spec` spec, and
PR 3 made the trace it reads a shared on-disk artifact
(:class:`~repro.trace.source.FileSource`, optionally restricted to a
``segments=(lo, hi)`` shard range).  A :class:`WorkUnit` bundles the
two with a result destination:

* ``spec`` — a ``Simulation.from_spec`` dict (trace path or workload
  name, config, optional segment range / start PC / windowing);
* ``result_path`` — where the executor writes the result JSON,
  atomically, so a crash mid-write never leaves a truncated file;
* ``tags`` — opaque caller payload merged into the result document
  (the sweep runner stores its provenance manifest here, which is why
  an executed unit's result file *is* a valid sweep checkpoint).

Because the engine is a deterministic function of (config, trace), a
unit may be executed anywhere, any number of times, by any backend:
every execution writes the same bytes.  That idempotence is what lets
the directory queue re-run units after worker crashes without risking
duplicated or divergent results.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping

from repro.core.specialize import DEFAULT_ENGINE
from repro.serialize import config_to_dict, stats_to_dict
from repro.trace.fileio import decoded_segment_reuse
from repro.utils.atomic import atomic_path

#: Result/unit document schema; bump on incompatible layout changes.
#: Kept equal to the sweep checkpoint schema on purpose: a unit result
#: *is* a sweep checkpoint when the sweep runner built the unit.
RESULT_SCHEMA = 1

#: Keys the executor itself writes into a result document; tags may
#: not shadow them (a tag silently overwriting "stats" would corrupt
#: every consumer downstream).  "sharded" and "sampled" belong to the
#: slice reducer (:mod:`repro.exec.slice`), which stamps one of them on
#: every merged point document it emits.
RESERVED_RESULT_KEYS = frozenset(
    ("schema", "unit_id", "spec", "config", "stats", "error",
     "sharded", "sampled"))

#: Unit identifiers become queue/result filenames; restrict them to
#: characters that cannot traverse paths or collide across platforms.
_UNIT_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ExecError(ValueError):
    """Raised for malformed work units or misused backends."""


class UnitExecutionError(ExecError):
    """A unit failed on a remote executor.

    Backends that run units in the same interpreter (or a process
    pool, which re-raises pickled exceptions) propagate the original
    exception; the directory queue only sees the error *document* a
    worker wrote, so it raises this carrier instead.  ``kind`` is the
    original exception type name — callers that special-case e.g.
    ``TraceFileError`` match on it.
    """

    def __init__(self, unit_id: str, kind: str, message: str,
                 failed_units: int = 1) -> None:
        detail = (f" ({failed_units - 1} more unit(s) also failed)"
                  if failed_units > 1 else "")
        super().__init__(
            f"work unit {unit_id!r} failed: {kind}: {message}{detail}")
        self.unit_id = unit_id
        self.kind = kind
        self.message = message
        self.failed_units = failed_units


@dataclass(frozen=True)
class WorkUnit:
    """One simulation to run: spec + result destination (+ tags)."""

    unit_id: str
    spec: Mapping
    result_path: str
    tags: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.unit_id, str) or \
                not _UNIT_ID_RE.match(self.unit_id):
            raise ExecError(
                f"unit_id must match {_UNIT_ID_RE.pattern} (it names "
                f"queue and result files), got {self.unit_id!r}"
            )
        if not isinstance(self.spec, Mapping):
            raise ExecError(
                f"unit spec must be a mapping, got "
                f"{type(self.spec).__name__}"
            )
        if not isinstance(self.result_path, str) or not self.result_path:
            raise ExecError(
                f"result_path must be a non-empty string, got "
                f"{self.result_path!r}"
            )
        reserved = set(self.tags) & RESERVED_RESULT_KEYS
        if reserved:
            raise ExecError(
                f"unit tags may not shadow result keys "
                f"{', '.join(sorted(reserved))}"
            )
        # Freeze the mappings into plain dicts so units equality-
        # compare and serialize predictably regardless of the
        # caller's mapping type.  (Units stay unhashable: dict
        # fields; key containers by unit_id instead.)
        object.__setattr__(self, "spec", dict(self.spec))
        object.__setattr__(self, "tags", dict(self.tags))

    @classmethod
    def for_trace(
        cls,
        unit_id: str,
        trace_path: str | Path,
        config: Mapping | str,
        result_path: str | Path,
        *,
        segments: tuple[int, int] | None = None,
        start_pc: int | None = None,
        tags: Mapping | None = None,
        engine: str | None = None,
    ) -> WorkUnit:
        """Convenience constructor for the common shape: one stored
        trace (optionally a segment shard of it) simulated under one
        config dict or registered config name.

        ``engine`` selects the engine tier executing the unit (a
        :data:`repro.core.specialize.ENGINE_TIERS` name); the default
        tier (:data:`~repro.core.specialize.DEFAULT_ENGINE`) is
        omitted from the spec, the same rule
        :meth:`~repro.session.Simulation.to_spec` applies.  Tiers are
        bit-identical, so results and checkpoints do not depend on the
        choice (:func:`result_matches_unit` ignores the tier).  A
        specialized unit runs specialized whatever its window: region
        slices carry ``warmup_instructions``, which the generated
        engine compiles in.
        """
        spec: dict = {"trace_file": str(trace_path), "config": config}
        if segments is not None:
            spec["segments"] = [int(segments[0]), int(segments[1])]
        if start_pc is not None:
            spec["start_pc"] = int(start_pc)
        if engine is not None and engine != DEFAULT_ENGINE:
            spec["engine"] = str(engine)
        return cls(unit_id=unit_id, spec=spec,
                   result_path=str(result_path), tags=dict(tags or {}))

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`); this is the
        document the directory queue writes into ``pending/``."""
        return {
            "schema": RESULT_SCHEMA,
            "unit_id": self.unit_id,
            "spec": dict(self.spec),
            "result_path": self.result_path,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> WorkUnit:
        if not isinstance(data, Mapping):
            raise ExecError(
                f"unit document must be a mapping, got "
                f"{type(data).__name__}"
            )
        if data.get("schema") != RESULT_SCHEMA:
            raise ExecError(
                f"unsupported unit schema {data.get('schema')!r} "
                f"(this version reads schema {RESULT_SCHEMA})"
            )
        try:
            return cls(unit_id=data["unit_id"], spec=data["spec"],
                       result_path=data["result_path"],
                       tags=data.get("tags", {}))
        except KeyError as error:
            raise ExecError(
                f"unit document missing key {error.args[0]!r}"
            ) from None


def atomic_write_json(path: str | Path, document: dict) -> None:
    """Write ``document`` as canonical JSON through
    :func:`~repro.utils.atomic.atomic_path`, creating the parent
    directory: a crash mid-write leaves the old file (or none), never
    truncated JSON, and racing writers of one target (two processes
    or two threads) never consume each other's temporary file.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with atomic_path(target) as tmp:
        tmp.write_text(json.dumps(document, sort_keys=True))


def execute_unit(unit: WorkUnit) -> dict:
    """Run one unit and atomically write its result document.

    Module-level (it pickles into process pools) and side-effect-free
    beyond the result file.  The unit runs exactly as its spec says,
    with no observer attached, so it executes on the engine tier the
    spec asks for.  Its trace reads share decoded segments with the
    other units this process runs
    (:func:`~repro.trace.fileio.decoded_segment_reuse`).
    """
    from repro.session.simulation import Simulation  # heavy, deferred

    with decoded_segment_reuse():
        session = Simulation.from_spec(unit.spec).run()
    payload = {
        "schema": RESULT_SCHEMA,
        "unit_id": unit.unit_id,
        "spec": dict(unit.spec),
        "config": config_to_dict(session.config),
        "stats": stats_to_dict(session.stats),
        **unit.tags,
    }
    atomic_write_json(unit.result_path, payload)
    return payload


def error_document(unit: WorkUnit, error: BaseException) -> dict:
    """The result document a worker writes when a unit raises, so the
    coordinator learns *what* failed instead of waiting forever."""
    return {
        "schema": RESULT_SCHEMA,
        "unit_id": unit.unit_id,
        "spec": dict(unit.spec),
        "error": {"type": type(error).__name__, "message": str(error)},
        **unit.tags,
    }


def result_matches_unit(payload: dict | None, unit: WorkUnit) -> bool:
    """Was this result document produced by exactly this unit?

    Result files live at caller-chosen paths; a path can hold a
    document from an *earlier* unit with the same id but a different
    spec (e.g. a results directory reused after its manifest was
    deleted).  Reusing such a document would silently revive stale
    statistics the caller decided to recompute, so every
    reuse-instead-of-execute decision gates on this identity check:
    same unit id, same spec, same tags.  The spec's ``"engine"`` tier
    is ignored, the rule ``canonical_spec`` applies: tiers are
    bit-identical, so a slice computed on one tier completes a point
    on the other.  True for both success and error documents —
    callers distinguish via the ``"error"`` key.
    """
    if payload is None:
        return False
    if payload.get("unit_id") != unit.unit_id:
        return False
    spec = payload.get("spec")
    if not isinstance(spec, Mapping) \
            or tierless_spec(spec) != tierless_spec(unit.spec):
        return False
    return all(payload.get(key) == value
               for key, value in unit.tags.items())


def load_unit_result(path: str | Path) -> dict | None:
    """A structurally valid result document, or None.

    Missing file, unreadable JSON, non-dict payloads, and foreign
    schemas all return None — callers treat that as "not done yet"
    (coordinator polls) or "recompute" (checkpoint loading); semantic
    validation (provenance, config match) stays with the caller.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("schema") != RESULT_SCHEMA:
        return None
    if "error" in payload:
        error = payload["error"]
        if not isinstance(error, dict) or "type" not in error:
            return None
        return payload
    if not isinstance(payload.get("stats"), dict):
        return None
    return payload


def reusable_result(unit: WorkUnit) -> dict | None:
    """The success document this exact unit already wrote at its
    result path, or None: what every reuse-instead-of-execute decision
    takes.  Missing, malformed, error and foreign documents (see
    :func:`result_matches_unit`) never count."""
    payload = load_unit_result(unit.result_path)
    if payload is None or "error" in payload \
            or not result_matches_unit(payload, unit):
        return None
    return payload


def tierless_spec(spec: Mapping) -> dict:
    """``spec`` without its engine tier — the part results depend on.

    Tiers are bit-identical by contract, so the tier is never part of
    a result's identity: every check that two documents describe the
    same run compares specs through this helper.
    """
    return {key: value for key, value in spec.items() if key != "engine"}
