"""The sweep scheduler: grid expansion → work units → backend → result.

The paper's bulk mode simulates traces *"prepared off-line ... for
bulk simulations with varying design parameters"*.  Here each
workload trace is generated (or loaded) **once** into a segmented v2
file, and every design point of a :class:`~repro.sweep.spec.SweepSpec`
becomes a :class:`~repro.exec.unit.WorkUnit` over it, planned, split
and reused by the one point rule of :mod:`repro.exec.point` that
``resim simulate`` and a served simulate use too.  The runner batches
the units of many points into one
:class:`~repro.exec.ExecutionBackend` call: in-process, a process pool
or a ``resim worker`` queue, all bit-identical (the test suite checks
it).

Durability: a point's result document **is** its checkpoint, written
atomically to ``<results_dir>/<config-key>.json`` with the sweep's
provenance manifest embedded, so a killed sweep resumes whichever
backend or host computed it.  A point resumes by the rule slices,
queue drains and workers use, :func:`~repro.exec.unit.reusable_result`:
the stored document must carry this unit's id, spec (the absolute
trace path included), manifest and config.  Anything else — corrupt,
hand-edited, or left in a results directory moved to a new path — is
recomputed (a moved directory still reuses its trace).

Trace sharing: wrong-path handling is trace-authoritative (Section
V.A), so sizing axes share one trace, as in the paper's off-line mode,
but each distinct predictor in the grid gets its own
(``trace-<predictor-key>.rtrc``): one shared trace would make every
scheme score identically.  Generation ROB/IFQ come from the base
config.  Generation and replay both stream, one segment resident, so
the sweepable trace budget is bounded by disk, not RAM.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from collections.abc import Callable, Sequence

from repro.bpred.unit import PredictorConfig
from repro.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    SlicePlan,
    SliceReducer,
    UnitExecutionError,
    WorkUnit,
    atomic_write_json,
    choose_plan,
    point_units,
    reusable_result,
)
from repro.serialize import canonical_digest, plain_fields, stats_from_dict
from repro.sweep.fields import FIELDS, sampling_entry
from repro.sweep.progress import SweepProgress
from repro.sweep.result import SweepOutcome, SweepResult
from repro.sweep.search import (
    MAX_ROUNDS,
    HillClimb,
    SearchError,
    SearchResult,
    SearchStrategy,
)
from repro.sweep.spec import SweepError, SweepPoint, SweepSpec
from repro.trace.fileio import TraceFileError, read_trace_header
from repro.workloads.profiles import SPECINT_PROFILES
# Unused here (planning is repro.exec.point's): resimbench traces them.
from repro.exec.regions import plan_regions  # noqa: F401
from repro.trace.analyze import ensure_profile  # noqa: F401
from repro.workloads.tracegen import (
    UnknownWorkloadError,
    is_known_workload,
    write_workload_trace,
)

#: Filename of the sweep manifest inside a results directory.
MANIFEST_FILENAME = "sweep.json"


def predictor_key(predictor: PredictorConfig) -> str:
    """Short stable identifier of one generation predictor."""
    return canonical_digest(plain_fields(predictor), length=12)


def trace_filename(predictor: PredictorConfig) -> str:
    """Filename of the shared trace generated with one predictor."""
    return f"trace-{predictor_key(predictor)}.rtrc"


def default_backend(workers: int) -> ExecutionBackend:
    """The backend ``--workers N`` means: in-process for 1, a process
    pool otherwise."""
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialBackend()
    return ProcessPoolBackend(workers)


@dataclass(frozen=True)
class _TraceInfo:
    path: Path
    start_pc: int | None
    bits_per_instruction: float

    @cached_property
    def resolved(self) -> Path:
        """The absolute trace path work units name, resolved once."""
        return self.path.resolve()


class SweepRunner:
    """Evaluate design points against shared traces through a
    pluggable execution backend (see module docstring): the whole grid
    (:meth:`run`) or what an adaptive strategy proposes
    (:meth:`search`).

    Parameters
    ----------
    spec:
        The parameter grid (see :class:`~repro.sweep.spec.SweepSpec`).
    workload:
        A SPECINT profile name (synthetic generator) or an assembly
        kernel name (traced through the functional simulator).
    results_dir:
        Where the shared traces, the manifest, and per-point
        checkpoints live.  Reusing the directory resumes the sweep;
        mixing workloads/budgets/seeds in one directory is refused.
    backend:
        Any :class:`~repro.exec.ExecutionBackend`; ``None`` runs
        in-process (:class:`~repro.exec.SerialBackend`, the serial
        reference path).  :func:`default_backend` maps a worker count
        to one.  The runner never closes it: its creator does.
    progress:
        A :class:`~repro.sweep.progress.SweepProgress` sink for
        per-point completion events (``resim sweep --progress``).
    budget ... region_warmup:
        The campaign fields of the same names (meanings, defaults and
        minimums: :data:`repro.sweep.fields.FIELDS`).  ``shards`` and
        ``sampling`` choose each point's slice plan
        (:func:`~repro.exec.point.choose_plan`); they exclude each
        other, and the region parameters do nothing under full replay.
        The manifest records the sampling parameters, so sampled and
        exact results never share a results directory.
    """

    def __init__(
        self,
        spec: SweepSpec,
        workload: str = FIELDS["workload"].default,
        *,
        results_dir: str | Path,
        budget: int = FIELDS["budget"].default,
        seed: int = FIELDS["seed"].default,
        backend: ExecutionBackend | None = None,
        progress: SweepProgress | None = None,
        shards: int = FIELDS["shards"].default,
        segment_records: int = FIELDS["segment_records"].default,
        engine: str = FIELDS["engine"].default,
        sampling: str = FIELDS["sampling"].default,
        regions: int = FIELDS["regions"].default,
        region_seed: int = FIELDS["region_seed"].default,
        region_warmup: int = FIELDS["region_warmup"].default,
    ) -> None:
        if not is_known_workload(workload):
            raise SweepError(str(UnknownWorkloadError(workload)))
        for name, value in (("budget", budget), ("seed", seed),
                            ("shards", shards), ("engine", engine),
                            ("segment_records", segment_records)):
            FIELDS[name].check(value, SweepError)
        self._sampling = sampling_entry(
            sampling, shards=shards, regions=regions,
            region_seed=region_seed, region_warmup=region_warmup)
        self._is_synthetic = workload in SPECINT_PROFILES
        self.spec = spec
        self.workload = workload
        self.engine = engine
        self.results_dir = Path(results_dir)
        self.budget = budget
        self.seed = seed
        self.backend = backend if backend is not None else SerialBackend()
        self.progress = progress if progress is not None \
            else SweepProgress()
        self.shards = shards
        self.segment_records = segment_records
        self._traces: dict[PredictorConfig, _TraceInfo] = {}
        self._plans: dict[str, SlicePlan | None] = {}
        self._results_root: Path | None = None

    # -- trace management ---------------------------------------------

    def _manifest(self) -> dict:
        # Includes every parameter the shared traces' content depends
        # on.  Predictors are NOT pinned here — each distinct
        # predictor gets its own trace file keyed by predictor_key —
        # but the generation ROB/IFQ come from the base config, and
        # budget/seed shape synthetic workloads (kernels run to
        # completion deterministically, so both are normalized out
        # for them rather than spuriously refusing a resume).
        base = self.spec.base
        manifest = {
            "workload": self.workload,
            "budget": self.budget if self._is_synthetic else None,
            "seed": self.seed if self._is_synthetic else None,
            "trace_config": {
                "rob_entries": base.rob_entries,
                "ifq_entries": base.ifq_entries,
            },
        }
        # A sampled directory can never be resumed as an exact one, or
        # under different sampling parameters, because the manifests
        # differ (see sampling_entry).
        if self._sampling is not None:
            manifest["sampling"] = dict(self._sampling)
        return manifest

    def _check_manifest(self) -> None:
        manifest_path = self.results_dir / MANIFEST_FILENAME
        manifest = self._manifest()
        if manifest_path.exists():
            try:
                existing = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                # Checkpoints self-validate via embedded provenance,
                # so a corrupt manifest can simply be rewritten.
                pass
            else:
                if existing != manifest:
                    raise SweepError(
                        f"results directory {self.results_dir} holds a "
                        f"different sweep ({existing}); use a fresh "
                        f"directory for {manifest}"
                    )
                return
        # Atomic, like the checkpoints: a kill mid-write must not
        # leave truncated JSON that bricks every future resume.
        atomic_write_json(manifest_path, manifest)

    def prepare_trace(self, predictor: PredictorConfig) -> _TraceInfo:
        """Generate the shared trace for one generation predictor, or
        reuse the persisted one.

        Generation streams straight into a segmented v2 file
        (:func:`~repro.workloads.tracegen.write_workload_trace` — the
        coordinator never holds the record list either); the sweep's
        provenance plus a kernel's entry PC land in the metadata blob,
        so a results directory is self-describing.  Generation ROB/IFQ
        parameters come from the base config.
        """
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._check_manifest()
        trace_path = self.results_dir / trace_filename(predictor)
        if trace_path.exists():
            try:
                # Header only: the coordinator never needs the records
                # decoded; each executor streams the payload itself
                # (and surfaces payload corruption then).
                header = read_trace_header(trace_path)
            except TraceFileError as error:
                raise SweepError(
                    f"persisted sweep trace {trace_path} is corrupt "
                    f"({error}); delete it (checkpoints were produced "
                    f"from it and must go too)"
                ) from error
            start_pc = header.metadata.get("start_pc")
            return _TraceInfo(trace_path, start_pc,
                              header.bits_per_instruction)
        # write_workload_trace is atomic (streams to a temporary sibling,
        # renamed on success), so a kill mid-write leaves either no
        # trace or a complete one, never a truncated file that blocks
        # every future resume.
        written = write_workload_trace(
            self.workload, replace(self.spec.base, predictor=predictor),
            trace_path, budget=self.budget, seed=self.seed,
            segment_records=self.segment_records,
            extra={"generator": "sweep"},
        )
        return _TraceInfo(trace_path, written.start_pc,
                          written.trace_stats.bits_per_instruction)

    def _trace_for(self, predictor: PredictorConfig) -> _TraceInfo:
        """Memoizing wrapper so one sweep/search prepares each
        distinct predictor's trace exactly once (equal predictor
        configs are one entry, as their :func:`predictor_key` is)."""
        trace = self._traces.get(predictor)
        if trace is None:
            trace = self._traces[predictor] = self.prepare_trace(predictor)
        return trace

    def trace_summary(self) -> tuple[float, dict[str, float]]:
        """Bits/instruction of the traces prepared so far, for result
        assembly: ``(headline, per-predictor-key map)``.  The
        headline is the base predictor's trace when it is part of the
        grid, else the first trace prepared; the map goes into result
        metadata.  Shared by sweep and search result construction.
        """
        if not self._traces:
            raise SweepError("no design points evaluated yet")
        headline = self._traces.get(self.spec.base.predictor) \
            or next(iter(self._traces.values()))
        return headline.bits_per_instruction, {
            predictor_key(predictor): info.bits_per_instruction
            for predictor, info in self._traces.items()}

    # -- slicing -------------------------------------------------------

    def _plan_for(self, trace: _TraceInfo) -> SlicePlan | None:
        """The slice plan every design point over ``trace`` runs as
        (:func:`~repro.exec.point.choose_plan`), or ``None`` to run each
        point as one unit.  Memoized per trace: the plan depends only
        on the trace, not the config."""
        key = str(trace.path)
        if key not in self._plans:
            self._plans[key] = choose_plan(
                trace.path, shards=self.shards, sampling=self._sampling)
        return self._plans[key]

    # -- unit building -------------------------------------------------

    def _unit_for(self, point: SweepPoint, trace: _TraceInfo,
                  provenance: dict) -> WorkUnit:
        """One design point as a serializable work unit: the shared
        trace under the point's config, from the trace's entry PC.  The
        provenance manifest rides in the tags, so the unit's result is
        a self-describing checkpoint (even without ``sweep.json``, one
        computed under other workload/budget/seed parameters is never
        revived as this sweep's)."""
        if self._results_root is None:
            # After the trace is prepared, so the directory exists.
            self._results_root = self.results_dir.resolve()
        return WorkUnit.for_trace(
            point.key,
            trace.resolved,
            point.config_dict,
            self._results_root / f"{point.key}.json",
            start_pc=trace.start_pc,
            tags={"sweep": provenance},
            engine=self.engine,
        )

    # -- execution -----------------------------------------------------

    def evaluate(
        self,
        points: Sequence[SweepPoint],
        *,
        on_outcome: Callable[[SweepOutcome], None] | None = None,
    ) -> list[SweepOutcome]:
        """Evaluate design points (resuming from checkpoints), in
        ``points`` order.

        This is the scheduler core the grid sweep and the adaptive
        search strategies share: reuse each point's checkpoint, hand
        the units its plan still needs
        (:func:`~repro.exec.point.point_units`) to the backend in one
        batch, merge a split point as its last slice lands, and emit
        progress events in true completion order.
        """
        provenance = self._manifest() if points else {}
        outcomes: dict[str, SweepOutcome] = {}
        units: list[WorkUnit] = []
        # unit id -> the point it computes, and that point's reducer
        owners: dict[str, tuple[SweepPoint, SliceReducer | None]] = {}

        def finish(point: SweepPoint, payload: dict,
                   from_checkpoint: bool) -> None:
            outcome = SweepOutcome(
                key=point.key, params=point.params, config=point.config,
                stats=stats_from_dict(payload["stats"]),
                from_checkpoint=from_checkpoint)
            outcomes[point.key] = outcome
            self.progress.point(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        seen: set[str] = set()
        for point in points:
            if point.key in seen:
                raise SweepError(
                    f"duplicate design point {point.key} "
                    f"({point.label}) in one evaluation batch"
                )
            seen.add(point.key)
            trace = self._trace_for(point.config.predictor)
            base_unit = self._unit_for(point, trace, provenance)
            payload = reusable_result(base_unit)
            if payload is not None:
                finish(point, payload, from_checkpoint=True)
                continue
            pending, reducer = point_units(base_unit,
                                           self._plan_for(trace))
            if not pending:
                finish(point, reducer.write(), from_checkpoint=True)
                continue
            owners.update((unit.unit_id, (point, reducer))
                          for unit in pending)
            units.extend(pending)

        if units:
            def collect(unit: WorkUnit, payload: dict) -> None:
                if "error" in payload:
                    error = payload["error"]
                    self.progress.unit_failed(
                        unit.unit_id,
                        f"{error.get('type')}: {error.get('message')}")
                    return
                point, reducer = owners[unit.unit_id]
                if reducer is None:
                    finish(point, payload, from_checkpoint=False)
                    return
                reducer.add(payload)
                if reducer.complete:
                    # The merged document lands at the point's
                    # checkpoint path (atomically), so the point
                    # resumes like any other from here on.
                    finish(point, reducer.write(), from_checkpoint=False)

            def corrupt(error: Exception) -> SweepError:
                # Executors decode the persisted trace payload; their
                # TraceFileError must surface with the same guidance
                # the header check gives, not as a raw traceback.
                return SweepError(
                    f"a persisted sweep trace in {self.results_dir} "
                    f"is corrupt ({error}); delete the results "
                    f"directory and rerun (its checkpoints were "
                    f"produced from that trace)"
                )

            try:
                self.backend.run_units(units, on_result=collect)
            except TraceFileError as error:
                raise corrupt(error) from error
            except UnitExecutionError as error:
                if error.kind == "TraceFileError":
                    raise corrupt(error.message) from error
                raise SweepError(str(error)) from error

        return [outcomes[point.key] for point in points]

    def run(self) -> SweepResult:
        """Expand, evaluate (resuming from checkpoints), aggregate."""
        expansion = self.spec.expand()
        self.progress.start(len(expansion), label="sweep")
        ordered = tuple(self.evaluate(expansion.points))
        self.progress.finish()
        return self._result(
            ordered, {}, skipped_invalid=expansion.skipped_invalid,
            skipped_duplicates=expansion.skipped_duplicates)

    def _result(self, outcomes: tuple[SweepOutcome, ...], metadata: dict,
                **counts: int) -> SweepResult:
        """The result of ``outcomes``, the traces' bits/instruction
        in its metadata."""
        headline, by_predictor = self.trace_summary()
        return SweepResult(
            outcomes=outcomes, workload=self.workload, budget=self.budget,
            seed=self.seed, trace_bits_per_instruction=headline,
            metadata={**metadata, "trace_bits_per_instruction_by_predictor":
                      by_predictor}, **counts)

    def search(self, strategy: SearchStrategy) -> SearchResult:
        """Propose/evaluate/observe until ``strategy`` stops.

        The strategy's spec supplies the axes; its base config must be
        this runner's, which the manifest and the trace summary are
        keyed on.  Checkpoints written by a search are interchangeable
        with a sweep's over the same results directory.
        """
        if strategy.spec.base != self.spec.base:
            raise SweepError(
                f"strategy {strategy.name!r} searches another base "
                f"config than this runner's; build the runner from the "
                f"strategy's spec")
        progress = self.progress
        progress.start(None, label="search")
        evaluated: dict[str, SweepOutcome] = {}
        rounds = 0
        while rounds < MAX_ROUNDS:
            batch = [point for point in strategy.propose()
                     if point.key not in evaluated]
            if not batch:
                break
            rounds += 1
            progress.round(rounds, len(batch))
            outcomes = self.evaluate(batch)
            for outcome in outcomes:
                evaluated[outcome.key] = outcome
            strategy.observe(outcomes)
        else:
            raise SearchError(
                f"strategy {strategy.name!r} did not converge "
                f"within {MAX_ROUNDS} rounds"
            )
        if not evaluated:
            raise SearchError(
                f"strategy {strategy.name!r} proposed no design "
                f"points"
            )
        progress.finish()
        best = strategy.best_of(list(evaluated.values()))
        search = {"strategy": strategy.name, "metric": strategy.metric,
                  "rounds": rounds, "evaluated": len(evaluated)}
        if isinstance(strategy, HillClimb):
            search["trajectory"] = list(strategy.trajectory)
        sweep_result = self._result(tuple(evaluated.values()),
                                    {"search": search})
        return SearchResult(
            result=sweep_result,
            best=best,
            strategy=strategy.name,
            metric=strategy.metric,
            rounds=rounds,
        )

