"""The sweep scheduler: grid expansion → work units → backend → result.

The paper's primary usage mode is traces *"prepared off-line ... for
bulk simulations with varying design parameters"*.  This module is
that bulk mode's *scheduler*: each workload trace is generated (or
loaded) **once**, persisted through :mod:`repro.trace.fileio`, and
every design point of a :class:`~repro.sweep.spec.SweepSpec` becomes
one serializable :class:`~repro.exec.unit.WorkUnit` — a
``Simulation.from_spec`` dict over the shared trace plus a checkpoint
destination — handed to an :class:`~repro.exec.ExecutionBackend`.
*How* the units run is entirely the backend's business: in-process
(:class:`~repro.exec.SerialBackend`), fanned out over one host's
cores (:class:`~repro.exec.ProcessPoolBackend`, the historical
behavior), or drained by ``resim worker`` processes on any number of
hosts (:class:`~repro.exec.DirectoryQueueBackend`).

Durability: a work unit's result document **is** the design point's
checkpoint — written atomically to ``<results_dir>/<config-key>.json``
with the sweep's provenance manifest embedded, so a sweep killed
halfway resumes from its checkpoints instead of restarting, no matter
which backend (or which host) computed them.  Checkpoints are
validated on load; a corrupt or mismatched checkpoint is discarded
and recomputed, never trusted.

Determinism: the engine is a deterministic function of (config,
records) and every backend runs the same
:func:`~repro.exec.unit.execute_unit` on the same units, so all
backends produce bit-identical :class:`SimulationStatistics` (the
test suite checks serial vs. pool vs. directory queue).

Trace sharing: ReSim's wrong-path handling is trace-authoritative
(Section V.A) — the tagged blocks recorded at generation time *are*
the misprediction signal.  Sizing axes (ROB, LSQ, IFQ, width, FU
mixes, caches) therefore share one trace, exactly as in the paper's
off-line mode.  The **predictor** is different: sharing one trace
across predictor schemes would make every scheme score identically,
so the runner generates one trace per *distinct predictor* in the
grid (``trace-<predictor-key>.rtrc``), amortized across all other
axes.  Generation ROB/IFQ always come from the base config.

Memory: the whole pipeline is streaming.  The coordinator generates
each shared trace straight into a segmented v2 file
(:func:`~repro.workloads.tracegen.write_workload_trace`, one encoder
segment resident), and every executor replays it through a
:class:`~repro.trace.source.FileSource` (one decoded segment
resident) — no process ever materializes a full record list, so the
sweepable trace budget is bounded by disk, not by per-worker RAM.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
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
    load_unit_result,
    plan_regions,
    plan_shards,
    slice_units,
)
from repro.exec.unit import reusable_result
from repro.serialize import (
    canonical_digest,
    config_to_dict,
    stats_from_dict,
)
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
from repro.trace.analyze import ensure_profile
from repro.trace.fileio import TraceFileError, read_trace_header
from repro.workloads.profiles import SPECINT_PROFILES
from repro.workloads.tracegen import (
    UnknownWorkloadError,
    is_known_workload,
    write_workload_trace,
)

#: Checkpoint schema version; bump on incompatible layout changes.
#: Checkpoints are work-unit result documents, so this tracks
#: :data:`repro.exec.RESULT_SCHEMA`.
CHECKPOINT_SCHEMA = 1

#: Filename of the sweep manifest inside a results directory.
MANIFEST_FILENAME = "sweep.json"


def predictor_key(predictor: PredictorConfig) -> str:
    """Short stable identifier of one generation predictor."""
    return canonical_digest(asdict(predictor), length=12)


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
        to one.
    progress:
        A :class:`~repro.sweep.progress.SweepProgress` sink for
        per-point completion events (``resim sweep --progress``).
    budget ... region_warmup:
        The campaign fields of the same names (meanings, defaults and
        minimums: :data:`repro.sweep.fields.FIELDS`).  ``shards > 1``
        splits every design point into segment-range shard units run
        through the same backend and merged by a
        :class:`~repro.exec.SliceReducer`: exact-sum counters equal the
        monolithic run's, cycle-derived metrics are approximate (see
        :mod:`repro.exec.shard`).  ``sampling="regions"`` estimates
        each point from weighted representative regions (see
        :mod:`repro.exec.regions`): merged documents carry a
        ``"sampled"`` marker and the manifest records the sampling
        parameters, so sampled and exact results never share a results
        directory.  The two exclude each other; the region parameters
        are ignored under full replay.
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
            FIELDS[name].check(value)
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
        self._traces: dict[str, _TraceInfo] = {}
        self._plans: dict[str, SlicePlan] = {}

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
        distinct predictor's trace exactly once."""
        key = predictor_key(predictor)
        if key not in self._traces:
            self._traces[key] = self.prepare_trace(predictor)
        return self._traces[key]

    def trace_summary(self) -> tuple[float, dict[str, float]]:
        """Bits/instruction of the traces prepared so far, for result
        assembly: ``(headline, per-predictor-key map)``.  The
        headline is the base predictor's trace when it is part of the
        grid, else the first trace prepared; the map goes into result
        metadata.  Shared by sweep and search result construction.
        """
        if not self._traces:
            raise SweepError("no design points evaluated yet")
        base_key = predictor_key(self.spec.base.predictor)
        headline = self._traces.get(base_key) \
            or next(iter(self._traces.values()))
        return headline.bits_per_instruction, {
            key: info.bits_per_instruction
            for key, info in self._traces.items()}

    # -- checkpoints ---------------------------------------------------

    def _checkpoint_path(self, point: SweepPoint) -> Path:
        return self.results_dir / f"{point.key}.json"

    def _load_checkpoint(self, path: Path,
                         config_dict: dict) -> dict | None:
        """A validated checkpoint payload, or None to recompute."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            return None
        if payload.get("sweep") != self._manifest():
            return None
        if payload.get("config") != config_dict:
            return None
        if not isinstance(payload.get("stats"), dict):
            return None
        return payload

    # -- slicing -------------------------------------------------------

    def _plan_for(self, trace: _TraceInfo) -> SlicePlan | None:
        """The slice plan every design point over ``trace`` runs as, or
        ``None`` to run each point as one monolithic unit.

        Memoized: a trace's shard boundaries are probed, or its
        profile (a digest-fresh ``.rprof`` sidecar when present) is
        clustered, once per runner; the plan depends only on the trace,
        not the config.  Only an exact one-slice plan runs
        monolithically (bit-identical to the unsplit path, unit
        identity included); a sampled plan stays an estimate even with
        one region, its checkpoint carrying the ``sampled`` marker.
        """
        sampling = self._sampling
        if sampling is None and self.shards == 1:
            return None
        key = str(trace.path)
        if key not in self._plans:
            if sampling is not None:
                self._plans[key] = plan_regions(
                    trace.path, ensure_profile(trace.path),
                    regions=sampling["regions"], seed=sampling["seed"],
                    warmup_segments=sampling["warmup_segments"])
            else:
                self._plans[key] = plan_shards(trace.path, self.shards)
        plan = self._plans[key]
        return None if plan.exact and plan.count == 1 else plan

    # -- unit building -------------------------------------------------

    def _unit_for(self, point: SweepPoint, trace: _TraceInfo,
                  provenance: dict) -> WorkUnit:
        """One design point as a serializable work unit.

        The unit's spec reproduces exactly what the pre-backend worker
        hand-wired: stream the shared trace, simulate under the
        point's config, start at the trace's recorded entry PC.  The
        provenance manifest rides in the tags, which is what makes
        the unit's result document a valid, self-describing sweep
        checkpoint (even if ``sweep.json`` is deleted, results
        computed under different workload/budget/seed parameters
        cannot be revived as this sweep's).
        """
        return WorkUnit.for_trace(
            point.key,
            trace.path.resolve(),
            config_to_dict(point.config),
            self._checkpoint_path(point).resolve(),
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
        search strategies share: load-or-build each point's
        checkpoint, hand the missing ones to the backend as work
        units — one per point, or one per slice of the point's
        :meth:`slice plan <_plan_for>`, merged back into a point
        checkpoint as the last slice lands — and emit progress events
        in true completion order.
        """
        provenance = self._manifest() if points else {}
        outcomes: dict[str, SweepOutcome] = {}
        units: list[WorkUnit] = []
        by_id: dict[str, SweepPoint] = {}
        reducers: dict[str, SliceReducer] = {}
        slice_point: dict[str, str] = {}  # slice unit id -> point key

        def finish(point: SweepPoint, payload: dict,
                   from_checkpoint: bool) -> None:
            outcome = self._outcome(point, payload, from_checkpoint)
            outcomes[point.key] = outcome
            self.progress.point(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        for point in points:
            if point.key in outcomes or point.key in by_id:
                raise SweepError(
                    f"duplicate design point {point.key} "
                    f"({point.label}) in one evaluation batch"
                )
            trace = self._trace_for(point.config.predictor)
            config_dict = config_to_dict(point.config)
            payload = self._load_checkpoint(
                self._checkpoint_path(point), config_dict)
            if payload is not None:
                finish(point, payload, from_checkpoint=True)
                continue
            by_id[point.key] = point
            base_unit = self._unit_for(point, trace, provenance)
            plan = self._plan_for(trace)
            if plan is None:
                units.append(base_unit)
                continue
            # Split: per-slice results are checkpoints too — reuse the
            # ones a previous (interrupted) run already computed and
            # submit only the missing slices.
            reducer = SliceReducer(base_unit, plan)
            pending = []
            for slice_unit in slice_units(base_unit, plan):
                existing = reusable_result(slice_unit)
                if existing is not None:
                    reducer.add(existing)
                else:
                    pending.append(slice_unit)
            if not pending:
                finish(point, reducer.write(), from_checkpoint=True)
                del by_id[point.key]
                continue
            reducers[point.key] = reducer
            for slice_unit in pending:
                slice_point[slice_unit.unit_id] = point.key
                units.append(slice_unit)

        if units:
            def collect(unit: WorkUnit, payload: dict) -> None:
                if "error" in payload:
                    error = payload["error"]
                    self.progress.unit_failed(
                        unit.unit_id,
                        f"{error.get('type')}: {error.get('message')}")
                    return
                point_key = slice_point.get(unit.unit_id)
                if point_key is None:
                    finish(by_id[unit.unit_id], payload,
                           from_checkpoint=False)
                    return
                reducer = reducers[point_key]
                reducer.add(payload)
                if reducer.complete:
                    # The merged document lands at the monolithic
                    # checkpoint path (atomically), so the point
                    # resumes like any other from here on.
                    finish(by_id[point_key], reducer.write(),
                           from_checkpoint=False)

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
        headline, by_predictor = self.trace_summary()
        return SweepResult(
            outcomes=ordered,
            workload=self.workload,
            budget=self.budget,
            seed=self.seed,
            trace_bits_per_instruction=headline,
            metadata={"trace_bits_per_instruction_by_predictor":
                      by_predictor},
            skipped_invalid=expansion.skipped_invalid,
            skipped_duplicates=expansion.skipped_duplicates,
        )

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
        headline, by_predictor = self.trace_summary()
        metadata = {
            "search": {
                "strategy": strategy.name,
                "metric": strategy.metric,
                "rounds": rounds,
                "evaluated": len(evaluated),
            },
            "trace_bits_per_instruction_by_predictor": by_predictor,
        }
        if isinstance(strategy, HillClimb):
            metadata["search"]["trajectory"] = list(strategy.trajectory)
        sweep_result = SweepResult(
            outcomes=tuple(evaluated.values()),
            workload=self.workload,
            budget=self.budget,
            seed=self.seed,
            trace_bits_per_instruction=headline,
            metadata=metadata,
        )
        return SearchResult(
            result=sweep_result,
            best=best,
            strategy=strategy.name,
            metric=strategy.metric,
            rounds=rounds,
        )

    @staticmethod
    def _outcome(point: SweepPoint, payload: dict,
                 from_checkpoint: bool) -> SweepOutcome:
        return SweepOutcome(
            key=point.key,
            params=point.params,
            config=point.config,
            stats=stats_from_dict(payload["stats"]),
            from_checkpoint=from_checkpoint,
        )

