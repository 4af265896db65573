"""The :class:`Simulation` facade — one entry point for a ReSim run.

A run of the simulator is *source → engine → projection*: a trace
source (synthetic workload, assembled kernel, stored trace file, raw
records, or a live program through the functional tracer), the timing
engine on one :class:`~repro.core.config.ProcessorConfig`, and an
optional FPGA throughput projection.  Before this facade existed,
every consumer hand-wired those pieces; now they all construct a
:class:`Simulation` — fluently::

    result = (Simulation.for_workload("gzip")
              .with_budget(30_000)
              .with_devices("xc4vlx40")
              .run())

or declaratively, from a plain dict that can live in a JSON file, a
sweep manifest, or a message to a remote runner::

    result = Simulation.from_spec({
        "workload": "gzip",
        "budget": 30_000,
        "config": "4wide-perfect",
        "devices": ["xc4vlx40"],
    }).run()

Both forms produce bit-identical statistics to the hand-wired
``generate_workload_trace`` + ``ReSimEngine(...).run()`` they replace
(the test suite asserts this), because they *are* that wiring, done
once.

Components are named through registries
(:mod:`repro.utils.registry`): processor configs (:data:`CONFIGS`),
FPGA devices (:data:`repro.fpga.device.DEVICES`), workloads
(:data:`repro.workloads.tracegen.WORKLOADS`), predictor schemes
(:data:`repro.bpred.unit.PREDICTORS`) and cache replacement policies
(:data:`repro.cache.replacement.REPLACEMENT_POLICIES`), so a spec and
a CLI flag mean the same thing everywhere and new components register
without touching call sites.

Instrumentation rides along: :meth:`Simulation.with_observer` attaches
:class:`~repro.core.engine.EngineObserver` hooks, and
:meth:`Simulation.with_warmup` / :meth:`Simulation.with_roi` /
:meth:`Simulation.with_stop_when` control the measured window.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence

from repro.core.config import (
    PAPER_2WIDE_CACHE,
    PAPER_4WIDE_PERFECT,
    ProcessorConfig,
)
from repro.core.engine import EngineObserver, ReSimEngine, SimulationResult
from repro.core.specialize import (
    DEFAULT_ENGINE,
    ENGINE_TIERS,
    SpecializedEngine,
    choose_tier,
)
from repro.fpga.device import DEVICES, FpgaDevice
from repro.isa.program import Program
from repro.serialize import (
    canonical_digest,
    config_from_dict,
    config_to_dict,
    stats_to_dict,
)
from repro.trace.fileio import SegmentedTraceWriter
from repro.trace.record import TraceRecord
from repro.trace.source import FileSource, InMemorySource, TraceSource
from repro.trace.stats import TraceStatistics, measure_trace
from repro.utils.atomic import atomic_path
from repro.utils.registry import Registry

#: Named processor configurations (Table 1's two machines).  Register
#: more (``CONFIGS.register("my-config", ProcessorConfig(...))``) and
#: they become valid ``--config`` CLI values and spec strings.
CONFIGS: Registry[ProcessorConfig] = Registry("config")
CONFIGS.register("4wide-perfect", PAPER_4WIDE_PERFECT)
CONFIGS.register("2wide-cache", PAPER_2WIDE_CACHE)

#: Spec schema version; bump on incompatible layout changes.
SPEC_SCHEMA = 1

_SPEC_KEYS = frozenset((
    "schema", "workload", "trace_file", "config", "budget", "seed",
    "start_pc", "update_predictor_at_commit", "warmup_instructions",
    "roi_instructions", "devices", "max_cycles", "segments", "engine",
))


def coerce_engine(value: object) -> str:
    """Validate an engine-tier name from a spec, keyword or option —
    the one engine-name check every entry point shares."""
    if value not in ENGINE_TIERS:
        raise SessionError(
            f"unknown engine tier {value!r}; known: "
            f"{', '.join(ENGINE_TIERS)}")
    return str(value)


def _coerce_segments(value: object) -> tuple[int, int]:
    """Validate a ``(lo, hi)`` segment range from a spec or keyword."""
    if (not isinstance(value, Sequence) or isinstance(value, (str, bytes))
            or len(value) != 2):
        raise SessionError(
            f"a segment range is a (lo, hi) pair of segment indices, "
            f"got {value!r}"
        )
    try:
        lo, hi = int(value[0]), int(value[1])
    except (TypeError, ValueError):
        raise SessionError(
            f"segment range bounds must be integers, got {value!r}"
        ) from None
    if lo < 0 or hi <= lo:
        # An empty range (lo == hi) is rejected too: it would simulate
        # zero records yet produce a structurally valid result document
        # that checkpoints and caches as a "successful" run.
        raise SessionError(
            f"segment range needs 0 <= lo < hi, got ({lo}, {hi})")
    return (lo, hi)


class SessionError(ValueError):
    """Raised for malformed simulation specs or misused facades."""


@dataclass(frozen=True)
class PreparedTrace:
    """A prepared trace the engine can run: one rewindable
    :class:`~repro.trace.source.TraceSource` — a
    :class:`~repro.trace.source.FileSource` over a stored trace, or an
    :class:`~repro.trace.source.InMemorySource` over generated or
    given records.  Consumers call :meth:`open_source` for a fresh
    engine-ready cursor.

    ``trace_stats`` carries record-stream statistics
    (bits/instruction etc.) when the source computed them anyway;
    :meth:`Simulation.trace_statistics` fills it on demand otherwise.
    ``predictor_mismatch`` is set for stored traces whose recorded
    generation predictor differs from the engine's — the Tag bits may
    then not match the engine's predictions (callers decide whether
    to warn or refuse).
    """

    source: TraceSource
    start_pc: int | None
    trace_stats: TraceStatistics | None = None
    predictor_mismatch: bool = False

    @property
    def record_count(self) -> int:
        """Stream length, without decoding it."""
        return self.source.total_records

    def open_source(self) -> TraceSource:
        """A fresh cursor over the prepared trace (every call rewinds,
        so repeated ``run()``s see the full stream)."""
        return self.source.fresh()


# ---------------------------------------------------------------------
# Trace sources.  Each knows how to prepare an engine-ready trace
# source and whether it can be described in a serializable spec.


@dataclass(frozen=True)
class _WorkloadSource:
    name: str

    def prepare(self, sim: Simulation) -> PreparedTrace:
        from repro.workloads.tracegen import generate_workload_trace
        generation, start_pc = generate_workload_trace(
            self.name, sim.config, budget=sim.budget, seed=sim.seed)
        return PreparedTrace(InMemorySource(generation.records),
                             start_pc=start_pc,
                             trace_stats=generation.statistics())

    def spec_entry(self) -> dict:
        return {"workload": self.name}

    def describe(self) -> str:
        return f"workload {self.name!r}"


@dataclass(frozen=True)
class _TraceFileSource:
    path: str
    segments: tuple[int, int] | None = None

    def prepare(self, sim: Simulation) -> PreparedTrace:
        source = FileSource(self.path, segments=self.segments)
        header = source.header
        stored = header.predictor_config
        return PreparedTrace(
            source,
            start_pc=header.metadata.get("start_pc"),
            predictor_mismatch=(stored is not None
                                and stored != sim.config.predictor),
        )

    def spec_entry(self) -> dict:
        entry: dict = {"trace_file": self.path}
        if self.segments is not None:
            entry["segments"] = list(self.segments)
        return entry

    def describe(self) -> str:
        mode = "streamed"
        if self.segments is not None:
            mode += f", segments {self.segments[0]}..{self.segments[1]}"
        return f"trace file {self.path!r} ({mode})"


@dataclass(frozen=True)
class _RecordsSource:
    records: Sequence[TraceRecord]
    start_pc: int | None

    def prepare(self, sim: Simulation) -> PreparedTrace:
        return PreparedTrace(InMemorySource(self.records),
                             start_pc=self.start_pc)

    def spec_entry(self) -> dict:
        raise SessionError(
            "a simulation over in-memory records has no serializable "
            "spec; construct from a workload name or trace file instead"
        )

    def describe(self) -> str:
        return f"{len(self.records)} in-memory records"


@dataclass(frozen=True)
class _ProgramSource:
    program: Program
    inputs: tuple[int, ...] | None

    def prepare(self, sim: Simulation) -> PreparedTrace:
        from repro.workloads.tracegen import build_tracer
        tracer = build_tracer(sim.config)
        inputs = list(self.inputs) if self.inputs is not None else None
        generation = tracer.generate(self.program, inputs=inputs)
        return PreparedTrace(InMemorySource(generation.records),
                             start_pc=self.program.entry,
                             trace_stats=generation.statistics())

    def spec_entry(self) -> dict:
        raise SessionError(
            "a simulation over an assembled program has no serializable "
            "spec; trace it to a file first (save_trace) or use a "
            "kernel workload name"
        )

    def describe(self) -> str:
        return "assembled program"


# ---------------------------------------------------------------------


@dataclass
# resim-lint: disable=S202 -- deliberate one-way export: results are
# reconstructed from their inner "stats"/"config" documents via
# stats_from_dict/config_from_dict, never from this wrapper.
class SessionResult:
    """Outcome of one :meth:`Simulation.run`.

    Wraps the engine's :class:`~repro.core.engine.SimulationResult`
    (identical counts to a hand-wired run) plus everything the facade
    knew about the run: trace statistics when the source produced
    them, per-device throughput projections, and the serializable spec
    when one exists.
    """

    result: SimulationResult
    reports: dict[str, object]
    trace_stats: TraceStatistics | None = None
    start_pc: int | None = None
    spec: dict | None = None
    #: The engine tier that actually executed the run (a name from
    #: ``ENGINE_TIERS``, see :func:`~repro.core.specialize.choose_tier`);
    #: informational only, deliberately absent from :meth:`to_dict`
    #: (both tiers are bit-identical, so result documents must not
    #: differ by tier).
    engine_tier: str = DEFAULT_ENGINE

    @property
    def config(self) -> ProcessorConfig:
        return self.result.config

    @property
    def stats(self):
        return self.result.stats

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def major_cycles(self) -> int:
        return self.result.major_cycles

    def mips(self, device_name: str) -> float:
        """FPGA-projected simulation speed on one requested device."""
        try:
            return self.reports[device_name].mips
        except KeyError:
            raise KeyError(
                f"no projection for device {device_name!r}; requested "
                f"devices: {', '.join(self.reports) or '(none)'}"
            ) from None

    def to_dict(self) -> dict:
        """JSON-safe form (shared encoders with sweep checkpoints)."""
        document = {
            "schema": SPEC_SCHEMA,
            "config": config_to_dict(self.result.config),
            "stats": stats_to_dict(self.result.stats),
            "ipc": self.ipc,
            "major_cycles": self.major_cycles,
            "mips": {name: report.mips
                     for name, report in self.reports.items()},
        }
        if self.spec is not None:
            document["spec"] = self.spec
        if self.start_pc is not None:
            document["start_pc"] = self.start_pc
        if self.trace_stats is not None:
            document["trace_bits_per_instruction"] = (
                self.trace_stats.bits_per_instruction)
        return document

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with atomic_path(path) as tmp:
                tmp.write_text(text)
        return text


class Simulation:
    """One fully described simulator run (see module docstring).

    Instances are immutable in style: every ``with_*`` method returns
    a new :class:`Simulation`, so partial builders can be shared and
    specialized (the sweep pattern: one base, many variants).
    """

    def __init__(
        self,
        config: ProcessorConfig = PAPER_4WIDE_PERFECT,
        *,
        source=None,
        budget: int = 30_000,
        seed: int = 7,
        start_pc: int | None = None,
        update_predictor_at_commit: bool = True,
        devices: tuple[FpgaDevice, ...] = (),
        observers: tuple[EngineObserver, ...] = (),
        warmup_instructions: int = 0,
        roi_instructions: int | None = None,
        stop_when: Callable[[ReSimEngine], bool] | None = None,
        max_cycles: int | None = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        if source is None:
            raise SessionError(
                "a Simulation needs a trace source; construct it with "
                "for_workload / for_trace_file / for_records / "
                "for_program or from_spec"
            )
        self._engine = coerce_engine(engine)
        self._config = config
        self._source = source
        self._budget = budget
        self._seed = seed
        self._start_pc = start_pc
        self._update_at_commit = update_predictor_at_commit
        self._devices = devices
        self._observers = observers
        self._warmup = warmup_instructions
        self._roi = roi_instructions
        self._stop_when = stop_when
        self._max_cycles = max_cycles
        self._prepared: PreparedTrace | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def for_workload(cls, workload: str,
                     config: ProcessorConfig = PAPER_4WIDE_PERFECT, *,
                     budget: int = 30_000, seed: int = 7,
                     ) -> Simulation:
        """A run over a named workload (SPECINT profile or kernel)."""
        return cls(config, source=_WorkloadSource(workload),
                   budget=budget, seed=seed)

    @classmethod
    def for_trace_file(cls, path: str | Path,
                       config: ProcessorConfig = PAPER_4WIDE_PERFECT,
                       *, segments: tuple[int, int] | None = None,
                       ) -> Simulation:
        """A run over a stored ``.rtrc`` trace file.

        The file is streamed through a
        :class:`~repro.trace.source.FileSource`: peak resident memory
        is bounded by the segment size, not the trace length, and
        statistics are bit-identical to :meth:`for_records` over the
        same records.  Each ``run()`` decodes the file again; wrap
        repeated runs in
        :func:`~repro.trace.fileio.decoded_segment_reuse` to share
        decoded v2 segments between them.

        ``segments=(lo, hi)`` restricts the run to a v2 file's
        segment range ``lo..hi-1`` — the worker-side half of sharded
        distributed sweeps, where each work unit replays one slice of
        one shared trace.
        """
        if segments is not None:
            segments = _coerce_segments(segments)
        return cls(config, source=_TraceFileSource(str(path), segments))

    @classmethod
    def for_records(cls, records: Sequence[TraceRecord],
                    config: ProcessorConfig = PAPER_4WIDE_PERFECT, *,
                    start_pc: int | None = None) -> Simulation:
        """A run over records already in memory."""
        return cls(config, source=_RecordsSource(records, start_pc))

    @classmethod
    def for_program(cls, program: Program,
                    config: ProcessorConfig = PAPER_4WIDE_PERFECT, *,
                    inputs: Sequence[int] | None = None) -> Simulation:
        """A run over an assembled program, traced through the
        functional simulator (``sim-bpred``) at prepare time."""
        inputs_tuple = tuple(inputs) if inputs is not None else None
        return cls(config, source=_ProgramSource(program, inputs_tuple))

    # -- declarative form ----------------------------------------------

    @classmethod
    def from_spec(cls, spec: Mapping) -> Simulation:
        """Build a run from a plain-dict description.

        The spec is the serializable contract shared by the CLI, the
        sweep subsystem, and future distributed runners::

            {
                "workload": "gzip",          # or "trace_file": "t.rtrc"
                "config": "4wide-perfect",   # name or full config dict
                "budget": 30000, "seed": 7,
                "devices": ["xc4vlx40"],
                "warmup_instructions": 0,
                "roi_instructions": null,
                "update_predictor_at_commit": true,
            }

        Unknown keys are rejected (a typo'd key silently ignored would
        change the experiment being described).
        """
        if not isinstance(spec, Mapping):
            raise SessionError(
                f"spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - _SPEC_KEYS
        if unknown:
            raise SessionError(
                f"unknown spec key(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"valid keys: {', '.join(sorted(_SPEC_KEYS))}"
            )
        schema = spec.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SessionError(
                f"unsupported spec schema {schema!r} "
                f"(this version reads schema {SPEC_SCHEMA})"
            )

        workload = spec.get("workload")
        trace_file = spec.get("trace_file")
        if (workload is None) == (trace_file is None):
            raise SessionError(
                "spec needs exactly one source: 'workload' or "
                "'trace_file'"
            )
        segments = spec.get("segments")
        if workload is not None:
            if segments is not None:
                raise SessionError(
                    "spec key 'segments' applies only to "
                    "'trace_file' sources"
                )
            source = _WorkloadSource(workload)
        else:
            source = _TraceFileSource(
                str(trace_file),
                None if segments is None else _coerce_segments(segments))

        config = spec.get("config", PAPER_4WIDE_PERFECT)
        if isinstance(config, str):
            config = CONFIGS.get(config)
        elif isinstance(config, Mapping):
            try:
                config = config_from_dict(dict(config))
            except (KeyError, TypeError, ValueError) as error:
                raise SessionError(
                    f"bad config in spec: {error!r}") from None
        elif not isinstance(config, ProcessorConfig):
            raise SessionError(
                f"spec 'config' must be a registered name, a config "
                f"dict, or a ProcessorConfig, got {config!r}"
            )

        devices = []
        for device in spec.get("devices", ()):
            devices.append(device if isinstance(device, FpgaDevice)
                           else DEVICES.get(device))

        def optional_int(key: str) -> int | None:
            value = spec.get(key)
            return None if value is None else int(value)

        try:
            return cls(
                config,
                source=source,
                budget=int(spec.get("budget", 30_000)),
                seed=int(spec.get("seed", 7)),
                start_pc=optional_int("start_pc"),
                update_predictor_at_commit=bool(
                    spec.get("update_predictor_at_commit", True)),
                devices=tuple(devices),
                warmup_instructions=int(
                    spec.get("warmup_instructions", 0)),
                roi_instructions=optional_int("roi_instructions"),
                max_cycles=optional_int("max_cycles"),
                engine=spec.get("engine", DEFAULT_ENGINE),
            )
        except (TypeError, ValueError) as error:
            if isinstance(error, SessionError):
                raise
            raise SessionError(f"bad value in spec: {error}") from None

    def to_spec(self) -> dict:
        """The serializable description of this run.

        Inverse of :meth:`from_spec` (``from_spec(sim.to_spec())``
        describes the identical run).  Raises :class:`SessionError`
        for runs over in-memory records or programs, and for attached
        observers/predicates (code does not serialize).
        """
        if self._observers or self._stop_when is not None:
            raise SessionError(
                "a simulation with observers or a stop predicate has "
                "no serializable spec (code does not serialize); "
                "attach them after from_spec on the running side"
            )
        spec: dict = {"schema": SPEC_SCHEMA}
        spec.update(self._source.spec_entry())
        named = next((name for name in CONFIGS
                      if CONFIGS[name] == self._config), None)
        spec["config"] = named or config_to_dict(self._config)
        spec["budget"] = self._budget
        spec["seed"] = self._seed
        if self._start_pc is not None:
            spec["start_pc"] = self._start_pc
        if not self._update_at_commit:
            spec["update_predictor_at_commit"] = False
        if self._devices:
            spec["devices"] = [device.name for device in self._devices]
        if self._warmup:
            spec["warmup_instructions"] = self._warmup
        if self._roi is not None:
            spec["roi_instructions"] = self._roi
        if self._max_cycles is not None:
            spec["max_cycles"] = self._max_cycles
        if self._engine != DEFAULT_ENGINE:
            spec["engine"] = self._engine
        return spec

    def canonical_spec(self) -> dict:
        """The *canonical* serializable description of this run.

        Same contract as :meth:`to_spec` (``from_spec`` reproduces the
        identical run) but normalized for hashing: every default is
        filled in (a spec that omits ``budget`` and one that spells
        out ``"budget": 30000`` canonicalize identically), the config
        is always the full config dict (a registered name and its
        expanded dict canonicalize identically), keys are emitted in
        sorted order, and the source entry always carries all three
        source keys (``workload`` / ``trace_file`` / ``segments``,
        unused ones ``None``).  The ``engine`` tier is dropped: every
        tier is bit-identical by contract, so a campaign run with
        ``--engine reference`` shares its cache keys (and cached
        results) with the default-tier run it reproduces.

        This is the spec half of the campaign-service cache key (see
        :mod:`repro.serve.canon`); :meth:`spec_key` hashes it.
        """
        self.to_spec()  # same serializability rules (and errors)
        source = self._source
        if isinstance(source, _WorkloadSource):
            entry: dict = {"workload": source.name, "trace_file": None,
                           "segments": None}
        else:
            segments = (None if source.segments is None
                        else [int(source.segments[0]),
                              int(source.segments[1])])
            entry = {"workload": None, "trace_file": source.path,
                     "segments": segments}
        spec = {
            "schema": SPEC_SCHEMA,
            "config": config_to_dict(self._config),
            "budget": self._budget,
            "seed": self._seed,
            "start_pc": self._start_pc,
            "update_predictor_at_commit": self._update_at_commit,
            "devices": [device.name for device in self._devices],
            "warmup_instructions": self._warmup,
            "roi_instructions": self._roi,
            "max_cycles": self._max_cycles,
            **entry,
        }
        return dict(sorted(spec.items()))

    def spec_key(self, *, length: int = 40) -> str:
        """Canonical hash of this run's description.

        Truncated SHA-256 over :meth:`canonical_spec`'s canonical JSON
        — invariant under spec key reordering and default
        materialization, so users can predict the campaign service's
        cache keys offline (``resim spec hash``).  Note the full cache
        key additionally folds in the trace content digest and the
        engine version (:func:`repro.serve.canon.cache_key`).
        """
        return canonical_digest(self.canonical_spec(), length=length)

    # -- fluent builders -----------------------------------------------

    def _replace(self, **changes) -> Simulation:
        clone = copy.copy(self)
        for name, value in changes.items():
            setattr(clone, name, value)
        clone._prepared = None  # a changed run must re-prepare
        return clone

    def with_config(self, config: ProcessorConfig | str) -> Simulation:
        """Swap the processor configuration (name or object)."""
        if isinstance(config, str):
            config = CONFIGS.get(config)
        return self._replace(_config=config)

    def with_predictor(self, predictor) -> Simulation:
        """Swap the branch predictor (scheme name or PredictorConfig).

        Note the trace-driven contract: for workload sources the trace
        is regenerated with the new predictor, but a stored trace file
        keeps its recorded wrong paths (``predictor_mismatch`` will be
        set if they disagree).
        """
        from repro.bpred.unit import PredictorConfig, PREDICTORS
        if isinstance(predictor, str):
            PREDICTORS.get(predictor)  # validate the name
            predictor = PredictorConfig(scheme=predictor)
        return self._replace(
            _config=replace(self._config, predictor=predictor))

    def with_budget(self, budget: int) -> Simulation:
        """Instruction budget for synthetic workload generation."""
        return self._replace(_budget=budget)

    def with_seed(self, seed: int) -> Simulation:
        """Synthetic-generator seed."""
        return self._replace(_seed=seed)

    def with_start_pc(self, start_pc: int | None) -> Simulation:
        """Override the engine's first-fetch PC (rarely needed; trace
        files and kernels carry their own)."""
        return self._replace(_start_pc=start_pc)

    def with_devices(self, *devices: FpgaDevice | str) -> Simulation:
        """FPGA devices to project throughput onto (names or objects)."""
        resolved = tuple(
            device if isinstance(device, FpgaDevice)
            else DEVICES.get(device)
            for device in devices
        )
        return self._replace(_devices=resolved)

    def with_observer(self, *observers: EngineObserver) -> Simulation:
        """Attach engine instrumentation (appends to existing)."""
        return self._replace(_observers=self._observers + observers)

    def with_warmup(self, instructions: int) -> Simulation:
        """Fast-forward: commit this many instructions with warm
        microarchitectural state before statistics start."""
        return self._replace(_warmup=instructions)

    def with_roi(self, instructions: int | None) -> Simulation:
        """Region of interest: stop after this many post-warmup
        committed instructions."""
        return self._replace(_roi=instructions)

    def with_stop_when(
            self, predicate: Callable[[ReSimEngine], bool] | None
    ) -> Simulation:
        """Early-stop predicate, checked after every cycle."""
        return self._replace(_stop_when=predicate)

    def with_max_cycles(self, max_cycles: int | None) -> Simulation:
        """Cycle budget guard (None = the engine's default)."""
        return self._replace(_max_cycles=max_cycles)

    def with_predictor_training(self, at_commit: bool) -> Simulation:
        """True (paper behaviour): train the predictor at commit;
        False: train at fetch (engine agrees with the generator
        bit-for-bit)."""
        return self._replace(_update_at_commit=at_commit)

    def with_engine(self, engine: str) -> Simulation:
        """Select the engine tier executing this run (a name from
        :data:`repro.core.specialize.ENGINE_TIERS`).  The default,
        ``specialized``, is the config-compiled fast path;
        ``reference`` is the interpreted oracle it is bit-identical
        to.  :func:`~repro.core.specialize.choose_tier` still runs
        ``reference`` when the run needs the engine between cycles
        (hook-overriding observers other than progress reporting,
        ``stop_when``) or carries subclassed configs."""
        return self._replace(_engine=coerce_engine(engine))

    # -- introspection -------------------------------------------------

    @property
    def config(self) -> ProcessorConfig:
        return self._config

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def devices(self) -> tuple[FpgaDevice, ...]:
        return self._devices

    @property
    def engine(self) -> str:
        """The requested engine tier (:meth:`build_engine` applies
        :func:`~repro.core.specialize.choose_tier` to it)."""
        return self._engine

    def describe(self) -> str:
        return (f"Simulation({self._source.describe()} on "
                f"{self._config.describe()})")

    __repr__ = describe

    # -- execution -----------------------------------------------------

    def prepare(self) -> PreparedTrace:
        """Prepare the trace source (cached across calls, so
        ``prepare()`` + ``run()`` generates only once)."""
        if self._prepared is None:
            self._prepared = self._source.prepare(self)
        return self._prepared

    def trace_statistics(self) -> TraceStatistics:
        """Record-stream statistics of the prepared trace, measuring
        on demand for sources that don't compute them anyway (a
        stored trace file is measured in one constant-memory pass)."""
        prepared = self.prepare()
        if prepared.trace_stats is not None:
            return prepared.trace_stats
        return measure_trace(prepared.open_source())

    def build_engine(
            self,
            trace: Sequence[TraceRecord] | TraceSource | None = None,
    ) -> ReSimEngine | SpecializedEngine:
        """Construct the engine for this run, on the tier
        :func:`~repro.core.specialize.choose_tier` picks.

        ``trace`` overrides the prepared source — the streaming
        co-simulation driver passes its growing input FIFO here and
        drives the engine step by step, so an override always gets the
        reference engine, with the facade's start PC and observers.
        """
        prepared = self.prepare()
        start_pc = (self._start_pc if self._start_pc is not None
                    else prepared.start_pc)
        if self._tier(stepwise=trace is not None) == "specialized":
            return SpecializedEngine(
                self._config, prepared.open_source(), start_pc=start_pc,
                update_predictor_at_commit=self._update_at_commit,
                wrong_path_free=self._wrong_path_free(prepared),
                observers=self._observers)
        if trace is None:
            trace = prepared.open_source()
        engine = ReSimEngine(
            self._config, trace, start_pc=start_pc,
            update_predictor_at_commit=self._update_at_commit,
        )
        for observer in self._observers:
            engine.add_observer(observer)
        return engine

    def _tier(self, *, stepwise: bool = False) -> str:
        """The tier this run executes on (see :meth:`build_engine`)."""
        return choose_tier(self._engine, self._config,
                           observers=self._observers,
                           stop_when=self._stop_when, stepwise=stepwise)

    @staticmethod
    def _wrong_path_free(prepared: PreparedTrace) -> bool:
        """True only when the prepared trace *provably* contains no
        tagged (wrong-path) records, letting the specialized tier
        compile out speculative fetch and recovery.

        Sound sources of that fact: the generator's own trace
        statistics, or a v2 file header whose committed-count
        consistency field equals the record count (every record
        untagged).  Anything unprovable stays False — the wrong-path
        variant is still bit-identical, just slightly slower; and the
        generated code re-checks the claim per record, failing loudly
        rather than silently diverging.
        """
        if prepared.trace_stats is not None:
            return prepared.trace_stats.wrong_path_records == 0
        source = prepared.source
        if isinstance(source, FileSource):
            header = source.header
            return (header.record_count < (1 << 32)
                    and header.record_count == header.committed_low32)
        return False

    def run(self, max_cycles: int | None = None) -> SessionResult:
        """Prepare, simulate, and project — the whole pipeline."""
        prepared = self.prepare()
        engine = self.build_engine()
        result = engine.run(
            max_cycles if max_cycles is not None else self._max_cycles,
            warmup_instructions=self._warmup,
            roi_instructions=self._roi,
            stop_when=self._stop_when,
        )
        from repro.perf.throughput import ThroughputModel
        reports = {
            device.name: ThroughputModel(device).report(result)
            for device in self._devices
        }
        try:
            spec = self.to_spec()
        except SessionError:
            spec = None
        return SessionResult(
            result=result,
            reports=reports,
            trace_stats=prepared.trace_stats,
            start_pc=(self._start_pc if self._start_pc is not None
                      else prepared.start_pc),
            spec=spec,
            engine_tier=self._tier(),
        )

    def save_trace(self, path: str | Path, *,
                   benchmark: str | None = None,
                   extra: dict | None = None) -> tuple[int, int]:
        """Persist the prepared trace as a ``.rtrc`` file (format v2).

        Returns ``(record_count, bytes_written)``.  The file carries
        the generation predictor, the workload name, the seed and the
        start PC, so ``Simulation.for_trace_file`` reproduces this
        run's timing exactly.  The prepared source streams through a
        :class:`~repro.trace.fileio.SegmentedTraceWriter` into a
        temporary sibling renamed over ``path`` on success, so a
        stored trace is re-saved one segment at a time.  (To
        generate-and-persist a workload without ever holding the
        record list, use
        :func:`repro.workloads.tracegen.write_workload_trace`.)
        """
        prepared = self.prepare()
        if benchmark is None:
            source = self._source
            benchmark = (source.name
                         if isinstance(source, _WorkloadSource)
                         else "unknown")
        metadata = dict(extra or {})
        start_pc = (self._start_pc if self._start_pc is not None
                    else prepared.start_pc)
        if start_pc is not None:
            metadata.setdefault("start_pc", start_pc)
        with atomic_path(path) as tmp, SegmentedTraceWriter(
            tmp, predictor=self._config.predictor, benchmark=benchmark,
            seed=self._seed, extra=metadata,
        ) as writer:
            writer.extend(prepared.open_source())
        return writer.record_count, writer.bytes_written
