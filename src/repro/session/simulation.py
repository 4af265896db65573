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

Every spec key is one row of :data:`SPEC_FIELDS`, which the
constructor, :meth:`Simulation.from_spec`, :meth:`Simulation.to_spec`
and :meth:`Simulation.canonical_spec` read; a value its row's check
(the one campaigns use) refuses raises :class:`SessionError`.

Instrumentation rides along: :meth:`Simulation.with_observer` attaches
:class:`~repro.core.engine.EngineObserver` hooks, and
:meth:`Simulation.with_warmup` / :meth:`Simulation.with_roi` /
:meth:`Simulation.with_stop_when` control the measured window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from repro.utils.fields import Field
from repro.utils.registry import Registry, RegistryError

#: Named processor configurations (Table 1's two machines).  Register
#: more (``CONFIGS.register("my-config", ProcessorConfig(...))``) and
#: they become valid ``--config`` CLI values and spec strings.
CONFIGS: Registry[ProcessorConfig] = Registry("config")
CONFIGS.register("4wide-perfect", PAPER_4WIDE_PERFECT)
CONFIGS.register("2wide-cache", PAPER_2WIDE_CACHE)

#: Spec schema version; bump on incompatible layout changes.
SPEC_SCHEMA = 1

#: Every spec key, in ``to_spec`` order.
SPEC_FIELDS = {field.name: field for field in (
    Field("schema", int, SPEC_SCHEMA),
    Field("workload", str, None, omit_default=True),
    Field("trace_file", str, None, omit_default=True),
    Field("segments", list, None, omit_default=True),
    Field("config", str, "4wide-perfect"),
    Field("budget", int, 30_000, minimum=1),
    Field("seed", int, 7),
    Field("start_pc", int, None, minimum=0, nullable=True,
          omit_default=True),
    Field("update_predictor_at_commit", bool, True, omit_default=True),
    Field("devices", list, [], omit_default=True),
    Field("warmup_instructions", int, 0, minimum=0, omit_default=True),
    Field("roi_instructions", int, None, minimum=1, nullable=True,
          omit_default=True),
    Field("max_cycles", int, None, minimum=1, nullable=True,
          omit_default=True),
    Field("engine", str, DEFAULT_ENGINE, choices=ENGINE_TIERS,
          omit_default=True, affects_results=False),
)}

#: Keys with code of their own; the rest are plain checked values.
_OWN_CODE = ("schema", "workload", "trace_file", "segments", "config",
             "devices")
_VALUE_FIELDS = {name: field for name, field in SPEC_FIELDS.items()
                 if name not in _OWN_CODE}
SEGMENT_BOUND = Field("segment range bound", int, None, minimum=0)


def _segments(value: object) -> tuple[int, int] | None:
    """Validate a ``(lo, hi)`` segment range (or ``None``: the whole
    file) from a spec or keyword."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SessionError(
            f"a segment range is a (lo, hi) pair of segment indices, "
            f"got {value!r}"
        )
    lo, hi = (SEGMENT_BOUND.check(bound, SessionError) for bound in value)
    if hi <= lo:
        # An empty range (lo == hi) is rejected too: it would simulate
        # zero records yet produce a structurally valid result document
        # that checkpoints and caches as a "successful" run.
        raise SessionError(
            f"segment range needs 0 <= lo < hi, got ({lo}, {hi})")
    return (lo, hi)


def spec_config(config: object) -> ProcessorConfig:
    """A spec's config: a registered name, a config dict, or a
    :class:`~repro.core.config.ProcessorConfig`.  The one config
    resolver specs, campaign requests and result checks share; every
    refusal is a :class:`SessionError`."""
    if isinstance(config, str):
        try:
            return CONFIGS.get(config)
        except RegistryError as error:
            raise UnknownConfigError(str(error)) from None
    if isinstance(config, Mapping):
        try:
            return config_from_dict(dict(config))
        except (KeyError, TypeError, ValueError) as error:
            raise SessionError(f"bad config in spec: {error!r}") from None
    if not isinstance(config, ProcessorConfig):
        raise SessionError(
            f"spec 'config' must be a registered name, a config "
            f"dict, or a ProcessorConfig, got {config!r}"
        )
    return config


def _devices(devices: object) -> tuple[FpgaDevice, ...]:
    """FPGA devices by name or object."""
    if not isinstance(devices, (list, tuple)):
        raise SessionError(
            f"devices must be a list of device names, got {devices!r}")
    return tuple(device if isinstance(device, FpgaDevice)
                 else DEVICES.get(device) for device in devices)


class SessionError(ValueError):
    """Raised for malformed simulation specs or misused facades."""


class UnknownConfigError(SessionError, RegistryError):
    """An unregistered config name: a spec refusal that is still the
    ``RegistryError`` a registry lookup raises."""


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
# source; those a spec can name give their keys (``spec_entry``).


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
        return {"trace_file": self.path,
                "segments": None if self.segments is None
                else list(self.segments)}

    def describe(self) -> str:
        if self.segments is None:
            return f"trace file {self.path!r}"
        lo, hi = self.segments
        return f"trace file {self.path!r} (segments {lo}..{hi})"


@dataclass(frozen=True)
class _RecordsSource:
    records: Sequence[TraceRecord]

    def prepare(self, sim: Simulation) -> PreparedTrace:
        return PreparedTrace(InMemorySource(self.records), start_pc=None)

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
    ``values`` are the plain spec values (``budget``, ``seed``,
    ``start_pc``, ``update_predictor_at_commit``,
    ``warmup_instructions``, ``roi_instructions``, ``max_cycles``,
    ``engine``); each is checked against its :data:`SPEC_FIELDS` row,
    and a missing one takes the row's default.  ``config`` is a
    :class:`~repro.core.config.ProcessorConfig` or a name registered
    in :data:`CONFIGS`; anything else is refused here, not when the
    run starts.
    """

    def __init__(
        self,
        config: ProcessorConfig | str = PAPER_4WIDE_PERFECT,
        *,
        source,
        devices: tuple[FpgaDevice, ...] = (),
        observers: tuple[EngineObserver, ...] = (),
        stop_when: Callable[[ReSimEngine], bool] | None = None,
        **values,
    ) -> None:
        unknown = set(values) - set(_VALUE_FIELDS)
        if unknown:
            raise TypeError(f"unexpected Simulation value(s) "
                            f"{', '.join(sorted(unknown))}")
        if isinstance(config, str):
            config = spec_config(config)
        elif not isinstance(config, ProcessorConfig):
            raise SessionError(
                f"config must be a ProcessorConfig or a registered name "
                f"({', '.join(CONFIGS.names())}), got {config!r}")
        self._config = config
        self._source = source
        self._devices = devices
        self._observers = observers
        self._stop_when = stop_when
        self._values = {
            name: field.check(values.get(name, field.default),
                              SessionError)
            for name, field in _VALUE_FIELDS.items()}
        self._prepared: PreparedTrace | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def for_workload(cls, workload: str,
                     config: ProcessorConfig | str = PAPER_4WIDE_PERFECT,
                     **values) -> Simulation:
        """A run over a named workload (SPECINT profile or kernel);
        ``values`` are spec values (``budget``, ``seed``, ...)."""
        return cls(config, source=_WorkloadSource(workload), **values)

    @classmethod
    def for_trace_file(cls, path: str | Path,
                       config: ProcessorConfig | str = PAPER_4WIDE_PERFECT,
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
        return cls(config,
                   source=_TraceFileSource(str(path), _segments(segments)))

    @classmethod
    def for_records(cls, records: Sequence[TraceRecord],
                    config: ProcessorConfig | str = PAPER_4WIDE_PERFECT, *,
                    start_pc: int | None = None) -> Simulation:
        """A run over records already in memory."""
        return cls(config, source=_RecordsSource(records), start_pc=start_pc)

    @classmethod
    def for_program(cls, program: Program,
                    config: ProcessorConfig | str = PAPER_4WIDE_PERFECT, *,
                    inputs: Sequence[int] | None = None) -> Simulation:
        """A run over an assembled program, traced through the
        functional simulator (``sim-bpred``) at prepare time."""
        return cls(config, source=_ProgramSource(
            program, None if inputs is None else tuple(inputs)))

    # -- declarative form ----------------------------------------------

    @classmethod
    def from_spec(cls, spec: Mapping) -> Simulation:
        """Build a run from a plain-dict description (see the module
        docstring) — the serializable contract shared by the CLI, the
        sweep subsystem, and the campaign service.

        Its keys are the :data:`SPEC_FIELDS` rows.  Unknown keys are
        rejected (a typo'd key silently ignored would change the
        experiment being described), and so is any value its row's
        check refuses: values are never coerced.
        """
        if not isinstance(spec, Mapping):
            raise SessionError(
                f"spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - set(SPEC_FIELDS)
        if unknown:
            raise SessionError(
                f"unknown spec key(s) {', '.join(sorted(map(repr, unknown)))}; "
                f"valid keys: {', '.join(sorted(SPEC_FIELDS))}"
            )
        schema = spec.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SessionError(
                f"unsupported spec schema {schema!r} "
                f"(this version reads schema {SPEC_SCHEMA})"
            )

        workload, trace_file, segments = (
            spec.get(name) for name in ("workload", "trace_file", "segments"))
        if (workload is None) == (trace_file is None):
            raise SessionError(
                "spec needs exactly one source: 'workload' or "
                "'trace_file'"
            )
        if workload is not None and segments is not None:
            raise SessionError(
                "spec key 'segments' applies only to 'trace_file' sources")
        source = (_WorkloadSource(workload) if trace_file is None else
                  _TraceFileSource(str(trace_file), _segments(segments)))
        return cls(
            spec_config(spec.get("config", SPEC_FIELDS["config"].default)),
            source=source, devices=_devices(spec.get("devices", ())),
            **{name: spec[name] for name in _VALUE_FIELDS if name in spec})

    def _spec_values(self, config: object) -> dict:
        """Every spec key's value for this run, ``config`` as given."""
        if self._observers or self._stop_when is not None:
            raise SessionError(
                "a simulation with observers or a stop predicate has "
                "no serializable spec (code does not serialize); "
                "attach them after from_spec on the running side"
            )
        if not hasattr(self._source, "spec_entry"):
            raise SessionError(
                f"a simulation over {self._source.describe()} has no "
                f"serializable spec; save_trace it to a file first or "
                f"use a workload name")
        return {"schema": SPEC_SCHEMA, "workload": None, "trace_file": None,
                "segments": None, **self._source.spec_entry(),
                "config": config,
                "devices": [device.name for device in self._devices],
                **self._values}

    def to_spec(self) -> dict:
        """The serializable description of this run.

        Inverse of :meth:`from_spec` (``from_spec(sim.to_spec())``
        describes the identical run); ``omit_default`` keys at their
        default are left out.  Raises :class:`SessionError` for runs
        over in-memory records or programs, and for attached
        observers/predicates (code does not serialize).
        """
        named = next((name for name in CONFIGS
                      if CONFIGS[name] == self._config), None)
        values = self._spec_values(named or config_to_dict(self._config))
        return {name: values[name] for name, field in SPEC_FIELDS.items()
                if not (field.omit_default and values[name] == field.default)}

    def canonical_spec(self) -> dict:
        """The *canonical* serializable description of this run.

        Same contract as :meth:`to_spec` (``from_spec`` reproduces the
        identical run) but normalized for hashing: every key is
        present with defaults filled in (a spec that omits ``budget``
        and one that spells out ``"budget": 30000`` canonicalize
        identically), the config is always the full config dict (a
        registered name and its expanded dict canonicalize
        identically), keys are emitted in sorted order, and unused
        source keys are ``None``.  Keys results do not depend on
        (``engine``: every tier is bit-identical by contract) are
        dropped, so a campaign run with ``--engine reference`` shares
        its cache keys (and cached results) with the default-tier run
        it reproduces.

        This is the spec half of the campaign-service cache key (see
        :mod:`repro.serve.canon`); :meth:`spec_key` hashes it.
        """
        values = self._spec_values(config_to_dict(self._config))
        return {name: values[name] for name in sorted(SPEC_FIELDS)
                if SPEC_FIELDS[name].affects_results}

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
        """A new run (so it prepares again) with ``changes``:
        constructor arguments by name."""
        return type(self)(**{
            "config": self._config, "source": self._source,
            "devices": self._devices, "observers": self._observers,
            "stop_when": self._stop_when, **self._values, **changes})

    def with_budget(self, budget: int) -> Simulation:
        """Instruction budget for synthetic workload generation."""
        return self._replace(budget=budget)

    def with_seed(self, seed: int) -> Simulation:
        """Synthetic-generator seed."""
        return self._replace(seed=seed)

    def with_devices(self, *devices: FpgaDevice | str) -> Simulation:
        """FPGA devices to project throughput onto (names or objects)."""
        return self._replace(devices=_devices(devices))

    def with_observer(self, *observers: EngineObserver) -> Simulation:
        """Attach engine instrumentation (appends to existing)."""
        return self._replace(observers=self._observers + observers)

    def with_warmup(self, instructions: int) -> Simulation:
        """Fast-forward: commit this many instructions with warm
        microarchitectural state before statistics start."""
        return self._replace(warmup_instructions=instructions)

    def with_roi(self, instructions: int | None) -> Simulation:
        """Region of interest: stop after this many post-warmup
        committed instructions."""
        return self._replace(roi_instructions=instructions)

    def with_stop_when(
            self, predicate: Callable[[ReSimEngine], bool] | None
    ) -> Simulation:
        """Early-stop predicate, checked after every cycle."""
        return self._replace(stop_when=predicate)

    def with_engine(self, engine: str) -> Simulation:
        """Select the engine tier executing this run (a name from
        :data:`repro.core.specialize.ENGINE_TIERS`).  The default,
        ``specialized``, is the config-compiled fast path;
        ``reference`` is the interpreted oracle it is bit-identical
        to.  :func:`~repro.core.specialize.choose_tier` still runs
        ``reference`` when the run needs the engine between cycles
        (hook-overriding observers other than progress reporting,
        ``stop_when``) or carries subclassed configs."""
        return self._replace(engine=engine)

    # -- introspection -------------------------------------------------

    @property
    def config(self) -> ProcessorConfig:
        return self._config

    @property
    def budget(self) -> int:
        return self._values["budget"]

    @property
    def seed(self) -> int:
        return self._values["seed"]

    @property
    def devices(self) -> tuple[FpgaDevice, ...]:
        return self._devices

    @property
    def engine(self) -> str:
        """The requested engine tier (:meth:`build_engine` applies
        :func:`~repro.core.specialize.choose_tier` to it)."""
        return self._values["engine"]

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
        start_pc = self._start_pc(prepared)
        at_commit = self._values["update_predictor_at_commit"]
        if self._tier(stepwise=trace is not None) == "specialized":
            return SpecializedEngine(
                self._config, prepared.open_source(), start_pc=start_pc,
                update_predictor_at_commit=at_commit,
                wrong_path_free=self._wrong_path_free(prepared),
                observers=self._observers)
        if trace is None:
            trace = prepared.open_source()
        engine = ReSimEngine(
            self._config, trace, start_pc=start_pc,
            update_predictor_at_commit=at_commit,
        )
        for observer in self._observers:
            engine.add_observer(observer)
        return engine

    def _start_pc(self, prepared: PreparedTrace) -> int | None:
        """The spec's ``start_pc``, else the prepared trace's."""
        start_pc = self._values["start_pc"]
        return prepared.start_pc if start_pc is None else start_pc

    def _tier(self, *, stepwise: bool = False) -> str:
        """The tier this run executes on (see :meth:`build_engine`)."""
        return choose_tier(self.engine, self._config,
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
            max_cycles if max_cycles is not None
            else self._values["max_cycles"],
            warmup_instructions=self._values["warmup_instructions"],
            roi_instructions=self._values["roi_instructions"],
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
            start_pc=self._start_pc(prepared),
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
        start_pc = self._start_pc(prepared)
        if start_pc is not None:
            metadata.setdefault("start_pc", start_pc)
        with atomic_path(path) as tmp, SegmentedTraceWriter(
            tmp, predictor=self._config.predictor, benchmark=benchmark,
            seed=self.seed, extra=metadata,
        ) as writer:
            writer.extend(prepared.open_source())
        return writer.record_count, writer.bytes_written
