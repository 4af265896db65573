"""ReSim — a trace-driven, reconfigurable ILP processor simulator.

A complete Python reproduction of *"ReSim, a Trace-Driven,
Reconfigurable ILP Processor Simulator"* (Fytraki & Pnevmatikatos,
DATE 2009), including every substrate the paper depends on:

* a SimpleScalar-PISA-like integer ISA with assembler and functional
  simulators (:mod:`repro.isa`, :mod:`repro.functional`);
* the tagged B/M/O trace format with wrong-path blocks
  (:mod:`repro.trace`);
* parametric branch prediction — two-level/gshare/bimodal/combining
  direction predictors, BTB, RAS (:mod:`repro.bpred`) — plus the VHDL
  generator the paper describes (:mod:`repro.fpga.vhdlgen`);
* tag-only cache models (:mod:`repro.cache`);
* **the ReSim engine itself**: the trace-driven out-of-order timing
  core and its minor-cycle pipeline organizations
  (:mod:`repro.core`);
* FPGA device/area/frequency models standing in for the Xilinx flow
  (:mod:`repro.fpga`);
* throughput/bandwidth/comparison models regenerating the paper's
  Tables 1-4 (:mod:`repro.perf`);
* parallel, checkpointed design-space sweeps over one shared trace —
  the paper's "bulk simulations with varying design parameters" mode
  (:mod:`repro.sweep`);
* synthetic SPECINT workload profiles and real assembly kernels
  (:mod:`repro.workloads`), and an independent baseline timing
  simulator for cross-validation (:mod:`repro.baseline`);
* **the session facade** — one :class:`~repro.session.Simulation`
  entry point over the whole pipeline (source → engine → FPGA
  projection), with string-keyed component registries and an engine
  observer/instrumentation API (:mod:`repro.session`).

Quick start
-----------
>>> from repro import Simulation
>>> result = (Simulation.for_workload("gzip")
...           .with_budget(10_000)
...           .with_devices("xc4vlx40")
...           .run())
>>> 0.5 < result.ipc < 4.0
True
>>> result.mips("xc4vlx40") > 1.0
True

The same run, described declaratively (the dict is what sweeps and
remote runners serialize):

>>> from repro.serialize import stats_to_dict
>>> spec = {"workload": "gzip", "budget": 10_000,
...         "config": "4wide-perfect"}
>>> declarative = Simulation.from_spec(spec).run()
>>> stats_to_dict(declarative.stats) == stats_to_dict(result.stats)
True

Every named component — workloads, processor configs, FPGA devices,
predictor schemes, cache replacement policies — resolves through a
registry in :mod:`repro.session`; register a new one and every name
surface (CLI flags, specs, sweep axes) picks it up.

Low-level API
-------------
The facade wires together pieces that remain public; hand-wiring them
is still supported where finer control is needed:

>>> from repro import (PAPER_4WIDE_PERFECT, ReSimEngine,
...                    SyntheticWorkload, get_profile)
>>> workload = SyntheticWorkload(get_profile("gzip"), seed=7)
>>> trace = workload.generate(10_000)
>>> result = ReSimEngine(PAPER_4WIDE_PERFECT, trace.records).run()
>>> 0.5 < result.ipc < 4.0
True

See ``examples/`` for runnable end-to-end scenarios and
``EXPERIMENTS.md`` for the paper-vs-measured record.
"""

from repro.bpred import BranchPredictorUnit, PredictorConfig
from repro.cache import CacheConfig, MemorySystem, PerfectMemory
from repro.core import (
    EngineObserver,
    PAPER_2WIDE_CACHE,
    PAPER_4WIDE_PERFECT,
    ProcessorConfig,
    ReSimEngine,
    SimulationResult,
    select_pipeline,
)
from repro.fpga import (
    AreaEstimator,
    FrequencyModel,
    VIRTEX4_LX40,
    VIRTEX5_LX50T,
    generate_branch_predictor_vhdl,
)
from repro.functional import SimBpred, SimFast
from repro.isa import Program, assemble
from repro.perf import ThroughputModel, evaluate_benchmark, evaluate_suite
from repro.cosim import OnTheFlyCosimulation
from repro.session import (
    CONFIGS,
    DEVICES,
    PREDICTORS,
    REPLACEMENT_POLICIES,
    Registry,
    SessionError,
    SessionResult,
    Simulation,
    WORKLOADS,
)
from repro.sweep import SweepResult, SweepRunner, SweepSpec
from repro.multicore import MultiCoreSimulator, TraceChannel
from repro.trace import (
    FileSource,
    InMemorySource,
    SegmentedTraceWriter,
    TraceSource,
    decode_trace,
    encode_trace,
    iter_trace_records,
    measure_trace,
    read_segment_table,
    read_trace_file,
    write_trace_file,
)
from repro.workloads import (
    KERNELS,
    SPECINT_PROFILES,
    SyntheticWorkload,
    get_profile,
    kernel_program,
    write_workload_trace,
)

__version__ = "1.0.0"

__all__ = [
    "AreaEstimator",
    "BranchPredictorUnit",
    "CONFIGS",
    "CacheConfig",
    "DEVICES",
    "EngineObserver",
    "FileSource",
    "FrequencyModel",
    "InMemorySource",
    "KERNELS",
    "MemorySystem",
    "MultiCoreSimulator",
    "OnTheFlyCosimulation",
    "PAPER_2WIDE_CACHE",
    "PAPER_4WIDE_PERFECT",
    "PREDICTORS",
    "PerfectMemory",
    "PredictorConfig",
    "ProcessorConfig",
    "Program",
    "REPLACEMENT_POLICIES",
    "ReSimEngine",
    "Registry",
    "SPECINT_PROFILES",
    "SegmentedTraceWriter",
    "SessionError",
    "SessionResult",
    "SimBpred",
    "SimFast",
    "Simulation",
    "SimulationResult",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "SyntheticWorkload",
    "ThroughputModel",
    "TraceChannel",
    "TraceSource",
    "VIRTEX4_LX40",
    "VIRTEX5_LX50T",
    "WORKLOADS",
    "__version__",
    "assemble",
    "decode_trace",
    "encode_trace",
    "evaluate_benchmark",
    "evaluate_suite",
    "generate_branch_predictor_vhdl",
    "get_profile",
    "iter_trace_records",
    "kernel_program",
    "measure_trace",
    "read_segment_table",
    "read_trace_file",
    "select_pipeline",
    "write_trace_file",
    "write_workload_trace",
]
