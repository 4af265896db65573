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

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bpred.unit": "BranchPredictorUnit PREDICTORS PredictorConfig",
    "repro.cache.cache": "CacheConfig",
    "repro.cache.hierarchy": "MemorySystem PerfectMemory",
    "repro.cache.replacement": "REPLACEMENT_POLICIES",
    "repro.core.config": "PAPER_2WIDE_CACHE PAPER_4WIDE_PERFECT "
                         "ProcessorConfig",
    "repro.core.engine": "EngineObserver ReSimEngine SimulationResult",
    "repro.core.minorpipe": "select_pipeline",
    "repro.cosim.streaming": "OnTheFlyCosimulation",
    "repro.fpga.area": "AreaEstimator",
    "repro.fpga.device": "DEVICES VIRTEX4_LX40 VIRTEX5_LX50T",
    "repro.fpga.timing": "FrequencyModel",
    "repro.fpga.vhdlgen.bpgen": "generate_branch_predictor_vhdl",
    "repro.functional.sim_bpred": "SimBpred",
    "repro.functional.sim_fast": "SimFast",
    "repro.isa.assembler": "assemble",
    "repro.isa.program": "Program",
    "repro.multicore.simulator": "MultiCoreSimulator TraceChannel",
    "repro.perf.harness": "evaluate_benchmark evaluate_suite",
    "repro.perf.throughput": "ThroughputModel",
    "repro.session.simulation": "CONFIGS SessionError SessionResult "
                                "Simulation",
    "repro.sweep.result": "SweepResult",
    "repro.sweep.runner": "SweepRunner",
    "repro.sweep.spec": "SweepSpec",
    "repro.trace.encode": "decode_trace encode_trace",
    "repro.trace.fileio": "SegmentedTraceWriter iter_trace_records "
                          "read_segment_table read_trace_file "
                          "write_trace_file",
    "repro.trace.source": "FileSource InMemorySource TraceSource",
    "repro.trace.stats": "measure_trace",
    "repro.utils.registry": "Registry",
    "repro.workloads.kernels": "KERNELS kernel_program",
    "repro.workloads.profiles": "SPECINT_PROFILES get_profile",
    "repro.workloads.synthetic": "SyntheticWorkload",
    "repro.workloads.tracegen": "WORKLOADS write_workload_trace",
})
