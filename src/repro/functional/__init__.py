"""Functional simulation (the SimpleScalar side of the toolflow).

ReSim does not execute instructions; its traces are produced by *"a
modified (SimpleScalar) functional simulator"* — specifically
``sim-bpred``, a functional simulator that also runs a branch predictor
so that wrong-path blocks can be injected after each mispredicted
branch (Section V.A).  This package is that toolflow:

* :mod:`repro.functional.state` — architectural state (registers,
  sparse byte memory, PC);
* :mod:`repro.functional.executor` — instruction semantics;
* :mod:`repro.functional.sim_fast` — plain functional simulation
  (SimpleScalar's ``sim-fast``): run to completion, count instructions;
* :mod:`repro.functional.sim_bpred` — functional simulation with a
  branch predictor, producing the tagged B/M/O trace ReSim consumes,
  including wrong-path blocks.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.functional.executor": "ExecutionError Executor StepResult",
    "repro.functional.sim_bpred": "SimBpred TraceGenerationResult",
    "repro.functional.sim_fast": "SimFast SimFastResult",
    "repro.functional.state": "MachineState",
})
