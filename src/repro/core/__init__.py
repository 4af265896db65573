"""The ReSim core: a trace-driven OoO timing engine plus its
minor-cycle pipeline models.

This package is the paper's primary contribution.  Two layers mirror
the paper's two-level structure (Section IV):

1. **Simulated architecture** — :class:`~repro.core.engine.ReSimEngine`
   advances one *major cycle* (one simulated processor cycle) at a
   time, enforcing the simulated micro-architectural semantics at major
   cycle boundaries: Fetch (IFQ, branch prediction, I-cache, misfetch),
   Dispatch (decouple buffer → Reorder Buffer + LSQ, rename table),
   Issue (ready scheduling onto ALU/MUL/DIV, load ports, D-cache),
   Writeback (oldest-completed broadcast + wakeup), Commit (in-order
   retire, store release, branch-predictor update, mis-speculation
   recovery) and Lsq_refresh (memory-dependence resolution, once per
   major cycle).

2. **ReSim's internal pipeline** — :mod:`~repro.core.minorpipe` models
   how one major cycle decomposes into *minor cycles* on the FPGA:
   the simple serial organization (2N+3 minor cycles, Figure 2), the
   improved one (N+4, Figure 3) and the optimized one (N+3, Figure 4,
   valid when the processor has at most N−1 memory ports).  Simulation
   wall-clock and throughput derive from major-cycle counts x minor
   latency x the device's minor-cycle frequency.
"""

from repro.core.config import (
    PAPER_2WIDE_CACHE,
    PAPER_4WIDE_PERFECT,
    ProcessorConfig,
)
from repro.core.engine import (
    EngineObserver,
    ReSimEngine,
    SimulationResult,
    WarmupWindowError,
)
from repro.core.observers import ProgressObserver
from repro.core.minorpipe import (
    ImprovedPipeline,
    MinorPipeline,
    OptimizedPipeline,
    SimplePipeline,
    select_pipeline,
)
from repro.core.specialize import (
    ENGINE_TIERS,
    SpecializationError,
    SpecializedEngine,
    choose_tier,
)
from repro.core.stats import SimulationStatistics

__all__ = [
    "ENGINE_TIERS",
    "EngineObserver",
    "ImprovedPipeline",
    "MinorPipeline",
    "OptimizedPipeline",
    "PAPER_2WIDE_CACHE",
    "PAPER_4WIDE_PERFECT",
    "ProcessorConfig",
    "ProgressObserver",
    "ReSimEngine",
    "SimplePipeline",
    "SimulationResult",
    "SimulationStatistics",
    "SpecializationError",
    "SpecializedEngine",
    "WarmupWindowError",
    "choose_tier",
    "select_pipeline",
]
