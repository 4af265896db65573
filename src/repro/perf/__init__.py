"""Performance models: simulation throughput, bandwidth, comparisons.

This package turns the engine's major-cycle counts into the quantities
the paper reports:

* :mod:`repro.perf.throughput` — MIPS = f_minor / L x instructions per
  major cycle (Table 1), the wrong-path-inclusive variant and the
  trace-bandwidth requirement (Table 3);
* :mod:`repro.perf.harness` — one-call evaluation of a benchmark on a
  configuration across devices, returning structured rows the
  benchmark scripts and examples share;
* :mod:`repro.perf.comparison` — the cross-simulator comparison of
  Table 2 (published speeds for PTLsim, sim-outorder, GEMS, FAST,
  A-Ports, combined with our measured ReSim rows), and the derived
  speedup claims (>5x over the best hardware simulators).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.perf.comparison": "PUBLISHED_SIMULATORS SimulatorEntry "
                             "comparison_table speedup_over",
    "repro.perf.harness": "BenchmarkRow evaluate_benchmark evaluate_suite",
    "repro.perf.throughput": "ThroughputModel ThroughputReport",
})
