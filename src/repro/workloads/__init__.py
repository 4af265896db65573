"""Workloads: synthetic SPECINT profiles and real assembled kernels.

The paper evaluates ReSim on five SPECINT CPU2000 programs (gzip,
bzip2, parser, vortex, vpr) with the ``train`` inputs, traced through a
modified SimpleScalar.  SPEC binaries and inputs are proprietary and
unavailable here, so this package provides the documented substitution
(DESIGN.md §2):

* :mod:`repro.workloads.profiles` — per-benchmark statistical profiles
  (instruction mix, branch-site structure and predictability, dependency
  distances, memory locality, code footprint);
* :mod:`repro.workloads.synthetic` — a deterministic generator that
  turns a profile into a control-flow-graph *skeleton* (functions,
  blocks, loop/conditional/call sites at stable PCs) and walks it,
  emitting exactly the tagged B/M/O trace a ``sim-bpred`` run over a
  real program would produce — including wrong-path blocks injected
  with the same shared :class:`~repro.bpred.unit.BranchPredictorUnit`;
* :mod:`repro.workloads.kernels` — genuine assembly kernels (sort,
  string search, checksum, list traversal, matrix multiply) assembled
  for the PISA-like ISA and traced through the *real* functional
  simulator, used in examples and cross-validation tests.

Trace-driven timing depends only on the statistical structure of the
dynamic stream; the profiles encode that structure per benchmark, so
orderings and ratios in the reproduced tables are meaningful even
though absolute MIPS are not expected to match the paper's testbed.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.kernels": "KERNELS kernel_program kernel_source",
    "repro.workloads.profiles": "BenchmarkProfile SPECINT_PROFILES "
                                "get_profile",
    "repro.workloads.synthetic": "SyntheticWorkload",
    "repro.workloads.tracegen": "UnknownWorkloadError WrittenTrace "
                                "generate_workload_trace is_known_workload "
                                "write_workload_trace",
})
