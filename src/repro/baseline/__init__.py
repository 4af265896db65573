"""Baseline software timing simulator (sim-outorder analogue).

An *independent* implementation of the simulated processor's timing,
used two ways:

1. **Cross-validation** — :class:`OutOrderBaseline` computes cycle
   counts with a completely different mechanism (dataflow scheduling
   over a sliding window, no per-cycle state machine), so agreement
   with :class:`repro.core.ReSimEngine` within a documented tolerance
   is meaningful evidence that neither implementation has a gross
   timing bug.  Integration tests enforce the tolerance and that
   benchmark orderings match.

2. **Software-simulator baseline** — the Table 2 comparison quotes
   sim-outorder at 0.30 MIPS on a 2.4 GHz Xeon; our benches
   additionally measure this Python baseline's host throughput to give
   the comparison a local reference point.

Known modelling simplifications versus the engine (all making the
baseline slightly *optimistic*): wrong-path instructions stall fetch
but do not pollute resources; the decouple buffer and IFQ are folded
into a fixed front-end delay; stores release without write-port
contention.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baseline.outorder": "BaselineResult OutOrderBaseline",
})
