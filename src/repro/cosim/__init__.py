"""On-the-fly co-simulation — the paper's FAST-style usage mode.

*"ReSim can be used with traces that are prepared off-line ... or can
be used in combination with a fast functional software simulator to
efficiently add the timing information on the fly, much like the FAST
approach."* (Section I; reiterated as future work in Section VI.)

:class:`OnTheFlyCosimulation` couples the functional side (a real
``sim-bpred`` run over an assembled program, streamed in chunks) with
the timing side (the ReSim engine consuming records as they arrive)
and a transfer-channel model, then reports which of the three stages —
functional production, link transfer, FPGA timing simulation — bounds
the pipeline.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cosim.streaming": "CosimResult OnTheFlyCosimulation StageRates",
})
