"""Multi-core simulation — the paper's Section VI direction.

*"Therefore it is possible to fit multiple ReSim instances in a single
FPGA and simulate multi-core systems.  We are evaluating the
modifications and extensions that need to be made to ReSim in order to
support multi-core simulation."*

This package implements that evaluation: :class:`MultiCoreSimulator`
places as many ReSim instances on a device as its resources allow
(area model), runs one independent workload per core (the
throughput-oriented multiprogrammed scenario the paper's CMP
motivation describes), and accounts for the *shared trace-input
channel* — the resource the paper identifies as ReSim's bottleneck
(Table 3: ~1.1 Gb/s per instance, already beyond plain GigE).  When
the aggregate trace demand exceeds the link, every instance stalls
proportionally; the model quantifies where per-device simulation
throughput saturates.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.multicore.simulator": "CoreResult MultiCoreResult "
                                 "MultiCoreSimulator TraceChannel",
})
