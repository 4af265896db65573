"""`repro.session` — the Simulation facade and component registries.

The paper positions ReSim as a *reconfigurable* simulator: one
prepared trace, many scenarios.  This package is the scenario API —
a single :class:`Simulation` entry point (fluent or declarative from
a plain-dict spec) plus the string-keyed registries that make every
pluggable component nameable from CLI flags, specs and sweep axes:

==========================  ===========================================
registry                    components
==========================  ===========================================
:data:`CONFIGS`             named processor configs (``4wide-perfect``,
                            ``2wide-cache``, ...)
:data:`DEVICES`             FPGA parts (``xc4vlx40``, ``xc5vlx50t``, ...)
:data:`WORKLOADS`           SPECINT profiles + assembly kernels
:data:`PREDICTORS`          direction-predictor schemes
:data:`REPLACEMENT_POLICIES` cache replacement policies
==========================  ===========================================

See :mod:`repro.session.simulation` for the full story, and
:class:`repro.core.engine.EngineObserver` for run instrumentation.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bpred.unit": "PREDICTORS",
    "repro.cache.replacement": "REPLACEMENT_POLICIES",
    "repro.core.engine": "EngineObserver",
    "repro.fpga.device": "DEVICES",
    "repro.session.simulation": "CONFIGS PreparedTrace SPEC_SCHEMA "
                                "SessionError SessionResult Simulation "
                                "coerce_engine",
    "repro.utils.registry": "Registry RegistryError",
    "repro.workloads.tracegen": "WORKLOADS",
})
