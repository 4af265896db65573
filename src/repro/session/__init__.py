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

from repro.bpred.unit import PREDICTORS
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.core.engine import EngineObserver
from repro.fpga.device import DEVICES
from repro.session.simulation import (
    CONFIGS,
    PreparedTrace,
    SPEC_SCHEMA,
    SessionError,
    SessionResult,
    Simulation,
    coerce_engine,
)
from repro.utils.registry import Registry, RegistryError
from repro.workloads.tracegen import WORKLOADS

__all__ = [
    "CONFIGS",
    "DEVICES",
    "EngineObserver",
    "PREDICTORS",
    "PreparedTrace",
    "REPLACEMENT_POLICIES",
    "Registry",
    "RegistryError",
    "SPEC_SCHEMA",
    "SessionError",
    "SessionResult",
    "Simulation",
    "WORKLOADS",
    "coerce_engine",
]
