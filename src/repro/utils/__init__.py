"""Shared plumbing for the ReSim reproduction.

This package collects small, dependency-free building blocks used across
the simulator substrates:

* :mod:`repro.utils.registry` — the string-keyed registry every
  pluggable component family (devices, predictors, workloads, configs)
  is named through.
* :mod:`repro.utils.queues` — fixed-capacity circular queues modelling
  hardware structures (IFQ, decouple buffer, reorder buffer, LSQ).
* :mod:`repro.utils.rng` — a deterministic xorshift PRNG plus the handful
  of distributions the synthetic workload generator needs.  Determinism
  matters: the same seed must produce the same trace on every platform so
  that experiments are exactly reproducible.
* :mod:`repro.utils.memo` — the bounded, thread-safe LRU memo behind
  every process-wide cache, and :func:`~repro.utils.memo.memo_info`.
* :mod:`repro.utils.atomic` — the write-then-rename idiom every file
  ReSim writes goes through.
* :mod:`repro.utils.lazy` — the export table every package
  ``__init__`` resolves its names through on first use.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.utils.queues": "CircularQueue QueueEmptyError QueueFullError",
    "repro.utils.rng": "XorShiftRNG",
})
