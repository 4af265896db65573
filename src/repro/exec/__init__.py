"""``repro.exec`` — pluggable execution backends for bulk simulation.

The paper's bulk mode prepares a trace off-line and simulates it
across a whole design grid; this package decides *where those
simulations run* without the simulation core knowing or caring.  The
pieces:

* :class:`~repro.exec.unit.WorkUnit` — one serializable run: a
  :meth:`Simulation.from_spec` dict (PR 2) over a shared trace file
  (PR 3, optionally a segment shard) plus a result destination;
* :class:`~repro.exec.backends.ExecutionBackend` — the
  ``run_units`` protocol every dispatcher implements;
* :class:`~repro.exec.backends.SerialBackend` /
  :class:`~repro.exec.backends.ProcessPoolBackend` — in-process and
  one-host fan-out (the sweep runner's historical behaviors);
* :class:`~repro.exec.queue.DirectoryQueueBackend` + ``resim worker``
  (:mod:`repro.exec.worker`) — multi-host execution over a shared
  filesystem with crash-tolerant atomic-rename leases;
* :class:`~repro.exec.slice.SlicePlan` (:mod:`repro.exec.slice`) —
  split one design point into segment-range slice units and merge
  their results back into one point result, through one
  :func:`~repro.exec.slice.slice_units`, one
  :class:`~repro.exec.slice.SliceReducer` and one
  :func:`~repro.exec.slice.merge_slice_documents`.  Two planners build
  it: :func:`~repro.exec.shard.plan_shards` cuts exact, contiguous
  shards (:mod:`repro.exec.shard`), and
  :func:`~repro.exec.regions.plan_regions` samples one weighted,
  warmup-prefixed representative per behaviour cluster, whose merge
  estimates the full run (:mod:`repro.exec.regions`).

Backends are named in :data:`~repro.exec.backends.BACKENDS`.  Because
work units are deterministic and results are written atomically,
every backend produces bit-identical result documents for the same
batch — the property the sweep and search layers build on.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.exec.backends": "ExecutionBackend ProcessPoolBackend "
                           "SerialBackend",
    # BACKENDS is defined in backends; queue registers its "queue"
    # entry, so the registry resolves from there, complete.
    "repro.exec.queue": "BACKENDS DEFAULT_LEASE_SECONDS DirectoryQueueBackend "
                        "enqueue queue_paths reclaim_stale",
    "repro.exec.regions": "DEFAULT_REGIONS DEFAULT_WARMUP_SEGMENTS "
                          "IPC_ERROR_BOUND plan_regions",
    "repro.exec.shard": "EXACT_SUM_COUNTERS plan_shards",
    "repro.exec.slice": "Slice SlicePlan SliceReducer merge_region_documents "
                        "merge_slice_documents region_units slice_units",
    "repro.exec.unit": "ExecError RESULT_SCHEMA UnitExecutionError WorkUnit "
                       "atomic_write_json error_document execute_unit "
                       "load_unit_result result_matches_unit reusable_result",
    "repro.exec.worker": "LeaseHeartbeat run_worker",
})
