"""``repro.exec`` — where and how design points run, without the
simulation core knowing.

* :class:`~repro.exec.unit.WorkUnit` — one serializable run: a
  :meth:`Simulation.from_spec` spec (a stored trace, optionally a
  segment range of it, or a workload) plus a result destination;
* :class:`~repro.exec.backends.ExecutionBackend` — ``run_units``, run
  in-process, on a process pool, or by ``resim worker`` processes
  draining a :class:`~repro.exec.queue.DirectoryQueueBackend`;
* :class:`~repro.exec.slice.SlicePlan` — one point split into segment
  ranges and merged back: exact shards
  (:func:`~repro.exec.shard.plan_shards`) or weighted region estimates
  (:func:`~repro.exec.regions.plan_regions`);
* :mod:`repro.exec.point` — the one path of a design point (plan,
  split, reuse, merge) for sweeps, ``resim simulate`` and a served
  simulate.

Units are deterministic and results are written atomically, so every
backend writes bit-identical result documents for a batch.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.exec.backends": "ExecutionBackend ProcessPoolBackend "
                           "SerialBackend",
    "repro.exec.lease": "DEFAULT_LEASE_SECONDS",
    "repro.exec.point": "SIMULATE_FIELDS choose_plan normalize_simulate "
                        "point_units run_point simulate_point",
    # BACKENDS is defined in backends; queue registers its "queue"
    # entry, so the registry resolves from there, complete.
    "repro.exec.queue": "BACKENDS DirectoryQueueBackend "
                        "enqueue queue_paths reclaim_stale",
    "repro.exec.regions": "DEFAULT_REGIONS DEFAULT_WARMUP_SEGMENTS "
                          "IPC_ERROR_BOUND plan_cache_info plan_regions",
    "repro.exec.shard": "EXACT_SUM_COUNTERS plan_shards",
    "repro.exec.slice": "Slice SlicePlan SliceReducer merge_region_documents "
                        "merge_slice_documents region_units slice_units",
    "repro.exec.unit": "ExecError RESULT_SCHEMA UnitExecutionError WorkUnit "
                       "atomic_write_json error_document execute_unit "
                       "load_unit_result result_matches_unit reusable_result",
    "repro.exec.worker": "LeaseHeartbeat run_worker",
})
