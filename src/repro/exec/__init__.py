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

from repro.exec.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.exec.queue import (
    DEFAULT_LEASE_SECONDS,
    DirectoryQueueBackend,
    enqueue,
    queue_paths,
    reclaim_stale,
)
from repro.exec.regions import (
    DEFAULT_REGIONS,
    DEFAULT_WARMUP_SEGMENTS,
    IPC_ERROR_BOUND,
    plan_regions,
)
from repro.exec.shard import EXACT_SUM_COUNTERS, plan_shards
from repro.exec.slice import (
    Slice,
    SlicePlan,
    SliceReducer,
    merge_slice_documents,
    slice_units,
)
from repro.exec.unit import (
    ExecError,
    RESULT_SCHEMA,
    UnitExecutionError,
    WorkUnit,
    atomic_write_json,
    error_document,
    execute_unit,
    load_unit_result,
    result_matches_unit,
    reusable_result,
)
from repro.exec.worker import LeaseHeartbeat, run_worker

# The benchmark harness (resimbench/) imports these two names and runs
# unchanged against older revisions too, so they stay as plain aliases
# of the unified functions.
region_units = slice_units
merge_region_documents = merge_slice_documents

__all__ = [
    "BACKENDS",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_REGIONS",
    "DEFAULT_WARMUP_SEGMENTS",
    "DirectoryQueueBackend",
    "EXACT_SUM_COUNTERS",
    "ExecError",
    "ExecutionBackend",
    "IPC_ERROR_BOUND",
    "LeaseHeartbeat",
    "ProcessPoolBackend",
    "RESULT_SCHEMA",
    "SerialBackend",
    "Slice",
    "SlicePlan",
    "SliceReducer",
    "UnitExecutionError",
    "WorkUnit",
    "atomic_write_json",
    "enqueue",
    "error_document",
    "execute_unit",
    "load_unit_result",
    "merge_region_documents",
    "merge_slice_documents",
    "plan_regions",
    "plan_shards",
    "queue_paths",
    "reclaim_stale",
    "region_units",
    "result_matches_unit",
    "reusable_result",
    "run_worker",
    "slice_units",
]
