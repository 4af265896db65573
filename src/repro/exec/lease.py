"""Lease timing shared by the directory queue, its workers and the CLI.

A leaf module: it imports nothing from ``repro``, so ``resim`` can
offer the default as a flag value without loading the queue (and the
engine behind it).
"""

#: Default seconds of lease silence after which a claimed unit is
#: presumed orphaned and becomes reclaimable.  Workers heartbeat well
#: inside this (every lease_seconds / 4), so only a dead worker's
#: lease ever goes stale.
DEFAULT_LEASE_SECONDS = 60.0
