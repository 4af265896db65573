"""Content-addressed result cache: simulate each computation once.

The production-scale move of the campaign service: every completed
work unit's (config, stats) is stored under its
:func:`~repro.serve.canon.cache_key`, so any later submission that
describes the same computation — same canonical spec, same trace
bytes, same engine version — is served from disk instead of burning a
single simulated cycle.  Because the engine is deterministic and the
key covers everything the result depends on, a hit is *byte-identical*
to a re-execution, and overlapping design-space queries from many
users collapse to one simulation each.

Two pieces:

* :class:`CacheStore` — the on-disk store.  Entries live at
  ``objects/<key[:2]>/<key>.json``, written with the repo's atomic
  write-then-rename idiom (this module is registered with resim-lint
  as a queue-protocol module, rule S201), so a crash mid-write never
  leaves a truncated entry.  A ``version.json`` marker pins the
  engine version; opening a store written by a different version
  purges every entry — a simulator change may legitimately change
  results, and stale bits must never be served as fresh ones.
* :class:`CachingBackend` — an :class:`~repro.exec.ExecutionBackend`
  wrapper that memoizes any inner backend at the work-unit level:
  hits synthesize the unit's result document from the cached entry
  (and still write ``result_path``, so sweep checkpoints/reducers
  work unchanged); misses run on the inner backend and are stored as
  they land.  Sweeps, searches, and single simulations all flow
  through units, so one wrapper memoizes every job kind.
"""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence

from repro.exec import ExecutionBackend, WorkUnit
from repro.exec.backends import OnResult
from repro.exec.unit import atomic_write_json, result_document
from repro.serve.canon import (
    CACHE_KEY_LENGTH,
    ENGINE_VERSION,
    cache_key,
    trace_digest,
)

#: Cache entry document schema; bump on incompatible layout changes.
CACHE_SCHEMA = 1


class CacheError(ValueError):
    """Raised for malformed cache stores or entries."""


class CacheStore:
    """Content-addressed store of completed simulation results.

    Thread-safe (the job manager's worker threads share one store);
    all writes are atomic write-then-rename, so concurrent readers on
    a shared filesystem never observe a torn entry, and two writers
    racing on one key both write the same bytes (the key is content-
    addressed — last rename wins, harmlessly).
    """

    def __init__(self, root: str | Path, *,
                 engine_version: str = ENGINE_VERSION) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.engine_version = engine_version
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self._adopt_version()

    # -- versioning ----------------------------------------------------

    def _marker_path(self) -> Path:
        return self.root / "version.json"

    def _adopt_version(self) -> None:
        """Pin the store to this engine version, purging entries a
        different version wrote (stale results must read as misses,
        never as hits)."""
        marker = self._marker_path()
        try:
            existing = json.loads(marker.read_text())
        except (OSError, json.JSONDecodeError):
            existing = None
        if isinstance(existing, dict) \
                and existing.get("engine_version") == self.engine_version \
                and existing.get("schema") == CACHE_SCHEMA:
            self.objects.mkdir(parents=True, exist_ok=True)
            return
        if existing is not None or self.objects.exists():
            self.invalidated += self.invalidate_all()
        self.objects.mkdir(parents=True, exist_ok=True)
        atomic_write_json(marker, {"schema": CACHE_SCHEMA,
                                   "engine_version": self.engine_version})

    def invalidate_all(self) -> int:
        """Drop every entry (returns how many were dropped)."""
        count = len(self)
        if self.objects.exists():
            shutil.rmtree(self.objects)
        self.objects.mkdir(parents=True, exist_ok=True)
        return count

    # -- entries -------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise CacheError(f"malformed cache key {key!r}")
        return self.objects / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The entry stored under ``key``, or None (counted as a
        miss).  Unreadable, foreign-schema, foreign-version, and
        mis-keyed documents all read as misses — never trust bytes
        the validator cannot vouch for."""
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            entry = None
        if (not isinstance(entry, dict)
                or entry.get("schema") != CACHE_SCHEMA
                or entry.get("key") != key
                or entry.get("engine_version") != self.engine_version
                or not isinstance(entry.get("stats"), dict)
                or not isinstance(entry.get("config"), dict)):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return entry

    def put(self, key: str, *, config: Mapping, stats: Mapping,
            trace_digest: str | None = None) -> dict:
        """Store one completed computation under its key."""
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "engine_version": self.engine_version,
            "config": dict(config),
            "stats": dict(stats),
            "canonical_spec": None,  # kept: existing entries' layout
            "trace_digest": trace_digest,
        }
        atomic_write_json(self._entry_path(key), entry)
        with self._lock:
            self.stores += 1
        return entry

    def keys(self) -> list[str]:
        """Every stored key, sorted."""
        if not self.objects.exists():
            return []
        return sorted(path.name[:-len(".json")]
                      for path in self.objects.glob("*/*.json"))

    def __len__(self) -> int:
        if not self.objects.exists():
            return 0
        return sum(1 for _ in self.objects.glob("*/*.json"))

    def stats_document(self) -> dict:
        """Counters + occupancy, for ``GET /v1/cache``."""
        with self._lock:
            return {
                "engine_version": self.engine_version,
                "entries": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "invalidated": self.invalidated,
            }

    def describe(self) -> str:
        return (f"CacheStore({str(self.root)!r}, "
                f"engine_version={self.engine_version!r})")

    __repr__ = describe


#: Callback invoked per unit with its cache verdict:
#: ``(unit, key, hit)`` — the job manager streams these as events.
OnCacheVerdict = Callable[[WorkUnit, str, bool], None]


class CachingBackend(ExecutionBackend):
    """Memoize any inner backend through a :class:`CacheStore`.

    For every unit of a batch: derive its content-addressed key (trace
    digests are memoized per path — trace files are write-once in
    this codebase), serve hits as the unit's
    :func:`~repro.exec.unit.result_document` over the cached (config,
    stats), byte-identical to an execution's, and fan the misses out
    to the inner backend, storing each success as it lands.  Error
    documents are never cached: failures must re-run.

    ``hits``/``misses`` count this instance's verdicts (a job's
    per-run tally); the shared store accumulates the global ones.
    """

    name = "caching"

    def __init__(self, store: CacheStore,
                 inner: ExecutionBackend, *,
                 on_verdict: OnCacheVerdict | None = None) -> None:
        self.store = store
        self.inner = inner
        self.on_verdict = on_verdict
        self.hits = 0
        self.misses = 0
        self._digests: dict[str, str] = {}

    def _digest_for(self, spec: Mapping) -> str | None:
        path = spec.get("trace_file")
        if path is None:
            return None
        resolved = str(Path(str(path)).resolve())
        if resolved not in self._digests:
            self._digests[resolved] = trace_digest(resolved)
        return self._digests[resolved]

    def key_for(self, unit: WorkUnit) -> str:
        """The content-addressed key of one unit's computation."""
        return cache_key(unit.spec,
                         trace_digest=self._digest_for(unit.spec),
                         engine_version=self.store.engine_version,
                         length=CACHE_KEY_LENGTH)

    def _execute(self, batch: Sequence[WorkUnit],
                 on_result: OnResult | None) -> dict[str, dict]:
        results: dict[str, dict] = {}
        keys: dict[str, str] = {}
        misses: list[WorkUnit] = []

        for unit in batch:
            key = self.key_for(unit)
            keys[unit.unit_id] = key
            entry = self.store.get(key)
            if entry is None:
                self.misses += 1
                if self.on_verdict is not None:
                    self.on_verdict(unit, key, False)
                misses.append(unit)
                continue
            self.hits += 1
            if self.on_verdict is not None:
                self.on_verdict(unit, key, True)
            payload = result_document(unit, config=entry["config"],
                                      stats=entry["stats"])
            # Still written to result_path: a cache-served unit's
            # document remains a valid sweep checkpoint / shard input.
            atomic_write_json(unit.result_path, payload)
            results[unit.unit_id] = payload
            if on_result is not None:
                on_result(unit, payload)

        if misses:
            def collect(unit: WorkUnit, payload: dict) -> None:
                if "error" not in payload:
                    self.store.put(
                        keys[unit.unit_id],
                        config=payload["config"],
                        stats=payload["stats"],
                        trace_digest=self._digest_for(unit.spec),
                    )
                results[unit.unit_id] = payload
                if on_result is not None:
                    on_result(unit, payload)

            self.inner.run_units(misses, on_result=collect)
        return results

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return (f"CachingBackend({self.store.describe()} over "
                f"{self.inner.describe()})")
