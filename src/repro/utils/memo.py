"""A bounded, thread-safe memo: the one policy every process-wide
cache shares.

ReSim's bulk mode prepares one trace and simulates it across a whole
design grid, and four per-process caches make that cheap: compiled
engines (:mod:`repro.core.specialize`), decoded trace segments
(:mod:`repro.trace.fileio`), trace profiles
(:mod:`repro.trace.analyze`) and region plans
(:mod:`repro.exec.regions`).  Each is a :class:`BoundedMemo` — one
lock, a least-recently-used order bounded by total weight, and
hit/miss counts — and :func:`memo_info` reports every live memo by
name.  The counts are process telemetry only: never part of any
statistics or result document.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Every live memo by name, for :func:`memo_info`.
_MEMOS: weakref.WeakValueDictionary[str, BoundedMemo] = \
    weakref.WeakValueDictionary()


class BoundedMemo(Generic[K, V]):
    """A process-wide LRU memo whose held values weigh at most
    ``capacity`` in total (``None``: unbounded).

    Each value weighs ``weigh(value)``, 1 when ``weigh`` is omitted, so
    the capacity counts entries by default; ``unit`` names what it
    counts, and :meth:`info` reports the held weight under that name
    when it is not ``"entries"``.  A value heavier than the whole
    capacity is never stored.  Values must not be ``None``, which
    :meth:`get` returns on a miss.
    """

    def __init__(self, name: str, capacity: int | None = None, *,
                 weigh: Callable[[V], int] | None = None,
                 unit: str = "entries") -> None:
        self.capacity = capacity
        self._weigh = weigh
        self._unit = unit
        self._lock = threading.Lock()
        #: ``key -> (value, weight)``, least recently used first.
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._weight = 0
        self._hits = 0
        self._misses = 0
        _MEMOS[name] = self

    def get(self, key: K) -> V | None:
        """The value held under ``key`` (now the most recently used),
        or ``None``; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: K, value: V) -> V:
        """Store ``value`` under ``key``, evicting least recently used
        entries past the capacity, and return what the memo now holds
        there: a value already held wins, so racing producers end up
        sharing one object."""
        weight = 1 if self._weigh is None else self._weigh(value)
        with self._lock:
            held = self._entries.get(key)
            if held is not None:
                self._entries.move_to_end(key)
                return held[0]
            if self.capacity is not None and weight > self.capacity:
                return value
            self._entries[key] = (value, weight)
            self._weight += weight
            while self.capacity is not None and \
                    self._weight > self.capacity:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._weight -= evicted
            return value

    def values(self) -> list[V]:
        """A snapshot of the held values, least recently used first."""
        with self._lock:
            return [value for value, _ in self._entries.values()]

    def info(self) -> dict:
        """Hit/miss counts, the number of entries and, when the
        capacity counts another unit, the weight held in it."""
        with self._lock:
            info = {"hits": self._hits, "misses": self._misses,
                    "entries": len(self._entries)}
            if self._unit != "entries":
                info[self._unit] = self._weight
            return info

    def clear(self) -> None:
        """Drop every entry and zero the counts (test isolation)."""
        with self._lock:
            self._entries.clear()
            self._weight = self._hits = self._misses = 0


def memo_info() -> dict[str, dict]:
    """:meth:`BoundedMemo.info` of every live memo, by name."""
    return {name: memo.info() for name, memo in list(_MEMOS.items())}
