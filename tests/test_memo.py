"""The bounded memo every process-wide cache shares
(:mod:`repro.utils.memo`): LRU order by weight, the oversize rule,
first-stored-wins ``put``, the counts, and its thread safety."""

import random
import sys
import threading

from repro.utils.memo import BoundedMemo, memo_info


def test_evicts_least_recently_used_by_weight():
    memo = BoundedMemo("test lru", 6, weigh=len, unit="records")
    memo.put("a", (1, 2))
    memo.put("b", (1, 2))
    memo.put("c", (1, 2))
    assert memo.get("a") == (1, 2)       # now "b" is the oldest
    memo.put("d", (1, 2, 3))             # 9 records: evict "b", then "c"
    assert memo.get("b") is None and memo.get("c") is None
    assert memo.values() == [(1, 2), (1, 2, 3)]
    assert memo.info() == {"hits": 1, "misses": 2, "entries": 2,
                           "records": 5}


def test_default_weight_counts_entries():
    memo = BoundedMemo("test entries", 2)
    for key in "abc":
        memo.put(key, key.upper())
    assert memo.values() == ["B", "C"]
    assert memo.info() == {"hits": 0, "misses": 0, "entries": 2}


def test_oversize_value_is_never_stored():
    memo = BoundedMemo("test oversize", 3, weigh=len, unit="records")
    memo.put("small", (1,))
    big = (1, 2, 3, 4)
    assert memo.put("big", big) is big
    assert memo.get("big") is None
    # Nothing was evicted to make room for it.
    assert memo.values() == [(1,)]
    assert memo.info()["records"] == 1


def test_put_returns_the_held_value():
    memo = BoundedMemo("test put")
    first, second = object(), object()
    assert memo.put("key", first) is first
    assert memo.put("key", second) is first
    assert memo.get("key") is first
    assert memo.info()["entries"] == 1


def test_unbounded_without_capacity():
    memo = BoundedMemo("test unbounded")
    for key in range(1000):
        memo.put(key, key + 1)
    assert memo.info()["entries"] == 1000


def test_counts_and_clear():
    memo = BoundedMemo("test counts", 10, weigh=len, unit="records")
    memo.get("a")
    memo.put("a", "xyz")
    memo.get("a")
    memo.get("a")
    assert memo.info() == {"hits": 2, "misses": 1, "entries": 1,
                           "records": 3}
    memo.clear()
    assert memo.info() == {"hits": 0, "misses": 0, "entries": 0,
                           "records": 0}
    assert memo.values() == []


def test_threads_keep_the_weight_consistent():
    """More threads than cores, a short switch interval and a capacity
    small enough to evict constantly: the held weight always equals
    the sum of the held values' weights, every lookup is counted
    once, and racing producers share one object per key."""
    memo = BoundedMemo("test threads", 40, weigh=len, unit="records")
    failures = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(2000):
            key = rng.randrange(24)
            value = memo.get(key)
            if value is None:
                value = memo.put(key, (key,) * (key % 7 + 1))
            if value != (key,) * (key % 7 + 1):
                failures.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    info = memo.info()
    assert info["hits"] + info["misses"] == 8 * 2000
    assert info["records"] == sum(map(len, memo.values()))
    assert info["records"] <= 40
    assert info["entries"] == len(memo.values())


def test_memo_info_names_the_production_memos():
    import repro.core.specialize  # noqa: F401
    import repro.exec.regions  # noqa: F401
    import repro.trace.analyze  # noqa: F401
    import repro.trace.fileio  # noqa: F401

    info = memo_info()
    assert {"compiled engines", "decoded segments", "region plans",
            "trace profiles"} <= info.keys()
    assert info["decoded segments"].keys() == {
        "hits", "misses", "entries", "records"}
    assert info["compiled engines"].keys() == {"hits", "misses",
                                               "entries"}
    local = BoundedMemo("test registry")
    assert memo_info()["test registry"] == local.info()
