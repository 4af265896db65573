"""Cache hierarchy substrate.

ReSim simulates caches without storing data: *"Since we do not store
the actual data, we need to provide only the hit/miss indication and
simulate the access latency, so the actual cache requirements are in
the range of 1000 slices plus a few memory blocks for the tags"*
(Section V, Table 4 discussion).  These models are therefore tag-only:
a set-associative tag array with a replacement policy, returning
(hit, latency) per access.

The paper's two memory configurations:

* **perfect memory** — every access hits in one cycle
  (:class:`PerfectMemory`);
* **32 KB L1 instruction and data caches** — 8-way associative, 64-byte
  blocks for the FAST comparison (Table 1 caption; the prose also
  mentions a 2-way variant, which :class:`CacheConfig` expresses just
  as easily).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cache.cache": "Cache CacheConfig CacheStatistics",
    "repro.cache.hierarchy": "AccessResult MemorySystem PerfectMemory",
    "repro.cache.replacement": "FifoPolicy LruPolicy RandomPolicy "
                               "ReplacementPolicy make_policy",
})
