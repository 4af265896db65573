"""Memory system façade used by the timing engine.

Two implementations mirror the paper's two evaluation configurations:

* :class:`PerfectMemory` — every access hits in one cycle (Table 1,
  left: "perfect memory system");
* :class:`MemorySystem` — split L1 instruction/data caches over a flat
  main memory with a fixed miss latency (Table 1, right: 32 KB L1s for
  the FAST comparison).

ReSim accesses the I-cache during Fetch, the D-cache when loads issue
(a read port is allocated "if their value has not been forwarded in
the LSQ") and when committed stores release to memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import Cache, CacheConfig


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory-system access."""

    hit: bool
    latency: int  # total cycles until data/completion


#: Every perfect-memory access: a hit in one cycle.
_PERFECT_HIT = AccessResult(hit=True, latency=1)


class PerfectMemory:
    """The paper's perfect memory system: all accesses hit in 1 cycle."""

    def __init__(self) -> None:
        self.ifetches = 0
        self.reads = 0
        self.writes = 0

    @property
    def is_perfect(self) -> bool:
        return True

    def ifetch(self, address: int) -> AccessResult:
        self.ifetches += 1
        return _PERFECT_HIT

    def dread(self, address: int) -> AccessResult:
        self.reads += 1
        return _PERFECT_HIT

    def dwrite(self, address: int) -> AccessResult:
        self.writes += 1
        return _PERFECT_HIT

    def describe(self) -> str:
        return "perfect memory"


class MemorySystem:
    """Split L1 I/D caches over flat main memory.

    Parameters
    ----------
    icache_config, dcache_config:
        Geometries of the two L1 caches; the defaults are the paper's
        FAST-comparison configuration (32 KB, 8-way, 64 B blocks).
    memory_latency:
        Cycles for a main-memory access on an L1 miss (SimpleScalar's
        classic default of 18 is used; the paper does not state its
        value, see EXPERIMENTS.md).

    A dirty victim drains to memory through write buffers: it is
    counted in the cache's ``writebacks``, never added to an access's
    latency.
    """

    def __init__(
        self,
        icache_config: CacheConfig | None = None,
        dcache_config: CacheConfig | None = None,
        memory_latency: int = 18,
    ) -> None:
        if memory_latency < 1:
            raise ValueError("memory_latency must be at least 1 cycle")
        self.icache = Cache(icache_config or CacheConfig(name="il1"))
        self.dcache = Cache(dcache_config or CacheConfig(name="dl1"))
        self.memory_latency = memory_latency
        # Each cache's two outcomes, (miss, hit), indexed by the hit
        # flag; every access returns one of them.
        self._ioutcomes = self._outcomes(self.icache)
        self._doutcomes = self._outcomes(self.dcache)

    def _outcomes(self, cache: Cache) -> tuple[AccessResult, AccessResult]:
        hit = cache.config.hit_latency
        return (AccessResult(hit=False, latency=hit + self.memory_latency),
                AccessResult(hit=True, latency=hit))

    @property
    def is_perfect(self) -> bool:
        return False

    def ifetch(self, address: int) -> AccessResult:
        """Instruction fetch through the L1 I-cache."""
        return self._ioutcomes[self.icache.access(address)[0]]

    def dread(self, address: int) -> AccessResult:
        """Load access through the L1 D-cache."""
        return self._doutcomes[self.dcache.access(address)[0]]

    def dwrite(self, address: int) -> AccessResult:
        """Committed-store access through the L1 D-cache."""
        return self._doutcomes[self.dcache.access(address, True)[0]]

    def describe(self) -> str:
        return (
            f"{self.icache.config.describe()}; {self.dcache.config.describe()}; "
            f"memory {self.memory_latency} cycles"
        )
