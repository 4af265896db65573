"""Tag-only set-associative cache model.

The model tracks tags, valid and dirty bits — never data — exactly as
ReSim's FPGA implementation does (Table 4 discussion: caches need only
"the hit/miss indication and ... the access latency").  Write policy is
write-back / write-allocate, matching SimpleScalar's defaults that the
paper inherits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.replacement import ReplacementPolicy, make_policy


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level.

    The paper's FAST-comparison L1 configuration (Table 1 caption) is
    the default: 32 KB, 8-way, 64-byte blocks.
    """

    name: str = "l1"
    size_bytes: int = 32 * 1024
    block_bytes: int = 64
    assoc: int = 8
    hit_latency: int = 1
    replacement: str = "lru"

    def __post_init__(self) -> None:
        for label, value in (
            ("size_bytes", self.size_bytes),
            ("block_bytes", self.block_bytes),
            ("assoc", self.assoc),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block_bytes must be a power of two")
        if self.size_bytes % (self.block_bytes * self.assoc):
            raise ValueError(
                "size_bytes must be a multiple of block_bytes * assoc"
            )
        if self.hit_latency < 1:
            raise ValueError("hit_latency must be at least 1 cycle")
        if self.sets & (self.sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.assoc)

    @property
    def tag_bits(self) -> int:
        """Bits of tag per block frame for a 32-bit address space."""
        offset_bits = self.block_bytes.bit_length() - 1
        index_bits = self.sets.bit_length() - 1
        return 32 - offset_bits - index_bits

    def describe(self) -> str:
        return (
            f"{self.name}: {self.size_bytes // 1024}KB, {self.assoc}-way, "
            f"{self.block_bytes}B blocks, {self.replacement}"
        )


@dataclass
class CacheStatistics:
    """Per-cache access counters (part of ReSim's statistics unit)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class _Frame:
    tag: int
    dirty: bool = False


class Cache:
    """One tag-only cache level.

    ``probe`` answers hit/miss without side effects (ReSim's Issue
    stage checks the D-cache before Writeback to decide whether the
    writeback must be postponed); ``access`` performs the full lookup
    with fill and replacement.
    """

    def __init__(self, config: CacheConfig,
                 policy: ReplacementPolicy | None = None) -> None:
        self._config = config
        # Fixed way slots so policy way indices stay stable across
        # evictions (a frame is replaced in place, never shifted).
        self._sets: list[list[_Frame | None]] = [
            [None] * config.assoc for _ in range(config.sets)
        ]
        self._policy = policy or make_policy(
            config.replacement, config.sets, config.assoc
        )
        self.stats = CacheStatistics()

    @property
    def config(self) -> CacheConfig:
        return self._config

    def _split(self, address: int) -> tuple[int, int]:
        block = address // self._config.block_bytes
        return block % self._config.sets, block // self._config.sets

    def probe(self, address: int) -> bool:
        """Hit/miss indication with no state change."""
        set_index, tag = self._split(address)
        return any(
            frame is not None and frame.tag == tag
            for frame in self._sets[set_index]
        )

    def access(self, address: int, is_write: bool = False) -> tuple[bool, bool]:
        """Perform one access.

        Returns
        -------
        (hit, writeback):
            ``hit`` — whether the block was resident; ``writeback`` —
            whether a dirty victim was evicted (the caller charges the
            next level).
        """
        set_index, tag = self._split(address)
        ways = self._sets[set_index]
        self.stats.accesses += 1

        free_way = None
        for way, frame in enumerate(ways):
            if frame is None:
                if free_way is None:
                    free_way = way
                continue
            if frame.tag == tag:
                self.stats.hits += 1
                self._policy.on_access(set_index, way)
                if is_write:
                    frame.dirty = True
                return True, False

        # Miss: allocate (write-allocate policy covers both kinds).
        self.stats.misses += 1
        writeback = False
        if free_way is None:
            victim = self._policy.victim(set_index, self._config.assoc)
            victim_frame = ways[victim]
            assert victim_frame is not None
            if victim_frame.dirty:
                writeback = True
                self.stats.writebacks += 1
            self.stats.evictions += 1
            free_way = victim
        ways[free_way] = _Frame(tag=tag, dirty=is_write)
        self._policy.on_access(set_index, free_way)
        return False, writeback

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines."""
        dirty = sum(
            1 for ways in self._sets for frame in ways
            if frame is not None and frame.dirty
        )
        self._sets = [
            [None] * self._config.assoc for _ in range(self._config.sets)
        ]
        self._policy.reset()
        return dirty
