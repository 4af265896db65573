"""Structure-level FPGA area estimation (the Table 4 substitute).

Without Xilinx ISE, areas are produced by an *analytic resource model*:
each pipeline stage and storage structure gets a parametric LUT/FF/BRAM
formula (distributed-RAM bits, comparators, per-entry bookkeeping,
selection logic), and the per-component constants are **calibrated so
the paper's 4-wide evaluation configuration reproduces the Table 4
breakdown** (xc4vlx40: 12 273 slices / 17 175 4-input LUTs / 7 BRAMs
excluding caches, with Fetch the largest stage at ~25 % and the branch
predictor holding ~71 % of BRAMs).

What the model is for — and not for
-----------------------------------
It exists so that configuration *changes* scale resources the way the
real design would: doubling the reorder buffer doubles its
distributed-RAM and wakeup-comparator terms; growing the PHT crosses
BRAM-block boundaries; adding cache tags in distributed RAM (the
paper's D-cache choice) costs LUTs while BRAM-resident tags (their
I-cache choice) cost blocks.  Absolute numbers inherit the calibration
and should be read as Table-4-anchored estimates, not synthesis
results.

Technology assumptions (Virtex-4 flavoured):

* a 4-input LUT implements 16 bits of single-port distributed RAM;
  dual-porting doubles the LUT count;
* an n-bit comparator costs n/2 LUTs (carry-chain);
* slices are derived per component as ``luts x slice_factor``, the
  factor encoding each component's FF-vs-LUT richness as observed in
  Table 4 (e.g. Dispatch packs FF-heavy pipeline registers: more
  slices than its LUT share alone would suggest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bpred.unit import PredictorConfig
from repro.cache.cache import CacheConfig
from repro.core.config import ProcessorConfig

#: Bits of one 18 kb Virtex-4 block RAM.
BRAM_BITS = 18 * 1024

#: Worst-case trace record width plus valid/state bits, as held in the
#: IFQ and decouple buffer (B record: 60 bits + bookkeeping).
RECORD_SLOT_BITS = 66

#: In-flight state bits per reorder-buffer entry (record fields, timing
#: state, completion flags, branch resolution).
ROB_ENTRY_BITS = 110

#: Address + state bits per LSQ entry.
LSQ_ENTRY_BITS = 70

#: Tag + valid + dirty bits per cache frame (32-bit addresses).
CACHE_TAG_BITS = 22

#: Slices-per-LUT factors per component, calibrated to Table 4.
_SLICE_FACTORS = {
    "fetch": 0.795, "dispatch": 1.318, "issue": 0.523, "lsq": 0.539,
    "writeback": 0.549, "commit": 0.731, "rename": 0.549, "rob": 0.680,
    "lsq_store": 1.098, "bpred": 0.731, "dcache": 0.830, "icache": 0.735,
}

#: Display names in Table 4 column order.
_DISPLAY = {
    "fetch": "fetch", "dispatch": "disp", "issue": "issue", "lsq": "lsq",
    "writeback": "wb", "commit": "cmt", "rename": "RT", "rob": "RB",
    "lsq_store": "LSQ", "bpred": "BP", "dcache": "D-C", "icache": "I-C",
}

#: Components whose area the paper's reported totals exclude.
_CACHE_COMPONENTS = ("dcache", "icache")


def _dist_ram_luts(bits: int, ports: int = 1) -> int:
    """LUTs to hold ``bits`` of distributed RAM with ``ports`` ports."""
    return math.ceil(bits / 16) * max(1, ports)


@dataclass(frozen=True)
class StageArea:
    """Resource usage of one stage or storage structure."""

    component: str
    luts: int
    slices: int
    brams: int

    @property
    def display_name(self) -> str:
        return _DISPLAY.get(self.component, self.component)


@dataclass(frozen=True)
class AreaReport:
    """Full-design area breakdown in Table 4 form."""

    stages: tuple[StageArea, ...]
    device_name: str

    def _sum(self, attribute: str, include_caches: bool) -> int:
        return sum(
            getattr(stage, attribute) for stage in self.stages
            if include_caches or stage.component not in _CACHE_COMPONENTS
        )

    @property
    def total_slices(self) -> int:
        """Total slices *excluding* caches (the paper's reported total)."""
        return self._sum("slices", include_caches=False)

    @property
    def total_luts(self) -> int:
        """Total 4-input LUTs excluding caches."""
        return self._sum("luts", include_caches=False)

    @property
    def total_brams(self) -> int:
        """Total block RAMs (caches included, as in Table 4's BRAM row)."""
        return self._sum("brams", include_caches=True)

    def percentage(self, component: str, attribute: str) -> float:
        """Share of one component in the full design (Table 4 cells)."""
        total = self._sum(attribute, include_caches=True)
        stage = self.stage(component)
        return 100.0 * getattr(stage, attribute) / total if total else 0.0

    def stage(self, component: str) -> StageArea:
        for stage in self.stages:
            if stage.component == component:
                return stage
        raise KeyError(f"unknown component {component!r}")

    def render(self) -> str:
        """ASCII rendition of Table 4."""
        names = [stage.display_name for stage in self.stages]
        header = ("FPGA resources " + "".join(f"{n:>7}" for n in names)
                  + "   Total(excl. caches)")
        rows = [f"Area breakdown on {self.device_name} (percent of full design)",
                header]
        for attribute, label, total in (
            ("slices", "Slices", self.total_slices),
            ("luts", "4-input LUTs", self.total_luts),
        ):
            cells = "".join(
                f"{self.percentage(s.component, attribute):>7.0f}"
                for s in self.stages
            )
            rows.append(f"{label:<15}{cells}   {total}")
        bram_total = self.total_brams
        cells = "".join(
            f"{(100.0 * s.brams / bram_total if bram_total else 0.0):>7.0f}"
            for s in self.stages
        )
        rows.append(f"{'BRAMs':<15}{cells}   {bram_total}")
        return "\n".join(rows)


class AreaEstimator:
    """Maps a processor configuration to per-structure FPGA resources."""

    def __init__(self, config: ProcessorConfig,
                 device_name: str = "xc4vlx40") -> None:
        self._config = config
        self._device_name = device_name

    def estimate(self) -> AreaReport:
        """Produce the full breakdown for the configuration."""
        config = self._config
        stages = []
        for component, luts, brams in (
            self._fetch(), self._dispatch(), self._issue(),
            self._lsq_logic(), self._writeback(), self._commit(),
            self._rename(), self._rob(), self._lsq_storage(),
            self._bpred(), self._dcache(), self._icache(),
        ):
            slices = round(luts * _SLICE_FACTORS[component])
            stages.append(StageArea(component=component, luts=luts,
                                    slices=slices, brams=brams))
        return AreaReport(stages=tuple(stages),
                          device_name=self._device_name)

    # -- per-component formulas ----------------------------------------
    # Each returns (component, luts, brams).  Constants are calibrated
    # to Table 4 at the paper's 4-wide configuration; the parametric
    # terms give the scaling.

    def _fetch(self) -> tuple[str, int, int]:
        """Trace deserializer, three record decoders, PC datapath,
        misfetch comparison, wrong-path control, and the IFQ
        (Table 4: "Fetch ... include[s] the IFQ")."""
        config = self._config
        ifq_bits = config.ifq_entries * RECORD_SLOT_BITS
        luts = (3650                      # deserializer + decoders + control
                + 250 * config.width      # per-slot sequencing/bookkeeping
                + _dist_ram_luts(ifq_bits, ports=2))
        return "fetch", luts, 0

    def _dispatch(self) -> tuple[str, int, int]:
        """Decouple buffer, ROB/LSQ allocation, rename-port sequencing."""
        config = self._config
        decouple_bits = config.width * RECORD_SLOT_BITS
        luts = (700
                + 60 * config.width
                + _dist_ram_luts(decouple_bits, ports=2))
        return "dispatch", luts, 0

    def _issue(self) -> tuple[str, int, int]:
        """Ready-instruction selection and FU scheduling."""
        config = self._config
        units = config.alu_count + config.mul_count + config.div_count
        luts = 700 + 28 * config.rob_entries + 47 * units
        return "issue", luts, 0

    def _lsq_logic(self) -> tuple[str, int, int]:
        """Lsq_refresh: address CAM, dependence checks, forwarding muxes."""
        config = self._config
        luts = 1500 + 270 * config.lsq_entries + 45 * config.width
        return "lsq", luts, 0

    def _writeback(self) -> tuple[str, int, int]:
        """Oldest-completed selection and broadcast bus drivers."""
        luts = 510 + 77 * self._config.width
        return "writeback", luts, 0

    def _commit(self) -> tuple[str, int, int]:
        """In-order retire control, store release, recovery sequencing."""
        luts = 250 + 40 * self._config.width
        return "commit", luts, 0

    def _rename(self) -> tuple[str, int, int]:
        """Rename table: 64-entry dual-ported map + clear logic."""
        tag_bits = max(4, (self._config.rob_entries - 1).bit_length())
        luts = 500 + 64 * (tag_bits + 1)
        return "rename", luts, 0

    def _rob(self) -> tuple[str, int, int]:
        """Reorder buffer: per-entry state RAM, wakeup comparators,
        head/tail management."""
        luts = 150 + 170 * self._config.rob_entries
        return "rob", luts, 0

    def _lsq_storage(self) -> tuple[str, int, int]:
        """LSQ entry storage (addresses, state)."""
        luts = 90 + 91 * self._config.lsq_entries
        return "lsq_store", luts, 0

    def _bpred(self) -> tuple[str, int, int]:
        """Branch predictor: PHT and BTB in BRAM (the only block-RAM
        user in the core, per the paper), BHT/RAS in LUT fabric."""
        predictor = self._config.predictor
        if predictor.is_perfect:
            return "bpred", 60, 0  # oracle pass-through costs control only
        history_bits = predictor.l1_size * predictor.history_length
        ras_bits = predictor.ras_depth * 32
        luts = (290
                + _dist_ram_luts(history_bits)
                + _dist_ram_luts(ras_bits, ports=2)
                + 50)  # BTB/PHT addressing and update sequencing
        pht_brams = max(1, math.ceil(predictor.l2_size * 2 / BRAM_BITS)) * 2
        btb_bits = predictor.btb_entries * 50  # tag + target + valid
        btb_brams = math.ceil(btb_bits / BRAM_BITS) + 1  # +1: separate tags
        return "bpred", luts, pht_brams + btb_brams

    def _cache_tag_luts(self, cache: CacheConfig) -> int:
        """Tag array in distributed RAM plus per-way comparators/LRU."""
        tag_bits = cache.sets * cache.assoc * CACHE_TAG_BITS
        return (350
                + round(tag_bits * 3.5 / 16)   # dual-ported + update path
                + cache.assoc * 24)            # comparators, LRU, way mux

    def _dcache(self) -> tuple[str, int, int]:
        """D-cache tags in distributed RAM (the paper's choice: "used
        distributed RAMs that are more efficient")."""
        if self._config.perfect_memory:
            return "dcache", 0, 0
        return "dcache", self._cache_tag_luts(self._config.dcache), 0

    def _icache(self) -> tuple[str, int, int]:
        """I-cache tags in BRAM (Table 4: I-C holds the remaining 29%
        of block RAMs), leaving only control in the fabric."""
        if self._config.perfect_memory:
            return "icache", 0, 0
        cache = self._config.icache
        luts = 120 + cache.assoc * 10
        tag_bits = cache.sets * cache.assoc * CACHE_TAG_BITS
        brams = max(1, math.ceil(tag_bits / BRAM_BITS)) * 2  # dual-ported
        return "icache", luts, brams
