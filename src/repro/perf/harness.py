"""Shared evaluation harness for benchmarks and examples.

One call runs a synthetic benchmark through trace generation and the
timing engine, then projects throughput onto any number of FPGA
devices.  The benchmark scripts (``benchmarks/``), the table-
reproduction example, and several tests all consume these rows, so the
numbers in every artifact come from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ProcessorConfig
from repro.core.engine import SimulationResult
from repro.fpga.device import FpgaDevice, VIRTEX4_LX40, VIRTEX5_LX50T
from repro.perf.throughput import ThroughputReport
from repro.session.simulation import SPEC_FIELDS, Simulation
from repro.trace.stats import TraceStatistics

#: Default devices: the paper's two implementation targets.
DEFAULT_DEVICES = (VIRTEX4_LX40, VIRTEX5_LX50T)

#: Default per-benchmark instruction budget.  Small enough for quick
#: runs, large enough for the predictor/caches to reach steady state.
DEFAULT_BUDGET: int = SPEC_FIELDS["budget"].default

#: Default workload seed (kept fixed so every table in EXPERIMENTS.md
#: regenerates identically).
DEFAULT_SEED: int = SPEC_FIELDS["seed"].default


@dataclass
class BenchmarkRow:
    """Everything measured for one (benchmark, configuration) pair."""

    benchmark: str
    config: ProcessorConfig
    result: SimulationResult
    trace_stats: TraceStatistics
    reports: dict[str, ThroughputReport] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.result.ipc

    def mips(self, device_name: str) -> float:
        """Table 1 MIPS on one device."""
        return self.reports[device_name].mips

    def mips_with_wrong_path(self, device_name: str) -> float:
        """Table 3 MIPS (total trace demands) on one device."""
        return self.reports[device_name].mips_with_wrong_path

    def bandwidth_mbytes(self, device_name: str) -> float:
        """Table 3 trace bandwidth on one device."""
        return self.reports[device_name].bandwidth_mbytes_per_sec(
            self.trace_stats.bits_per_instruction
        )

    @property
    def bits_per_instruction(self) -> float:
        return self.trace_stats.bits_per_instruction


def evaluate_benchmark(
    benchmark: str,
    config: ProcessorConfig,
    devices: tuple[FpgaDevice, ...] = DEFAULT_DEVICES,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> BenchmarkRow:
    """Generate, simulate, and project one benchmark.

    The workload's predictor configuration and wrong-path block bound
    are taken from ``config`` so trace and engine stay consistent.
    """
    session = (Simulation.for_workload(benchmark, config,
                                       budget=budget, seed=seed)
               .with_devices(*devices)
               .run())
    return BenchmarkRow(
        benchmark=benchmark,
        config=config,
        result=session.result,
        trace_stats=session.trace_stats,
        reports=dict(session.reports),
    )


def evaluate_suite(
    config: ProcessorConfig,
    benchmarks: tuple[str, ...] = ("gzip", "bzip2", "parser",
                                   "vortex", "vpr"),
    devices: tuple[FpgaDevice, ...] = DEFAULT_DEVICES,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> list[BenchmarkRow]:
    """Evaluate the full SPECINT suite on one configuration."""
    return [
        evaluate_benchmark(name, config, devices, budget, seed)
        for name in benchmarks
    ]


def average_mips(rows: list[BenchmarkRow], device_name: str) -> float:
    """Arithmetic mean of Table 1 MIPS over a suite (the paper's
    'Average' row)."""
    if not rows:
        return 0.0
    return sum(row.mips(device_name) for row in rows) / len(rows)
