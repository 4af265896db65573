"""Streaming co-simulation driver.

The functional simulator produces tagged records chunk by chunk; the
engine consumes them as they arrive through an
:class:`~repro.trace.source.InMemorySource` over a growing list —
fetch simply starves until the next chunk lands, exactly like the
hardware waiting on its input FIFO.  At the end the driver verifies
the streamed run produced *identical timing* to an offline run over
the full trace: chunked delivery must be performance-transparent to
the simulated machine, because trace content, not arrival batching,
defines timing.

The wall-clock model is a three-stage pipeline:

* **produce** — the functional simulator's host rate (measured);
* **transfer** — trace bits over the CPU→FPGA link (modelled);
* **simulate** — the FPGA engine at f_minor / L x trace records
  (modelled from the engine's own cycle counts).

Steady-state co-simulation throughput is the minimum of the three
stage rates; the result names the bottleneck (the paper's Table 3
discussion is exactly the transfer-stage analysis).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import ProcessorConfig
from repro.core.minorpipe import select_pipeline
from repro.fpga.device import FpgaDevice
from repro.isa.program import Program
from repro.session import Simulation
from repro.trace.source import InMemorySource


@dataclass(frozen=True)
class StageRates:
    """Records-per-second capacity of each co-simulation stage."""

    produce: float
    transfer: float
    simulate: float

    @property
    def bottleneck(self) -> str:
        slowest = min(("produce", self.produce),
                      ("transfer", self.transfer),
                      ("simulate", self.simulate),
                      key=lambda pair: pair[1])
        return slowest[0]

    @property
    def pipeline_rate(self) -> float:
        """Steady-state records/second through the whole pipeline."""
        return min(self.produce, self.transfer, self.simulate)


@dataclass
class CosimResult:
    """Outcome of one streamed run."""

    records: int
    chunks: int
    major_cycles: int
    offline_major_cycles: int
    rates: StageRates
    bits_per_instruction: float

    @property
    def timing_transparent(self) -> bool:
        """Streaming must not change simulated timing."""
        return self.major_cycles == self.offline_major_cycles

    def summary(self) -> str:
        return (
            f"{self.records} records in {self.chunks} chunks -> "
            f"{self.major_cycles} simulated cycles "
            f"(offline: {self.offline_major_cycles}); "
            f"bottleneck: {self.rates.bottleneck} at "
            f"{self.rates.pipeline_rate / 1e6:.2f} M records/s"
        )


class OnTheFlyCosimulation:
    """Functional simulator → link → ReSim engine, streamed."""

    def __init__(
        self,
        config: ProcessorConfig,
        device: FpgaDevice,
        link_gbps: float = 6.4,
        chunk_records: int = 256,
    ) -> None:
        if link_gbps <= 0:
            raise ValueError("link bandwidth must be positive")
        if chunk_records <= 0:
            raise ValueError("chunk size must be positive")
        self._config = config
        self._device = device
        self._link_gbps = link_gbps
        self._chunk_records = chunk_records

    def run(self, program: Program,
            inputs: list[int] | None = None) -> CosimResult:
        """Co-simulate one assembled program end to end."""
        simulation = Simulation.for_program(program, self._config,
                                            inputs=inputs)
        produce_start = time.perf_counter()
        prepared = simulation.prepare()
        produce_seconds = max(time.perf_counter() - produce_start, 1e-9)
        records = list(prepared.open_source())

        # Streamed engine: an InMemorySource over a list that grows
        # chunk by chunk while the engine steps (the source reads its
        # length live, so appended chunks become visible).  The link
        # is flow-controlled: a new chunk is delivered whenever the
        # input FIFO's lookahead drops below one chunk, so fetch never
        # starves and the streamed run is cycle-identical to the
        # offline one (asserted via ``timing_transparent``).
        stream: list = []
        engine = simulation.build_engine(trace=InMemorySource(stream))
        chunks = 0
        position = 0
        while True:
            while (position < len(records)
                   and len(stream) - engine.cursor_position
                   < self._chunk_records):
                stream.extend(
                    records[position:position + self._chunk_records]
                )
                position += self._chunk_records
                chunks += 1
            if engine.done and position >= len(records):
                break
            engine.step()

        offline = simulation.run().result

        stats = prepared.trace_stats
        pipeline = select_pipeline(self._config.width,
                                   self._config.memory_ports)
        simulate_rate = (
            self._device.minor_cycle_mhz * 1e6
            / pipeline.minor_cycles_per_major
            * (len(records) / max(1, engine.cycle))
        )
        transfer_rate = (
            self._link_gbps * 1e9 / max(1.0, stats.bits_per_instruction)
        )
        produce_rate = len(records) / produce_seconds

        return CosimResult(
            records=len(records),
            chunks=chunks,
            major_cycles=engine.cycle,
            offline_major_cycles=offline.major_cycles,
            rates=StageRates(produce=produce_rate,
                             transfer=transfer_rate,
                             simulate=simulate_rate),
            bits_per_instruction=stats.bits_per_instruction,
        )

