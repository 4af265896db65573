"""Sweep result aggregation: sorting, filtering, tables, export.

A :class:`SweepResult` holds one :class:`SweepOutcome` per design
point.  Outcomes wrap the full :class:`SimulationStatistics` (the same
object the serial engine path produces), so anything derivable serially
— IPC, misprediction rate, FPGA-projected MIPS via
:class:`~repro.perf.throughput.ThroughputModel` — is derivable from a
checkpointed sweep as well.

Interop with the paper-table machinery:

* :meth:`SweepResult.comparison_entries` turns design points into
  :class:`~repro.perf.comparison.SimulatorEntry` rows, so a sweep can
  be rendered next to the published Table 2 simulators with
  :func:`repro.perf.comparison.render_table`;
* :func:`repro.perf.tables.sweep_table` renders a sweep the way the
  other paper tables are rendered.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Sequence

from repro.core.config import ProcessorConfig
from repro.core.engine import SimulationResult
from repro.core.stats import SimulationStatistics
from repro.fpga.device import FpgaDevice
from repro.perf.comparison import SimulatorEntry
from repro.perf.throughput import ThroughputModel
from repro.serialize import config_to_dict, stats_to_dict
from repro.sweep.spec import format_params, value_label
from repro.utils.atomic import atomic_path


@dataclass(frozen=True)
class SweepOutcome:
    """Everything measured for one design point of a sweep."""

    key: str
    params: tuple[tuple[str, object], ...]
    config: ProcessorConfig
    stats: SimulationStatistics
    from_checkpoint: bool = False

    @property
    def result(self) -> SimulationResult:
        """The outcome as the engine's own result type."""
        return SimulationResult(config=self.config, stats=self.stats)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def major_cycles(self) -> int:
        return int(self.stats.major_cycles)

    @property
    def misprediction_rate(self) -> float:
        return self.stats.misprediction_rate

    def mips(self, device: FpgaDevice) -> float:
        """FPGA-projected simulation speed on one device."""
        return ThroughputModel(device).report(self.result).mips

    def param(self, name: str) -> object:
        """Value of one swept axis for this point."""
        for axis, value in self.params:
            if axis == name:
                return value
        raise KeyError(f"axis {name!r} was not swept")

    @property
    def label(self) -> str:
        """Compact swept coordinates (same form as
        :attr:`SweepPoint.label`)."""
        return format_params(self.params)


#: Sort keys accepted by name (CLI-friendly): metric plus whether
#: *larger* values are better (controls the best-first direction).
#: Callables work too and are treated as larger-is-better.
SORT_KEYS: dict[str, tuple[Callable[[SweepOutcome], float], bool]] = {
    "ipc": (lambda o: o.ipc, True),
    "cycles": (lambda o: o.major_cycles, False),
    "mispredictions": (lambda o: o.misprediction_rate, False),
}


def sort_key(name: str, error: type[BaseException] = KeyError
             ) -> tuple[Callable[[SweepOutcome], float], bool]:
    """The (score function, larger-is-better) pair of a named sort key
    or search metric; an unknown name raises ``error``."""
    try:
        return SORT_KEYS[name]
    except KeyError:
        raise error(f"unknown sort key {name!r}; choose from "
                    f"{', '.join(SORT_KEYS)}") from None


@dataclass(frozen=True)
class SweepResult:
    """All outcomes of one sweep plus its provenance."""

    outcomes: tuple[SweepOutcome, ...]
    workload: str
    budget: int
    seed: int
    trace_bits_per_instruction: float = 0.0
    skipped_invalid: int = 0
    skipped_duplicates: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def resumed_count(self) -> int:
        """Design points satisfied from checkpoints, not simulation."""
        return sum(1 for o in self.outcomes if o.from_checkpoint)

    # -- selection -----------------------------------------------------

    def sorted_by(self, key: str | Callable[[SweepOutcome], float] = "ipc",
                  reverse: bool | None = None) -> SweepResult:
        """Outcomes reordered best-first by a named or callable key.

        Named keys know their own direction (higher IPC is better,
        fewer cycles/mispredictions are better); ``reverse``
        overrides it.  Callable keys default to larger-is-better.
        """
        if isinstance(key, str):
            key, larger_is_better = sort_key(key)
        else:
            larger_is_better = True
        if reverse is None:
            reverse = larger_is_better
        ordered = tuple(sorted(self.outcomes, key=key, reverse=reverse))
        return self._with_outcomes(ordered)

    def filter(self, predicate: Callable[[SweepOutcome], bool] | None = None,
               **params: object) -> SweepResult:
        """Keep outcomes matching a predicate and/or axis values.

        >>> result.filter(rob_entries=32)        # doctest: +SKIP
        >>> result.filter(lambda o: o.ipc > 1.5)  # doctest: +SKIP
        """
        def matches(outcome: SweepOutcome) -> bool:
            if predicate is not None and not predicate(outcome):
                return False
            return all(outcome.param(name) == value
                       for name, value in params.items())
        kept = tuple(o for o in self.outcomes if matches(o))
        return self._with_outcomes(kept)

    def top(self, count: int,
            key: str | Callable[[SweepOutcome], float] = "ipc"
            ) -> SweepResult:
        """The best ``count`` outcomes under a sort key."""
        ordered = self.sorted_by(key)
        return ordered._with_outcomes(ordered.outcomes[:count])

    def best(self, key: str | Callable[[SweepOutcome], float] = "ipc"
             ) -> SweepOutcome:
        """The single best outcome under a sort key."""
        if not self.outcomes:
            raise ValueError("empty sweep result")
        return self.sorted_by(key).outcomes[0]

    def _with_outcomes(self, outcomes: tuple[SweepOutcome, ...]
                       ) -> SweepResult:
        return SweepResult(
            outcomes=outcomes, workload=self.workload, budget=self.budget,
            seed=self.seed,
            trace_bits_per_instruction=self.trace_bits_per_instruction,
            skipped_invalid=self.skipped_invalid,
            skipped_duplicates=self.skipped_duplicates,
            metadata=self.metadata,
        )

    # -- rendering -----------------------------------------------------

    def table(self, devices: Sequence[FpgaDevice] = ()) -> str:
        """ASCII table: swept coordinates plus headline metrics."""
        axes = [name for name, _ in self.outcomes[0].params] \
            if self.outcomes else []
        headers = (axes + ["IPC", "cycles", "mispred"]
                   + [f"{device.name} MIPS" for device in devices])
        rows = []
        for outcome in self.outcomes:
            row = [value_label(value) for _, value in outcome.params]
            row += [f"{outcome.ipc:.3f}", str(outcome.major_cycles),
                    f"{outcome.misprediction_rate:.4f}"]
            row += [f"{outcome.mips(device):.2f}" for device in devices]
            rows.append(row)
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = [" ".join(h.rjust(widths[i])
                          for i, h in enumerate(headers)),
                 "-" * (sum(widths) + len(widths) - 1)]
        for row in rows:
            lines.append(" ".join(cell.rjust(widths[i])
                                  for i, cell in enumerate(row)))
        return "\n".join(lines)

    def comparison_entries(self, device: FpgaDevice
                           ) -> list[SimulatorEntry]:
        """Design points as Table 2 rows (for
        :func:`repro.perf.comparison.render_table`)."""
        return [
            SimulatorEntry(
                name=f"ReSim [{outcome.label}]",
                isa="PISA (trace-driven)",
                mips=outcome.mips(device),
                category="resim",
                source=f"swept on {self.workload}, "
                       f"budget {self.budget}, seed {self.seed}",
            )
            for outcome in self.outcomes
        ]

    # -- export --------------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Full-fidelity JSON export (config + statistics per point);
        a ``path`` is written atomically."""
        document = {
            "workload": self.workload,
            "budget": self.budget,
            "seed": self.seed,
            "trace_bits_per_instruction": self.trace_bits_per_instruction,
            "skipped_invalid": self.skipped_invalid,
            "skipped_duplicates": self.skipped_duplicates,
            "outcomes": [
                {
                    "key": outcome.key,
                    "params": {name: _jsonable(value)
                               for name, value in outcome.params},
                    "config": config_to_dict(outcome.config),
                    "stats": stats_to_dict(outcome.stats),
                    "ipc": outcome.ipc,
                    "from_checkpoint": outcome.from_checkpoint,
                }
                for outcome in self.outcomes
            ],
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        if path is not None:
            with atomic_path(path) as tmp:
                tmp.write_text(text)
        return text

    def to_csv(self, path: str | Path,
               devices: Sequence[FpgaDevice] = ()) -> None:
        """Spreadsheet-friendly export: one row per design point,
        written atomically (a failure keeps the previous file)."""
        axes = [name for name, _ in self.outcomes[0].params] \
            if self.outcomes else []
        with atomic_path(path) as tmp, open(tmp, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["key"] + axes
                + ["ipc", "major_cycles", "committed_instructions",
                   "misprediction_rate"]
                + [f"mips_{device.name}" for device in devices])
            for outcome in self.outcomes:
                writer.writerow(
                    [outcome.key]
                    + [value_label(value) for _, value in outcome.params]
                    + [f"{outcome.ipc:.6f}", outcome.major_cycles,
                       int(outcome.stats.committed_instructions),
                       f"{outcome.misprediction_rate:.6f}"]
                    + [f"{outcome.mips(device):.4f}"
                       for device in devices])


def _jsonable(value: object) -> object:
    from dataclasses import asdict, is_dataclass
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    return value
