"""The benchmark's workloads: set-up, one timed round, and the
correctness oracle each round is checked against.

Every workload is sized for a 2-core host: at most two pool or queue
workers.

A *round* is one operation against empty result state (``cold``)
followed by the same operation repeated once the results exist
(``warm``):

* ``simulate-trace`` replays a stored trace; a streamed replay caches
  nothing, so the warm replay (the same ``Simulation`` run again) is
  expected to cost what the cold one does;
* ``sweep-queue`` / ``sweep-regions`` run a sweep into a fresh results
  directory, then rerun it into the same directory, where every point
  resumes from its checkpoint.

The seed picks one of :data:`VARIANTS` generator seeds, so every input
a seed can produce has its statistics digest recorded in
``expected.json`` and each run is checked against it.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec import DirectoryQueueBackend, ProcessPoolBackend
from repro.exec.regions import IPC_ERROR_BOUND
from repro.exec.worker import LeaseHeartbeat
from repro.serialize import canonical_digest, stats_to_dict
from repro.session import Simulation
from repro.session.simulation import CONFIGS
from repro.sweep.runner import SweepRunner, trace_filename
from repro.sweep.spec import SweepSpec
from repro.trace.fileio import read_segment_table, read_trace_file
from repro.workloads.tracegen import write_workload_trace

from clock import Stopwatch

#: Distinct generated inputs; ``--seed n`` selects variant ``n % 8``.
VARIANTS = 8

#: The design grid every sweep workload evaluates (6 points).
GRID = {"rob_entries": [16, 32, 64], "width": [2, 4]}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def stats_digest(document) -> str:
    return canonical_digest(document, length=16)


def sweep_digest(result) -> str:
    return stats_digest({outcome.key: stats_to_dict(outcome.stats)
                         for outcome in result.outcomes})


class Oracle:
    """Counts attempted and failed operations and checks digests
    against ``expected.json`` (``record=True`` fills missing ones)."""

    def __init__(self, workload: str, seed: int, *,
                 record: bool = False) -> None:
        self.workload = workload
        self.variant = str(seed % VARIANTS)
        self.record = record
        self.attempted = 0
        self.failed = 0
        table = json.loads(EXPECTED_PATH.read_text()) \
            if EXPECTED_PATH.exists() else {}
        self.table = table
        self.expected = table.get(workload, {}).get(self.variant)
        self.observed: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"[resimbench] FAILED: {message}", file=sys.stderr)

    def check(self, condition: bool, message: str) -> None:
        """One correctness check; a false one counts as a failure."""
        if not condition:
            self.fail(message)

    def digest(self, digest: str, what: str) -> None:
        if self.observed is None:
            self.observed = digest
        if self.expected is None and self.record:
            self.expected = digest
        self.check(digest == self.expected,
                   f"{what}: statistics digest {digest} != expected "
                   f"{self.expected} (variant {self.variant})")

    def run(self, what: str, operation: Callable[[], object]):
        """Run one operation, counting it; an exception is a failure
        (reported with its traceback) and returns None."""
        self.attempted += 1
        try:
            return operation()
        except Exception:  # noqa: BLE001 - counted, reported, not fatal
            self.fail(f"{what} raised:\n{traceback.format_exc()}")
            return None

    def save(self) -> None:
        """Record this run's digest for its variant (``--record``)."""
        if self.observed is None or self.failed:
            raise SystemExit("refusing to record a digest from a run "
                             "with failures")
        self.table.setdefault(self.workload, {})[self.variant] = \
            self.observed
        ordered = {name: dict(sorted(digests.items(),
                                     key=lambda item: int(item[0])))
                   for name, digests in sorted(self.table.items())}
        EXPECTED_PATH.write_text(json.dumps(ordered, indent=2) + "\n")


@dataclass
class Round:
    """Timings of one round (normalized seconds, see :mod:`clock`)
    and the work it simulated."""

    wall: list[float] = field(default_factory=list)
    cold: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    #: Committed instructions simulated per second, per operation
    #: that simulated (replays, cold sweeps, cold jobs).
    ips: list[float] = field(default_factory=list)


def _result_documents(directory: Path | None) -> list[dict]:
    """The unit result documents in a results directory."""
    if directory is None:
        return []
    documents = []
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        if "unit_id" in document and "stats" in document:
            documents.append(document)
    return documents


class CountingQueueBackend(DirectoryQueueBackend):
    """The directory queue, remembering every local worker it spawned
    so worker deaths can be counted as failed operations."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spawned = []

    def _spawn_worker(self):
        process = super()._spawn_worker()
        self.spawned.append(process)
        return process

    def close_counting_deaths(self) -> int:
        """Stop the workers; return how many had died on their own
        (exited non-zero; an idle worker retires with status 0)."""
        died = sum(1 for process in self.spawned
                   if process.poll() not in (None, 0))
        self.close()
        return died


class Workload:
    """One benchmark workload (see module docstring)."""

    name = "?"
    why = "?"
    #: SPECINT profile the input trace is generated from.
    profile = "gzip"
    #: Registered base configuration name.
    config_name = "4wide-perfect"
    budget = 30_000
    segment_records = 4096
    #: The synthetic-generator seed of each variant.  Picked from
    #: seeds 101-148 so that the variants' traces are near-equal in
    #: size (the records each run replays differ by a few percent),
    #: keeping run-to-run spread a property of the simulator, not of
    #: the input drawn.
    generator_seeds: tuple[int, ...] = tuple(range(101, 101 + VARIANTS))

    def __init__(self, seed: int, work: Path, oracle: Oracle) -> None:
        self.seed = seed
        self.gen_seed = self.generator_seeds[seed % VARIANTS]
        self.work = work
        self.oracle = oracle
        self.clock = Stopwatch()
        self.config = CONFIGS.get(self.config_name)
        self.trace_path: Path | None = None
        self.rounds = 0

    # -- lifecycle -----------------------------------------------------

    def setup(self, directory: Path) -> None:
        """Build the inputs into ``directory`` (timed as ``setup_s``;
        may run several times, the last one is kept)."""
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        """Untimed reference computations the rounds are checked
        against."""

    def round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and server this workload started."""

    # -- what the per-layer probes need ------------------------------

    def backend_kind(self) -> str:
        return "pool"

    def unit_documents(self) -> list[dict]:
        """Result documents of the units the last round executed."""
        return []

    def unit_observers(self) -> tuple:
        """Observers the backend attaches when executing a unit."""
        return ()

    # -- helpers -------------------------------------------------------

    def _round_dir(self) -> Path:
        self.rounds += 1
        directory = self.work / f"round-{self.rounds}"
        directory.mkdir(parents=True)
        return directory

    def _write_trace(self, path: Path, extra: dict | None = None) -> None:
        write_workload_trace(
            self.profile, self.config, path, budget=self.budget,
            seed=self.gen_seed, segment_records=self.segment_records,
            extra=extra)
        self.trace_path = path


class SimulateTrace(Workload):
    name = "simulate-trace"
    why = ("the resim simulate path: one long stored trace replayed by "
           "trace decode, the FileSource cursor and the engine alone")
    budget = 20_000
    generator_seeds = (104, 111, 113, 114, 119, 121, 131, 134)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        from repro.cli import build_parser
        # The tier `resim simulate --trace-file` runs when none is named.
        self.engine = build_parser().parse_args(
            ["simulate", "--trace-file", "-"]).engine
        self.last_spec: dict | None = None
        self.last_stats = None

    def setup(self, directory: Path) -> None:
        self._write_trace(directory / "gzip.rtrc")

    def round(self) -> Round:
        from repro.cli import VIRTEX4_LX40, VIRTEX5_LX50T
        simulation = Simulation.for_trace_file(
            self.trace_path, config=self.config,
        ).with_devices(VIRTEX4_LX40, VIRTEX5_LX50T).with_engine(self.engine)
        result = Round()
        for label in ("cold", "warm"):
            session, seconds = self.clock.time(lambda: self.oracle.run(
                f"{label} replay", simulation.run))
            if session is None:
                continue
            self.oracle.digest(stats_digest(stats_to_dict(session.stats)),
                               f"{label} replay")
            getattr(result, label).append(seconds)
            result.wall.append(seconds)
            result.ips.append(
                int(session.stats.committed_instructions) / seconds)
            self.last_stats = session.stats
        spec = simulation.to_spec()
        spec.setdefault("engine", self.engine)
        self.last_spec = spec
        return result

    def unit_documents(self) -> list[dict]:
        if self.last_stats is None:
            return []
        return [{"spec": self.last_spec,
                 "stats": stats_to_dict(self.last_stats)}]


class _SweepWorkload(Workload):
    """A 6-point sweep over one pre-generated trace; subclasses pick
    the backend and the sampling mode."""

    engine = "specialized"
    sampling = "full"
    resumes_per_round = 10

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.spec = SweepSpec(axes=GRID, base=self.config)
        self.last_dir: Path | None = None
        self.backend = None

    def setup(self, directory: Path) -> None:
        # Named and tagged exactly as SweepRunner.prepare_trace would
        # write it, so the runner adopts it instead of generating.
        self._write_trace(
            directory / trace_filename(self.config.predictor),
            extra={"generator": "sweep"})

    def _backend(self):
        """The execution backend; one serves every round of a run."""
        raise NotImplementedError

    def _runner(self, directory: Path) -> SweepRunner:
        return SweepRunner(
            self.spec, self.profile, results_dir=directory,
            budget=self.budget, seed=self.gen_seed, backend=self.backend,
            engine=self.engine, sampling=self.sampling)

    def _check_cold(self, result) -> None:
        """Workload-specific checks of a cold sweep's outcomes."""

    def _instructions(self, result) -> int:
        """Committed instructions the sweep's results describe."""
        return sum(int(o.stats.committed_instructions)
                   for o in result.outcomes)

    def round(self) -> Round:
        directory = self._round_dir()
        os.link(self.trace_path, directory / self.trace_path.name)
        self.last_dir = directory
        if self.backend is None:
            self.backend = self._backend()
        result = Round()
        sweep, seconds = self.clock.time(lambda: self.oracle.run(
            "cold sweep", self._runner(directory).run))
        if sweep is not None:
            self.oracle.digest(sweep_digest(sweep), "cold sweep")
            self.oracle.check(
                not any(o.from_checkpoint for o in sweep.outcomes),
                "cold sweep resumed a checkpoint")
            self._check_cold(sweep)
            result.cold.append(seconds)
            result.wall.append(seconds)
            result.ips.append(self._instructions(sweep) / seconds)
        # A resume takes milliseconds; one warm sample is the mean over
        # a timed batch, so file-system jitter averages out.
        resumed, seconds = self.clock.time(lambda: [
            self.oracle.run("checkpoint resume",
                            self._runner(directory).run)
            for _ in range(self.resumes_per_round)])
        for sweep in resumed:
            if sweep is None:
                continue
            self.oracle.digest(sweep_digest(sweep), "checkpoint resume")
            self.oracle.check(
                all(o.from_checkpoint for o in sweep.outcomes),
                "resumed sweep recomputed a point")
        result.warm.append(seconds / self.resumes_per_round)
        return result

    def unit_documents(self) -> list[dict]:
        return _result_documents(self.last_dir)


class SweepQueue(_SweepWorkload):
    name = "sweep-queue"
    why = ("exact sweep on the directory queue: per-point decode, the "
           "cache model, lease/claim/complete and checkpoint writes")
    config_name = "2wide-cache"
    budget = 12_000
    # Every seed gives a trace of about `budget` records on this config.

    def backend_kind(self) -> str:
        return "queue"

    def _backend(self):
        # One queue and its two local workers serve every round: the
        # workers stay warm between drains, as the backend intends.
        # Each round reuses the previous round's unit ids, which the
        # queue re-enqueues once it finds no matching result for them.
        return CountingQueueBackend(self.work / "queue", workers=2,
                                    timeout=120)

    def close(self) -> None:
        if self.backend is not None:
            deaths = self.backend.close_counting_deaths()
            self.oracle.check(deaths == 0,
                              f"{deaths} queue worker(s) died")
            self.backend = None

    def unit_observers(self) -> tuple:
        # What a queue worker attaches to every unit it executes.
        return (LeaseHeartbeat(self.work / "lease.json",
                               interval_seconds=15.0),)


class SweepRegions(_SweepWorkload):
    name = "sweep-regions"
    why = ("region-sampled sweep on a process pool: trace profiling, "
           "k-means planning, warmup units and the weighted merge")
    profile = "vpr"
    budget = 24_000
    segment_records = 256
    sampling = "regions"
    # 29.0k-30.7k records, each plan executing 4096 of them.
    generator_seeds = (102, 103, 105, 113, 128, 130, 135, 138)
    #: The plan needs enough segments to choose representatives from.
    min_segments = 64

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.exact_ipc: dict[str, float] = {}
        self.exact_instructions = 0

    def setup(self, directory: Path) -> None:
        super().setup(directory)
        segments = len(read_segment_table(self.trace_path))
        self.oracle.check(
            segments >= self.min_segments,
            f"trace has {segments} segments, fewer than "
            f"{self.min_segments}")

    def prepare_oracle(self) -> None:
        """Exact IPC of every point: full in-memory replays on the
        specialized tier (bit-identical to the reference engine)."""
        header, records = read_trace_file(self.trace_path)
        start_pc = header.metadata.get("start_pc")
        for point in self.spec.expand().points:
            session = Simulation.for_records(
                records, point.config, start_pc=start_pc,
            ).with_engine("specialized").run()
            self.exact_ipc[point.key] = session.stats.ipc
            self.exact_instructions += int(
                session.stats.committed_instructions)

    def _backend(self):
        return ProcessPoolBackend(2)

    def _check_cold(self, result) -> None:
        worst = max(abs(o.ipc - self.exact_ipc[o.key])
                    / self.exact_ipc[o.key] for o in result.outcomes)
        self.oracle.check(
            worst <= IPC_ERROR_BOUND,
            f"sampled IPC error {worst:.3f} exceeds {IPC_ERROR_BOUND}")

    def _instructions(self, result) -> int:
        # The full trace's instructions, not the (seed-dependent)
        # extrapolated estimate: the rate at which the sampled sweep
        # covers the workload.
        return self.exact_instructions

    def unit_documents(self) -> list[dict]:
        return [document for document in super().unit_documents()
                if "region" in document]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SimulateTrace, SweepQueue, SweepRegions)
}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")
