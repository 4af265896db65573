"""The ReSim trace-driven timing engine.

One :class:`ReSimEngine` consumes a tagged B/M/O trace and advances the
simulated out-of-order processor one **major cycle** at a time.  The
stage semantics follow Section III of the paper:

* **Fetch** — consumes trace records into the IFQ until a control-flow
  bubble (taken branch, misprediction, misfetch) or the IFQ fills;
  accesses the I-cache once per line; resolves branch targets against
  the BTB/RAS and directions against the direction predictor; detects
  *misfetches* (predicted taken, wrong target → penalty, continue) and
  enters wrong-path fetch on mispredictions.
* **Dispatch** — moves instructions from the decouple buffer into the
  Reorder Buffer (and LSQ for memory ops) and renames their registers.
* **Issue** — schedules ready instructions onto functional units
  (4xALU/1xMUL/1xDIV by default); loads need the `Lsq_refresh` verdict
  and a memory read port unless their value was forwarded in the LSQ.
* **Writeback** — selects the oldest completed instructions and
  broadcasts, waking dependents (which may issue in the same major
  cycle, exactly the dependence chain that shapes the minor-cycle
  pipeline in Figures 2-4).
* **Commit** — retires in order; releases stores to memory when a
  write port is available; updates the branch predictor; triggers
  mis-speculation recovery when the mispredicted branch retires
  (tagged records not yet fetched are discarded, per Section V.A).
* **Lsq_refresh** — once per major cycle, resolves memory dependences
  and marks loads ready / forwarded.

Within one major cycle the stages run in reverse pipeline order
(Commit, Writeback, Lsq_refresh, Issue, Dispatch, Fetch) so that every
inter-stage effect takes one simulated cycle, except the intended
same-cycle paths: wakeup→issue (the paper's pipelined-control trick)
and commit→dispatch reuse of reorder-buffer slots.  An instruction
that completes in cycle T may commit no earlier than T+1 — the paper's
same-major-cycle flag (:meth:`~repro.core.inflight.InFlightOp.committable`).

Wrong-path handling is **trace-authoritative**: the presence of a
tagged block after a branch record *is* the misprediction signal
(the generator injected it with the same predictor configuration).
The engine still runs its own predictor for misfetch detection and
statistics; by default it trains it at Commit as the paper specifies,
which can diverge from the generator's program-order training when
several branches are in flight — counted in
``stats.prediction_divergence`` (and exactly zero when
``update_predictor_at_commit=False``, the property the test suite
checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.bpred.unit import BranchPredictorUnit, BranchResolution
from repro.cache.hierarchy import MemorySystem, PerfectMemory
from repro.core.config import ProcessorConfig
from repro.core.fu import FunctionalUnitPool
from repro.core.inflight import InFlightOp, OpState
from repro.core.rename import RenameTable
from repro.core.stats import SimulationStatistics
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import TEXT_BASE
from repro.trace.record import BranchRecord, TraceRecord
from repro.trace.source import TraceSource, as_source
from repro.utils.queues import CircularQueue


class EngineObserver:
    """Instrumentation hooks into one engine run.

    Subclass and override any subset; un-overridden hooks are never
    dispatched (the engine collects only overridden methods at attach
    time, and the hot loop pays a single falsy check per cycle when no
    observers are registered — benchmarked in
    ``benchmarks/bench_engine.py``).

    Hooks fire *after* the event they describe:

    * :meth:`on_cycle` — once per major cycle, after all six stages;
    * :meth:`on_commit` — once per architecturally committed
      instruction (wrong-path ops never commit, so never appear);
    * :meth:`on_recovery` — once per mis-speculation recovery, with
      the faulting branch, after the pipeline is flushed and fetch is
      redirected.

    Observers may read any public engine state (``engine.cycle``,
    ``engine.stats``...) but must not mutate it.
    """

    def on_cycle(self, engine: ReSimEngine) -> None:
        """Called after every major cycle."""

    def on_commit(self, engine: ReSimEngine, op: InFlightOp) -> None:
        """Called for every committed instruction."""

    def on_recovery(self, engine: ReSimEngine,
                    branch: InFlightOp) -> None:
        """Called when a mispredicted branch retires and recovers."""


_HOOKS = ("on_cycle", "on_commit", "on_recovery")


def overrides_hook(observer: EngineObserver,
                   name: str | None = None) -> bool:
    """Does ``observer``'s class override hook ``name`` (any hook when
    ``name`` is None)?  Un-overridden hooks are never dispatched."""
    names = _HOOKS if name is None else (name,)
    return any(getattr(type(observer), hook)
               is not getattr(EngineObserver, hook) for hook in names)


class WarmupWindowError(ValueError):
    """The trace drained before (or exactly when) the warmup window
    closed, leaving nothing to measure.  Raised identically by both
    engine tiers instead of returning all-zero statistics."""

    def __init__(self, warmup_instructions: int, committed: int) -> None:
        super().__init__(
            f"the trace drained within the {warmup_instructions}-"
            f"instruction warmup window ({committed} instructions "
            f"committed); nothing is left to measure")


def check_window(warmup_instructions: int,
                 roi_instructions: int | None) -> None:
    """Validate the instrumentation-window arguments of ``run()``."""
    if warmup_instructions < 0:
        raise ValueError("warmup_instructions must be >= 0")
    if roi_instructions is not None and roi_instructions <= 0:
        raise ValueError("roi_instructions must be positive")


@dataclass
class SimulationResult:
    """Outcome of one engine run (counts only; throughput and wall
    clock are derived by :mod:`repro.perf` from the minor-cycle
    pipeline and FPGA device models)."""

    config: ProcessorConfig
    stats: SimulationStatistics

    @property
    def major_cycles(self) -> int:
        return int(self.stats.major_cycles)

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class ReSimEngine:
    """Simulates the timing of one trace on one processor configuration.

    Parameters
    ----------
    config:
        The simulated processor.
    trace:
        Tagged record stream: either a
        :class:`~repro.trace.source.TraceSource` (streamed file,
        segment range, growing in-memory FIFO) or a plain
        record sequence, which is wrapped in an
        :class:`~repro.trace.source.InMemorySource`.  Both paths run
        the same fetch code and produce bit-identical statistics; the
        predictor configuration used at generation must match
        ``config.predictor``.
    start_pc:
        PC of the first record (``None`` means the text base) — used
        for I-cache indexing and predictor lookups.
    update_predictor_at_commit:
        True (paper behaviour): train the predictor when branches
        retire.  False: train at fetch, which makes the engine's
        predictor agree with the generator's bit-for-bit.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Sequence[TraceRecord] | TraceSource,
        start_pc: int | None = None,
        update_predictor_at_commit: bool = True,
    ) -> None:
        self._config = config
        self._source = as_source(trace)
        self._cycle = 0
        self._seq = 0
        self._update_at_commit = update_predictor_at_commit

        self._ifq: CircularQueue[InFlightOp] = CircularQueue(config.ifq_entries)
        self._decouple: CircularQueue[InFlightOp] = CircularQueue(config.width)
        self._rob: CircularQueue[InFlightOp] = CircularQueue(config.rob_entries)
        self._lsq: CircularQueue[InFlightOp] = CircularQueue(config.lsq_entries)
        self._rename = RenameTable()
        self._fus = FunctionalUnitPool(config)
        self._bpred = BranchPredictorUnit(config.predictor)
        self._memory = (PerfectMemory() if config.perfect_memory
                        else MemorySystem(config.icache, config.dcache,
                                          config.memory_latency))

        #: producer seq → consumers waiting on it
        self._consumers: dict[int, list[InFlightOp]] = {}

        # Fetch state.
        self._fetch_pc = TEXT_BASE if start_pc is None else start_pc
        self._fetch_stall = 0
        self._speculative = False          # consuming a tagged block
        self._spec_pc = 0                  # wrong-path fetch PC
        self._spec_branch_seq = -1         # branch awaiting resolution
        self._last_fetch_line = -1         # fetch line buffer

        # Instrumentation: hook tuples stay empty () unless an
        # observer overriding the respective method is attached, so
        # the guarded dispatch below is one falsy check.
        self._observers: list[EngineObserver] = []
        self._cycle_hooks: tuple = ()
        self._commit_hooks: tuple = ()
        self._recovery_hooks: tuple = ()

        self.stats = SimulationStatistics()

        # A source that opens mid-stream — a segment-range shard of a
        # larger trace (``FileSource(path, segments=(lo, hi))``) — may
        # begin inside a wrong-path block whose faulting branch lives
        # in the previous shard.  Fetch asserts tagged records appear
        # only during speculative fetch, so drain the block's tail
        # here exactly as recovery would have: counted as discarded
        # wrong-path records and consumed trace records, with the
        # misprediction itself left to whichever run fetched the
        # branch.  Traces always start on the correct path, so this is
        # a no-op for every non-shard source (including a still-empty
        # streaming co-simulation FIFO).
        self._drain_wrong_path()

    def _drain_wrong_path(self) -> None:
        """Discard the tagged block at the cursor, counting each
        record as discarded and consumed — shared by mis-speculation
        recovery and the cold mid-stream start above, which must keep
        identical bookkeeping for shard sums to stay exact."""
        while self._source.peek_is_tagged():
            self._source.next()
            self.stats.discarded_wrong_path.increment()
            self.stats.trace_records_consumed.increment()

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    @property
    def config(self) -> ProcessorConfig:
        return self._config

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def predictor(self) -> BranchPredictorUnit:
        return self._bpred

    @property
    def memory(self) -> PerfectMemory | MemorySystem:
        return self._memory

    @property
    def source(self) -> TraceSource:
        """The trace cursor feeding fetch."""
        return self._source

    @property
    def cursor_position(self) -> int:
        """Trace records consumed so far (streaming drivers use this
        to keep the input FIFO's lookahead topped up)."""
        return self._source.consumed

    @property
    def total_records(self) -> int:
        """The source's current stream-length estimate (exact for
        files; the live length for growing in-memory streams)."""
        return self._source.total_records

    @property
    def done(self) -> bool:
        """All records consumed and the pipeline drained."""
        return (self._source.exhausted
                and self._rob.is_empty
                and self._ifq.is_empty
                and self._decouple.is_empty)

    @property
    def observers(self) -> tuple[EngineObserver, ...]:
        return tuple(self._observers)

    def add_observer(self, observer: EngineObserver) -> None:
        """Attach instrumentation hooks to this engine.

        Only the methods ``observer``'s class actually overrides are
        dispatched; attaching an observer that overrides nothing costs
        nothing.
        """
        self._observers.append(observer)
        self._rebuild_hooks()

    def remove_observer(self, observer: EngineObserver) -> None:
        self._observers.remove(observer)
        self._rebuild_hooks()

    def _rebuild_hooks(self) -> None:
        def hooks(name: str) -> tuple:
            return tuple(getattr(obs, name) for obs in self._observers
                         if overrides_hook(obs, name))

        self._cycle_hooks = hooks("on_cycle")
        self._commit_hooks = hooks("on_commit")
        self._recovery_hooks = hooks("on_recovery")

    def run(
        self,
        max_cycles: int | None = None,
        *,
        warmup_instructions: int = 0,
        roi_instructions: int | None = None,
        stop_when=None,
    ) -> SimulationResult:
        """Simulate until the trace is drained (or the ROI ends).

        ``max_cycles`` guards against pathological configurations; the
        default allows a very conservative 64 cycles per record.

        Instrumentation-window controls (all default to off, leaving
        the classic run-to-drain behaviour bit-identical):

        ``warmup_instructions``
            Fast-forward: simulate until this many instructions have
            committed, then reset the statistics while keeping all
            microarchitectural state (predictor, caches, in-flight
            window) warm.  The returned statistics cover only the
            post-warmup region; a trace that drains within the window
            raises :class:`WarmupWindowError`.
        ``roi_instructions``
            Region of interest: stop once this many instructions have
            committed *after* warmup, even if trace records remain.
        ``stop_when``
            Early-stop predicate, called with the engine after each
            cycle; simulation stops when it returns true.
        """
        if max_cycles is None:
            max_cycles = 64 * max(1, self._source.total_records) + 10_000
        check_window(warmup_instructions, roi_instructions)

        if warmup_instructions:
            while (not self.done
                   and int(self.stats.committed_instructions)
                   < warmup_instructions):
                self._check_cycle_budget(max_cycles)
                self.step()
            if self.done:
                raise WarmupWindowError(
                    warmup_instructions,
                    int(self.stats.committed_instructions))
            self.stats = SimulationStatistics()

        if roi_instructions is None and stop_when is None:
            # The hot path: identical to the pre-instrumentation loop.
            while not self.done:
                self._check_cycle_budget(max_cycles)
                self.step()
        else:
            while not self.done:
                self._check_cycle_budget(max_cycles)
                self.step()
                if (roi_instructions is not None
                        and int(self.stats.committed_instructions)
                        >= roi_instructions):
                    break
                if stop_when is not None and stop_when(self):
                    break
        return SimulationResult(config=self._config, stats=self.stats)

    def _check_cycle_budget(self, max_cycles: int) -> None:
        if self._cycle >= max_cycles:
            raise RuntimeError(
                f"simulation exceeded {max_cycles} cycles "
                f"({self._source.consumed}/{self._source.total_records} "
                f"records consumed)"
            )

    def step(self) -> None:
        """Advance exactly one major cycle."""
        self._cycle += 1
        self.stats.major_cycles.increment()
        self._fus.begin_cycle()

        self._commit()
        self._writeback()
        self._lsq_refresh()
        self._issue()
        self._dispatch()
        self._fetch()

        self.stats.ifq_occupancy.sample(len(self._ifq))
        self.stats.rob_occupancy.sample(len(self._rob))
        self.stats.lsq_occupancy.sample(len(self._lsq))

        if self._cycle_hooks:
            for hook in self._cycle_hooks:
                hook(self)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        committed = 0
        write_ports_used = 0
        while committed < self._config.width and not self._rob.is_empty:
            op = self._rob.peek()
            assert not op.is_wrong_path, (
                "wrong-path op reached the commit point; recovery must "
                "remove tagged entries when the faulting branch retires"
            )
            if not op.committable(self._cycle):
                break

            if op.is_store:
                if write_ports_used >= self._config.mem_write_ports:
                    break  # no memory write port: stall commit
                write_ports_used += 1
                result = self._memory.dwrite(op.address)
                self.stats.dcache_accesses.increment()
                if not result.hit:
                    self.stats.dcache_misses.increment()

            self._rob.pop()
            if op.is_mem:
                head = self._lsq.pop()
                assert head is op, "LSQ and ROB disagree on memory order"
            op.state = OpState.COMMITTED
            op.committed_cycle = self._cycle
            self._rename.retire(op)
            self._consumers.pop(op.seq, None)

            self.stats.committed_instructions.increment()
            if op.is_load:
                self.stats.committed_loads.increment()
            elif op.is_store:
                self.stats.committed_stores.increment()
            elif op.is_branch:
                self._commit_branch(op)
                committed += 1
                if self._commit_hooks:
                    for hook in self._commit_hooks:
                        hook(self, op)
                if op.seq == self._spec_branch_seq:
                    self._recover_from_misprediction(op)
                    return  # pipeline flushed; stop committing
                continue
            if self._commit_hooks:
                for hook in self._commit_hooks:
                    hook(self, op)
            committed += 1

    def _commit_branch(self, op: InFlightOp) -> None:
        record = op.record
        assert isinstance(record, BranchRecord)
        self.stats.committed_branches.increment()
        if record.taken:
            self.stats.taken_branches.increment()
        resolution = op.branch_resolution
        assert resolution is None or isinstance(resolution, BranchResolution)
        if self._update_at_commit:
            self._bpred.update(
                op.pc, record.branch_kind, record.taken, record.target,
                resolution,
            )

    def _recover_from_misprediction(self, branch: InFlightOp) -> None:
        """Flush the wrong path once the faulting branch retires.

        Everything younger in flight is tagged wrong-path (the trace
        generator places the block immediately after the branch, and
        correct-path fetch resumes only now).  Tagged records not yet
        fetched are discarded, per the paper.
        """
        squashed = self._rob.remove_from_tail(len(self._rob))
        for op in squashed:
            assert op.is_wrong_path, "correct-path op squashed in recovery"
            op.state = OpState.SQUASHED
            self._consumers.pop(op.seq, None)
        self._lsq.clear()
        self._ifq.clear()
        self._decouple.clear()
        self._rename.squash_wrong_path()

        # Discard the rest of the tagged block.
        self._drain_wrong_path()

        # Redirect fetch to the correct path.
        record = branch.record
        assert isinstance(record, BranchRecord)
        self._fetch_pc = (record.target if record.taken
                          else branch.pc + INSTRUCTION_BYTES)
        self._speculative = False
        self._spec_branch_seq = -1
        self._fetch_stall += self._config.misspeculation_penalty
        self.stats.recovery_stall_cycles.increment(
            self._config.misspeculation_penalty
        )
        self.stats.mispredictions.increment()
        if self._recovery_hooks:
            for hook in self._recovery_hooks:
                hook(self, branch)

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------

    def _writeback(self) -> None:
        remaining = self._config.width
        for op in self._rob:
            if remaining == 0:
                break
            if (op.state is OpState.ISSUED
                    and op.execution_done_cycle <= self._cycle):
                op.state = OpState.COMPLETED
                op.completed_cycle = self._cycle
                remaining -= 1
                for consumer in self._consumers.pop(op.seq, ()):
                    if consumer.state is not OpState.SQUASHED:
                        consumer.waiting_on.discard(op.seq)

    # ------------------------------------------------------------------
    # Lsq_refresh (once per major cycle, before Issue)
    # ------------------------------------------------------------------

    def _lsq_refresh(self) -> None:
        """Resolve memory dependences: mark loads ready or forwarded.

        Conservative (non-speculative) disambiguation, as in
        sim-outorder: a load waits while any older store's address is
        unresolved; an address-matching older store must have its data
        before the load can be satisfied — by forwarding, without a
        memory access.
        """
        older_stores: list[InFlightOp] = []
        for op in self._lsq:
            if op.is_store:
                older_stores.append(op)
                continue
            # Load.
            if op.state is not OpState.DISPATCHED or op.memory_ready:
                continue
            if not op.operands_ready:
                continue  # address not computable yet
            op.address_ready = True
            # Scan older stores youngest-first: the first unresolved
            # address blocks disambiguation; the first resolved match
            # is the forwarding candidate.
            verdict = "memory"
            for store in reversed(older_stores):
                resolved = store.state in (OpState.ISSUED, OpState.COMPLETED)
                if not resolved:
                    verdict = "blocked"
                    break
                if (store.address >> 2) == (op.address >> 2):
                    verdict = ("forward"
                               if store.state is OpState.COMPLETED
                               else "blocked")
                    break
            if verdict == "memory":
                op.memory_ready = True
            elif verdict == "forward":
                op.memory_ready = True
                op.forwarded = True

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def _issue(self) -> None:
        remaining = self._config.width
        read_ports_used = 0
        for op in self._rob:
            if remaining == 0:
                break
            if op.state is not OpState.DISPATCHED:
                continue
            if not op.operands_ready:
                continue

            if op.is_load:
                if not op.memory_ready:
                    continue
                if op.forwarded:
                    # Value satisfied in the LSQ: no read port, no cache.
                    latency = 1
                    self.stats.load_forwards.increment()
                else:
                    if read_ports_used >= self._config.mem_read_ports:
                        continue
                    read_ports_used += 1
                    result = self._memory.dread(op.address)
                    self.stats.dcache_accesses.increment()
                    if not result.hit:
                        self.stats.dcache_misses.increment()
                    latency = result.latency
            else:
                if not self._fus.can_issue(op.fu, self._cycle):
                    continue
                latency = self._fus.issue(op.fu, self._cycle)

            op.state = OpState.ISSUED
            op.issued_cycle = self._cycle
            op.execution_done_cycle = self._cycle + latency
            remaining -= 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        dispatched = 0
        while dispatched < self._config.width and not self._decouple.is_empty:
            op = self._decouple.peek(0)
            if self._rob.is_full:
                break
            if op.is_mem and self._lsq.is_full:
                break
            self._decouple.pop()
            self._rob.push(op)
            if op.is_mem:
                self._lsq.push(op)

            for register in op.record.src_registers():
                producer = self._rename.pending_dependency(register)
                if producer is not None:
                    op.waiting_on.add(producer.seq)
                    self._consumers.setdefault(producer.seq, []).append(op)
            for register in op.record.dest_registers():
                self._rename.define(register, op)

            op.state = OpState.DISPATCHED
            op.dispatched_cycle = self._cycle
            dispatched += 1

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def _fetch(self) -> None:
        # Hand the oldest IFQ entries to Dispatch through the decouple
        # buffer (their overlap is what the buffer decouples).
        moved = 0
        while (moved < self._config.width
               and not self._decouple.is_full
               and not self._ifq.is_empty):
            self._decouple.push(self._ifq.pop())
            moved += 1

        if self._fetch_stall > 0:
            self._fetch_stall -= 1
            self.stats.fetch_stall_cycles.increment()
            return

        fetched = 0
        while fetched < self._config.width and not self._ifq.is_full:
            record = self._source.peek()
            if record is None:
                break
            if self._speculative:
                if not record.tag:
                    break  # wrong-path block exhausted: fetch starves
                if not self._icache_fetch(self._spec_pc):
                    break
                op = self._admit(record, self._spec_pc)
                self.stats.fetched_wrong_path.increment()
                self._spec_pc += INSTRUCTION_BYTES
                fetched += 1
                continue

            assert not record.tag, (
                "tagged record outside speculative fetch; trace and "
                "engine disagree about a misprediction"
            )
            pc = self._fetch_pc
            if not self._icache_fetch(pc):
                break
            op = self._admit(record, pc)
            fetched += 1
            if isinstance(record, BranchRecord):
                bubble = self._fetch_branch(op, record, pc)
                if bubble:
                    break
            else:
                self._fetch_pc = pc + INSTRUCTION_BYTES

    def _admit(self, record: TraceRecord, pc: int) -> InFlightOp:
        """Consume one trace record into the IFQ."""
        op = InFlightOp(seq=self._seq, record=record, pc=pc)
        self._seq += 1
        self._source.next()
        op.fetched_cycle = self._cycle
        self._ifq.push(op)
        self.stats.fetched_instructions.increment()
        self.stats.trace_records_consumed.increment()
        return op

    def _fetch_branch(self, op: InFlightOp, record: BranchRecord,
                      pc: int) -> bool:
        """Resolve a correct-path branch at fetch; True = fetch bubble."""
        resolution = self._bpred.resolve(
            pc, record.branch_kind, record.taken, record.target
        )
        op.branch_resolution = resolution
        if not self._update_at_commit:
            self._bpred.update(pc, record.branch_kind, record.taken,
                               record.target, resolution)

        tagged_next = self._source.peek_is_tagged()
        if resolution.mispredicted != tagged_next:
            # The engine's predictor state has drifted from the
            # generator's (possible with commit-time training while
            # several branches are in flight).  The trace is
            # authoritative.
            self.stats.prediction_divergence.increment()

        if tagged_next:
            # Misprediction: fetch continues down the tagged block.
            self._speculative = True
            self._spec_branch_seq = op.seq
            if resolution.wrong_path_start is not None:
                self._spec_pc = resolution.wrong_path_start
            elif record.taken:
                self._spec_pc = pc + INSTRUCTION_BYTES
            else:
                self._spec_pc = record.target
            # Correct-path resumption PC is set at recovery.
            return True

        if record.taken:
            self._fetch_pc = record.target
            if resolution.misfetch:
                self._fetch_stall += self._config.misfetch_penalty
                self.stats.misfetches.increment()
                self.stats.misfetch_stall_cycles.increment(
                    self._config.misfetch_penalty
                )
            return True  # taken branch: control-flow bubble ends the cycle

        self._fetch_pc = pc + INSTRUCTION_BYTES
        if resolution.misfetch:
            # Predicted taken, actually not taken, with a bogus target:
            # fetch went astray and must re-steer.
            self._fetch_stall += self._config.misfetch_penalty
            self.stats.misfetches.increment()
            self.stats.misfetch_stall_cycles.increment(
                self._config.misfetch_penalty
            )
            return True
        return False

    def _icache_fetch(self, pc: int) -> bool:
        """Access the I-cache once per fetch line.

        Returns True when the instruction at ``pc`` can be delivered
        this cycle; on a miss, charges the stall and returns False (the
        record stays in the trace for the post-stall retry, by which
        time the line is resident).
        """
        if self._config.perfect_memory:
            line = pc // 64
            if line != self._last_fetch_line:
                self._last_fetch_line = line
                self._memory.ifetch(pc)
                self.stats.icache_accesses.increment()
            return True
        line = pc // self._config.icache.block_bytes
        if line == self._last_fetch_line:
            return True
        result = self._memory.ifetch(pc)
        self.stats.icache_accesses.increment()
        self._last_fetch_line = line
        if result.hit:
            return True
        self.stats.icache_misses.increment()
        self._fetch_stall += result.latency - 1
        return False
