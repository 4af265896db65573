"""Trace generation with a branch predictor — the ``sim-bpred`` flow.

This is the paper's trace generator (Section V.A): a functional
simulator that also runs the branch predictor ReSim will use, so that
after every branch the predictor *mispredicts* it can inject a **wrong
path block** — the tagged instructions the simulated front end will
fetch before the branch resolves.

Wrong-path construction
-----------------------
The block starts at the PC fetch actually (wrongly) redirected to —
the fall-through address for a missed taken branch, the predicted
target for a wrongly-taken one — and decodes *statically* from the
program text:

* decoding stops at the first unconditional control transfer or at the
  text-segment boundary (fetch would stall on such a bubble anyway);
* wrong-path loads/stores compute their addresses from the *current*
  architectural register state — the closest available approximation,
  and enough to exercise the D-cache the way real wrong-path traffic
  does;
* nothing is executed: architectural state is never polluted.

The block is capped at the paper's conservative bound, Reorder Buffer
entries + IFQ entries (:func:`repro.trace.wrongpath.conservative_block_size`).

Consistency invariant
---------------------
The generator trains its predictor in program order with exactly the
same :class:`~repro.bpred.unit.BranchPredictorUnit` the ReSim engine
uses at Commit, so both see identical predictor state at every branch.
Tests assert this end to end (the engine re-derives every prediction
and must agree with the Tag bits in the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bpred.unit import BranchPredictorUnit, PredictorConfig, PAPER_PREDICTOR
from repro.functional.executor import Executor, StepResult
from repro.functional.state import MachineState, to_unsigned
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import Program
from repro.trace.record import (
    BranchRecord,
    MemoryRecord,
    OtherRecord,
    TraceRecord,
)
from repro.trace.stats import TraceStatistics, measure_trace
from repro.trace.wrongpath import conservative_block_size

_SIZE_TO_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}


@dataclass
class TraceGenerationResult:
    """A generated trace plus everything measured while producing it.

    ``records`` is normally a plain list of records, but generators
    accept any append/extend sink (see their ``sink`` parameter) and
    then ``records`` is that sink.  The synthetic generator streams
    rows (:data:`repro.trace.record.ROW_FIELDS`) to its sink, and
    :func:`repro.workloads.tracegen.write_workload_trace` hands every
    workload's rows to a segment-sized batch that it packs into a file
    and counts into a :class:`~repro.trace.stats.TraceStatistics`, so
    no trace is ever held whole; in that mode :attr:`total_records`
    and :meth:`statistics` are the sink's business.
    """

    records: list[TraceRecord] = field(default_factory=list)
    committed_instructions: int = 0
    wrong_path_instructions: int = 0
    mispredictions: int = 0
    misfetches: int = 0
    branches: int = 0
    output: str = ""

    @property
    def total_records(self) -> int:
        return len(self.records)

    def statistics(self) -> TraceStatistics:
        """Record-stream statistics (bits/instr etc., for Table 3)."""
        return measure_trace(self.records)


def _trace_registers(instr: Instruction) -> tuple[int, int, int]:
    """Map an instruction's registers into trace namespace.

    Returns ``(dest, src1, src2)``; the multiply/divide HI/LO pair is
    implicit in the FU class and encoded as dest 0.
    """
    dests = instr.dest_registers()
    if instr.fu_class in (FuClass.MUL, FuClass.DIV):
        dest = 0
    else:
        dest = dests[0] if dests else 0
    srcs = instr.src_registers()
    src1 = srcs[0] if len(srcs) > 0 else 0
    src2 = srcs[1] if len(srcs) > 1 else 0
    return dest, src1, src2


def record_for(instr: Instruction, step: StepResult | None = None,
               tag: bool = False) -> TraceRecord:
    """Build the B/M/O record for one (possibly unexecuted) instruction.

    ``step`` supplies dynamic facts (branch outcome, memory address);
    for wrong-path records it is None and static fall-backs are used.
    """
    dest, src1, src2 = _trace_registers(instr)
    if instr.is_branch:
        if step is not None:
            taken, target = step.taken, step.target
        else:
            taken, target = False, 0
        return BranchRecord(
            tag=tag, fu=FuClass.BRANCH, dest=dest, src1=src1, src2=src2,
            branch_kind=instr.branch_kind, taken=taken,
            target=to_unsigned(target),
        )
    if instr.is_mem:
        address = step.mem_address if step is not None else 0
        return MemoryRecord(
            tag=tag,
            fu=FuClass.STORE if instr.is_store else FuClass.LOAD,
            dest=dest, src1=src1, src2=src2,
            is_store=instr.is_store,
            address=to_unsigned(address),
            size_log2=_SIZE_TO_LOG2[instr.info.mem_bytes],
        )
    return OtherRecord(tag=tag, fu=instr.fu_class, dest=dest,
                       src1=src1, src2=src2)


class SimBpred:
    """Functional simulator + predictor = tagged trace generator.

    Parameters
    ----------
    predictor_config:
        Must match the configuration the consuming ReSim instance uses,
        or the Tag bits will not line up with its predictions.
    rob_entries, ifq_entries:
        Sizes used for the conservative wrong-path block bound.
    """

    def __init__(
        self,
        predictor_config: PredictorConfig = PAPER_PREDICTOR,
        rob_entries: int = 16,
        ifq_entries: int = 4,
        max_instructions: int = 50_000_000,
    ) -> None:
        self._config = predictor_config
        self._block_limit = conservative_block_size(rob_entries, ifq_entries)
        self._max_instructions = max_instructions

    @property
    def predictor_config(self) -> PredictorConfig:
        return self._config

    @property
    def wrong_path_block_limit(self) -> int:
        return self._block_limit

    def generate(self, program: Program,
                 inputs: list[int] | None = None,
                 sink=None) -> TraceGenerationResult:
        """Run ``program`` and emit its tagged trace.

        ``sink`` (any object with ``append``/``extend``) receives the
        records instead of the result's in-memory list — the
        streaming-generation mode used by
        :func:`repro.workloads.tracegen.write_workload_trace`.
        """
        state = MachineState(program)
        executor = Executor(inputs=inputs)
        predictor = BranchPredictorUnit(self._config)
        result = TraceGenerationResult(
            records=[] if sink is None else sink)

        for step in executor.run(state, self._max_instructions):
            instr = step.instruction
            result.committed_instructions += 1
            result.records.append(record_for(instr, step))

            if not instr.is_branch:
                continue
            result.branches += 1
            resolution = predictor.resolve(
                step.pc, instr.branch_kind, step.taken,
                to_unsigned(step.target),
            )
            predictor.update(
                step.pc, instr.branch_kind, step.taken,
                to_unsigned(step.target), resolution,
            )
            if resolution.misfetch:
                result.misfetches += 1
            if resolution.mispredicted:
                result.mispredictions += 1
                assert resolution.wrong_path_start is not None
                block = self._wrong_path_block(
                    program, state, resolution.wrong_path_start
                )
                result.wrong_path_instructions += len(block)
                result.records.extend(block)

        result.output = "".join(state.output)
        return result

    def _wrong_path_block(self, program: Program, state: MachineState,
                          start_pc: int) -> list[TraceRecord]:
        """Statically decode the wrong path into tagged records."""
        block: list[TraceRecord] = []
        pc = start_pc
        while len(block) < self._block_limit and program.has_instruction(pc):
            instr = program.instruction_at(pc)
            record = self._wrong_path_record(instr, state, pc)
            block.append(record)
            kind = instr.branch_kind
            if kind in (BranchKind.JUMP, BranchKind.CALL,
                        BranchKind.RETURN, BranchKind.INDIRECT):
                break  # unconditional transfer: fetch bubble ends the block
            pc += INSTRUCTION_BYTES
        return block

    def _wrong_path_record(self, instr: Instruction, state: MachineState,
                           pc: int) -> TraceRecord:
        """A tagged record with best-effort dynamic fields."""
        dest, src1, src2 = _trace_registers(instr)
        if instr.is_mem:
            # Approximate the address from current architectural state;
            # wrong-path memory traffic pollutes the D-cache, and this
            # is the closest address the unexecuted path would form.
            address = to_unsigned(state.read_reg(instr.rs) + instr.imm)
            return MemoryRecord(
                tag=True,
                fu=FuClass.STORE if instr.is_store else FuClass.LOAD,
                dest=dest, src1=src1, src2=src2,
                is_store=instr.is_store, address=address,
                size_log2=_SIZE_TO_LOG2[instr.info.mem_bytes],
            )
        if instr.is_branch:
            # Static target for direct branches; never used to redirect.
            if instr.branch_kind in (BranchKind.JUMP, BranchKind.CALL):
                target = to_unsigned(instr.imm << 3)
            elif instr.branch_kind is BranchKind.COND:
                target = to_unsigned(pc + INSTRUCTION_BYTES + instr.imm)
            else:
                target = 0
            return BranchRecord(
                tag=True, fu=FuClass.BRANCH, dest=dest, src1=src1, src2=src2,
                branch_kind=instr.branch_kind, taken=False, target=target,
            )
        return OtherRecord(tag=True, fu=instr.fu_class, dest=dest,
                           src1=src1, src2=src2)
