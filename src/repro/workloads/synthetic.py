"""Synthetic trace generator: profile → CFG skeleton → tagged trace.

The generator builds a *static program skeleton* (functions made of
basic blocks, each ending in a loop back-branch, data-dependent
conditional, call, jump, or return — all at stable synthetic PCs) and
then *walks* it dynamically:

* loop sites iterate with per-entry trip counts;
* conditional sites follow per-site biased-random or short periodic
  outcome processes (periodic patterns are what a two-level predictor
  learns and a bimodal one cannot);
* calls/returns maintain a real call stack, exercising the RAS;
* block bodies are filled from the profile's instruction mix, with
  register dependencies drawn from the profile's dependency-distance
  distribution and memory addresses from its locality model.

Because branch sites live at stable PCs and the walker trains the same
:class:`~repro.bpred.unit.BranchPredictorUnit` the ReSim engine uses,
the trace carries exactly the wrong-path blocks ReSim's own predictions
will follow — the same consistency invariant as the functional
``sim-bpred`` flow (:mod:`repro.functional.sim_bpred`).

The walk emits plain rows (:data:`repro.trace.record.ROW_FIELDS`),
not record objects: a row is one tuple per instruction, which is what
the trace writer packs and the statistics count, so streaming a trace
to a file builds no object per instruction.  Without a sink,
:meth:`SyntheticWorkload.generate` returns the rows' records.

Everything is deterministic in the seed: the same
``(profile, seed, budget, predictor_config)`` produces a bit-identical
trace on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpred.unit import BranchPredictorUnit, PAPER_PREDICTOR, PredictorConfig
from repro.functional.sim_bpred import TraceGenerationResult
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.trace.record import RecordKind, Row, row_record
from repro.trace.wrongpath import conservative_block_size
from repro.utils.rng import XorShiftRNG, cumulative_weights
from repro.workloads.profiles import BenchmarkProfile

#: Gap between consecutive synthetic functions, in bytes.
_FUNCTION_GAP = 64

#: Registers used as stable "globals" (address bases, long-lived values).
_GLOBAL_REGS = (16, 17, 18, 19, 20, 21, 22, 23)  # $s0..$s7

#: Registers cycled through as instruction destinations.
_DEST_REGS = tuple(range(8, 16)) + (24, 25)      # $t0..$t9

#: The branch kind of each terminator's row.
_BRANCH_KINDS = {
    "loop": BranchKind.COND,
    "cond": BranchKind.COND,
    "jump": BranchKind.JUMP,
    "call": BranchKind.CALL,
    "ret": BranchKind.RETURN,
}

# Row fields as the walk emits them: format codes and FU classes.
_OTHER, _BRANCH, _MEMORY = (
    RecordKind.OTHER.value, RecordKind.BRANCH.value, RecordKind.MEMORY.value)
_ALU, _MUL, _DIV, _LOAD, _STORE, _BRANCH_FU = (
    FuClass.ALU, FuClass.MUL, FuClass.DIV, FuClass.LOAD, FuClass.STORE,
    FuClass.BRANCH)


def _stable_name_hash(name: str) -> int:
    """FNV-1a over the benchmark name.

    ``hash(str)`` is randomized per interpreter process, which would
    silently break cross-run trace determinism; this hash is stable.
    """
    value = 0x811C9DC5
    for byte in name.encode():
        value = ((value ^ byte) * 0x01000193) & 0xFFFF_FFFF
    return value


@dataclass(frozen=True)
class _Terminator:
    """Static description of how a basic block ends."""

    kind: str                    # "loop" | "cond" | "call" | "jump" | "ret"
    pc: int
    target_pc: int = 0           # branch/jump/call destination
    target_block: int = 0        # index of the taken-successor block
    callee: int = -1             # function index for calls
    trip_mean: float = 0.0       # loops
    bias: float = 0.5            # biased-random conditionals
    pattern: tuple[bool, ...] = ()  # periodic conditionals (empty = random)


@dataclass(frozen=True)
class _Block:
    """One static basic block of the skeleton."""

    start_pc: int
    body_length: int
    terminator: _Terminator

    @property
    def end_pc(self) -> int:
        """PC just past the terminator."""
        return self.start_pc + (self.body_length + 1) * INSTRUCTION_BYTES


@dataclass(frozen=True)
class _Function:
    index: int
    base_pc: int
    blocks: tuple[_Block, ...]


class SyntheticWorkload:
    """Deterministic synthetic benchmark for one profile.

    Parameters
    ----------
    profile:
        The benchmark's statistical description.
    seed:
        PRNG seed; the skeleton and the walk both derive from it.
    predictor_config:
        Must match the ReSim instance that will consume the trace (the
        generator injects wrong-path blocks where *this* predictor
        mispredicts).
    rob_entries, ifq_entries:
        Sizes bounding the conservative wrong-path block.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 2009,
        predictor_config: PredictorConfig = PAPER_PREDICTOR,
        rob_entries: int = 16,
        ifq_entries: int = 4,
    ) -> None:
        self._profile = profile
        self._seed = seed
        self._config = predictor_config
        self._block_limit = conservative_block_size(rob_entries, ifq_entries)

        root = XorShiftRNG(seed ^ _stable_name_hash(profile.name))
        self._rng_build = root.fork(1)
        self._rng_mix = root.fork(2)
        self._rng_deps = root.fork(3)
        self._rng_mem = root.fork(4)
        self._rng_branch = root.fork(5)
        self._rng_wrongpath = root.fork(6)

        self._functions = self._build_skeleton()
        self._block_by_pc: dict[int, tuple[int, int]] = {}
        for function in self._functions:
            for block_index, block in enumerate(function.blocks):
                self._block_by_pc[block.start_pc] = (function.index, block_index)

        # Memory-locality state: each stream cycles through its own
        # reuse window (region) placed somewhere in the working set.
        region = min(profile.stream_region_bytes, profile.working_set_bytes)
        self._stream_region = max(64, region)
        self._stream_bases = []
        self._stream_offsets = []
        for _ in range(profile.stream_count):
            limit = max(0, profile.working_set_bytes - self._stream_region)
            self._stream_bases.append(
                self._rng_mem.randint(0, max(0, limit)) & ~63
            )
            self._stream_offsets.append(0)

        # The non-branch instruction mix every body record draws from,
        # folded once.
        non_branch = 1.0 - profile.branch_fraction
        weights = {
            "load": profile.load_fraction / non_branch,
            "store": profile.store_fraction / non_branch,
            "mul": profile.mul_fraction / non_branch,
            "div": profile.div_fraction / non_branch,
        }
        weights["alu"] = max(0.0, 1.0 - sum(weights.values()))
        self._body_mix = cumulative_weights(weights)

        # Recent destination registers, oldest first (dependency model).
        self._recent_dests: list[int] = list(_GLOBAL_REGS)

        # Dynamic per-site state.
        self._loop_remaining: dict[int, int] = {}
        self._pattern_phase: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Skeleton construction
    # ------------------------------------------------------------------

    def _build_skeleton(self) -> tuple[_Function, ...]:
        profile = self._profile
        rng = self._rng_build
        functions: list[_Function] = []
        next_base = TEXT_BASE

        for func_index in range(profile.function_count):
            block_count = max(
                2, rng.geometric(float(profile.blocks_per_function))
            )
            block_count = min(block_count, 3 * profile.blocks_per_function)
            blocks: list[_Block] = []
            pc = next_base
            # First pass: pick block lengths so target PCs are known.
            lengths = [
                min(32, max(1, rng.geometric(profile.mean_block_length)))
                for _ in range(block_count)
            ]
            starts = []
            cursor = pc
            for length in lengths:
                starts.append(cursor)
                cursor += (length + 1) * INSTRUCTION_BYTES

            for block_index in range(block_count):
                term_pc = (starts[block_index]
                           + lengths[block_index] * INSTRUCTION_BYTES)
                terminator = self._build_terminator(
                    rng, func_index, block_index, block_count, starts, term_pc
                )
                blocks.append(_Block(
                    start_pc=starts[block_index],
                    body_length=lengths[block_index],
                    terminator=terminator,
                ))
            functions.append(_Function(
                index=func_index, base_pc=next_base, blocks=tuple(blocks)
            ))
            next_base = cursor + _FUNCTION_GAP

        return tuple(functions)

    def _build_terminator(
        self,
        rng: XorShiftRNG,
        func_index: int,
        block_index: int,
        block_count: int,
        starts: list[int],
        term_pc: int,
    ) -> _Terminator:
        profile = self._profile
        last = block_index == block_count - 1

        if func_index == 0:
            # Function 0 is the driver (a real program's main loop):
            # alternate blocks call out to worker functions, the last
            # block jumps back to the head.  This guarantees the whole
            # skeleton — and therefore the call/return structure —
            # actually runs, without driver calls dominating the
            # dynamic branch mix.
            if last:
                return _Terminator(kind="jump", pc=term_pc,
                                   target_pc=starts[0], target_block=0)
            if profile.function_count > 1 and block_index % 2 == 0:
                callee = rng.randint(1, profile.function_count - 1)
                return _Terminator(kind="call", pc=term_pc, callee=callee)
            return _Terminator(kind="jump", pc=term_pc,
                               target_pc=starts[block_index + 1],
                               target_block=block_index + 1)

        if last:
            return _Terminator(kind="ret", pc=term_pc)

        # Profile weights describe the *dynamic* branch mix.  A loop site
        # executes its branch ~trip_mean times per visit while the other
        # kinds execute once, so the static draw down-weights loops
        # accordingly.
        weights = {
            "loop": profile.loop_weight / max(1.0, profile.loop_trip_mean),
            "cond": profile.cond_weight,
            "call": profile.call_weight,
            "jump": profile.jump_weight,
        }
        kind = rng.choose_weighted(weights)

        if kind == "call":
            # Acyclic call graph: only higher-indexed callees, so call
            # depth is bounded by the function count.
            if func_index + 1 < profile.function_count:
                callee = rng.randint(func_index + 1,
                                     profile.function_count - 1)
                return _Terminator(kind="call", pc=term_pc, callee=callee)
            kind = "jump"  # highest function has nobody to call

        if kind == "loop":
            return _Terminator(
                kind="loop", pc=term_pc,
                target_pc=starts[block_index], target_block=block_index,
                trip_mean=max(1.5, profile.loop_trip_mean
                              * (0.5 + rng.random())),
            )

        if kind == "cond":
            # Short forward skip (an if/else "diamond"): both outcomes
            # stay on the main path through the function, so every
            # block — including call sites and the final return — gets
            # visited and the dynamic mix matches the static one.
            skip = 1 + rng.randint(1, 2)
            target_block = min(block_index + skip, block_count - 1)
            bias = (profile.cond_bias_low
                    + rng.random()
                    * (profile.cond_bias_high - profile.cond_bias_low))
            pattern: tuple[bool, ...] = ()
            if rng.chance(profile.periodic_fraction):
                period = rng.randint(2, max(2, profile.periodic_max_period))
                taken_slots = max(1, round(bias * period))
                pattern = tuple(i < taken_slots for i in range(period))
            return _Terminator(
                kind="cond", pc=term_pc,
                target_pc=starts[target_block], target_block=target_block,
                bias=bias, pattern=pattern,
            )

        # Unconditional forward jump over at most one block (a goto or
        # else-join); long skips would orphan the blocks in between.
        target_block = min(block_index + rng.randint(1, 2), block_count - 1)
        return _Terminator(kind="jump", pc=term_pc,
                           target_pc=starts[target_block],
                           target_block=target_block)

    # ------------------------------------------------------------------
    # Instruction-content sampling
    # ------------------------------------------------------------------

    def _sample_source(self, rng: XorShiftRNG) -> int:
        """Pick a source register via the dependency-distance model."""
        distance = rng.geometric(self._profile.dep_distance_mean)
        recents = self._recent_dests
        if distance <= len(recents):
            return recents[-distance]
        return _GLOBAL_REGS[rng.randint(0, len(_GLOBAL_REGS) - 1)]

    def _push_dest(self, register: int) -> None:
        self._recent_dests.append(register)
        if len(self._recent_dests) > 64:
            del self._recent_dests[:32]

    def _sample_address(self, rng: XorShiftRNG, advance: bool) -> int:
        """Draw a data address from the locality model."""
        profile = self._profile
        if rng.chance(profile.stream_fraction) and self._stream_bases:
            index = rng.randint(0, len(self._stream_bases) - 1)
            offset = self._stream_bases[index] + self._stream_offsets[index]
            if advance:
                self._stream_offsets[index] = (
                    (self._stream_offsets[index] + profile.stream_stride)
                    % self._stream_region
                )
        elif rng.chance(profile.hot_fraction):
            # Temporal locality: stack frames, hot buckets, counters.
            offset = rng.randint(0, profile.hot_bytes - 4) & ~3
        else:
            offset = rng.randint(0, profile.working_set_bytes - 4) & ~3
        return (DATA_BASE + offset) & 0xFFFF_FFFF

    def _body_row(self, rng_mix: XorShiftRNG, rng_deps: XorShiftRNG,
                  rng_mem: XorShiftRNG, tag: bool, advance_streams: bool) -> Row:
        """Sample one non-branch instruction from the profile mix."""
        kind = rng_mix.choose_cumulative(self._body_mix)

        if kind == "load":
            dest = _DEST_REGS[rng_deps.randint(0, len(_DEST_REGS) - 1)]
            base = _GLOBAL_REGS[rng_deps.randint(0, len(_GLOBAL_REGS) - 1)]
            row = (_MEMORY, tag, _LOAD, dest, base, 0, False,
                   self._sample_address(rng_mem, advance_streams), 2)
            if not tag:
                self._push_dest(dest)
            return row
        if kind == "store":
            base = _GLOBAL_REGS[rng_deps.randint(0, len(_GLOBAL_REGS) - 1)]
            data = self._sample_source(rng_deps)
            return (_MEMORY, tag, _STORE, 0, base, data, True,
                    self._sample_address(rng_mem, advance_streams), 2)
        if kind in ("mul", "div"):
            # HI/LO destinations are implicit in the FU class.
            return (_OTHER, tag, _MUL if kind == "mul" else _DIV, 0,
                    self._sample_source(rng_deps),
                    self._sample_source(rng_deps), None, None, None)
        dest = _DEST_REGS[rng_deps.randint(0, len(_DEST_REGS) - 1)]
        row = (_OTHER, tag, _ALU, dest, self._sample_source(rng_deps),
               self._sample_source(rng_deps), None, None, None)
        if not tag:
            self._push_dest(dest)
        return row

    # ------------------------------------------------------------------
    # Branch outcome processes
    # ------------------------------------------------------------------

    def _loop_taken(self, terminator: _Terminator) -> bool:
        remaining = self._loop_remaining.get(terminator.pc)
        if remaining is None:
            trips = max(1, self._rng_branch.geometric(terminator.trip_mean))
            remaining = trips
        remaining -= 1
        if remaining > 0:
            self._loop_remaining[terminator.pc] = remaining
            return True
        self._loop_remaining.pop(terminator.pc, None)
        return False

    def _cond_taken(self, terminator: _Terminator) -> bool:
        if terminator.pattern:
            phase = self._pattern_phase.get(terminator.pc, 0)
            self._pattern_phase[terminator.pc] = phase + 1
            return terminator.pattern[phase % len(terminator.pattern)]
        return self._rng_branch.chance(terminator.bias)

    # ------------------------------------------------------------------
    # The dynamic walk
    # ------------------------------------------------------------------

    def generate(self, instruction_budget: int = 100_000,
                 sink=None) -> TraceGenerationResult:
        """Walk the skeleton and emit the tagged trace.

        ``instruction_budget`` counts correct-path instructions; the
        trace additionally contains the injected wrong-path blocks.
        The walk emits rows (:data:`repro.trace.record.ROW_FIELDS`).
        ``sink`` (any object with ``append``/``extend``) receives them
        as they are produced — the streaming-generation mode used by
        :func:`repro.workloads.tracegen.write_workload_trace`; without
        a sink the result's ``records`` is the list of their records.
        """
        if instruction_budget <= 0:
            raise ValueError("instruction_budget must be positive")
        predictor = BranchPredictorUnit(self._config)
        result = TraceGenerationResult(
            records=[] if sink is None else sink)
        append = result.records.append
        body_row = self._body_row
        rng_mix, rng_deps, rng_mem = self._rng_mix, self._rng_deps, self._rng_mem

        func_index, block_index = 0, 0
        call_stack: list[tuple[int, int]] = []

        while result.committed_instructions < instruction_budget:
            function = self._functions[func_index]
            block = function.blocks[block_index]

            # Block body.
            for _ in range(block.body_length):
                append(body_row(rng_mix, rng_deps, rng_mem, False, True))
            result.committed_instructions += block.body_length

            # Terminator.
            terminator = block.terminator
            func_index, block_index = self._execute_terminator(
                predictor, result, function, block_index, terminator,
                call_stack,
            )

        if sink is None:
            # In place, so the rows and their records are never all
            # held at once.
            records = result.records
            for index, row in enumerate(records):
                records[index] = row_record(row)
        result.output = (
            f"synthetic:{self._profile.name}:seed={self._seed}"
        )
        return result

    def _execute_terminator(
        self,
        predictor: BranchPredictorUnit,
        result: TraceGenerationResult,
        function: _Function,
        block_index: int,
        terminator: _Terminator,
        call_stack: list[tuple[int, int]],
    ) -> tuple[int, int]:
        """Emit the terminator's record(s) and return the next location."""
        kind = terminator.kind
        profile_funcs = self._functions

        if kind in ("loop", "cond"):
            taken = (self._loop_taken(terminator) if kind == "loop"
                     else self._cond_taken(terminator))
            self._emit_branch(
                predictor, result, terminator.pc, BranchKind.COND,
                taken, terminator.target_pc,
            )
            if taken:
                return function.index, terminator.target_block
            return function.index, block_index + 1

        if kind == "jump":
            self._emit_branch(
                predictor, result, terminator.pc, BranchKind.JUMP,
                True, terminator.target_pc,
            )
            return function.index, terminator.target_block

        if kind == "call":
            callee = profile_funcs[terminator.callee]
            self._emit_branch(
                predictor, result, terminator.pc, BranchKind.CALL,
                True, callee.base_pc,
            )
            call_stack.append((function.index, block_index + 1))
            return callee.index, 0

        if kind == "ret":
            if call_stack:
                ret_func, ret_block = call_stack.pop()
            else:  # underflow cannot happen with an acyclic call graph
                ret_func, ret_block = 0, 0
            target_pc = (profile_funcs[ret_func]
                         .blocks[ret_block].start_pc)
            self._emit_branch(
                predictor, result, terminator.pc, BranchKind.RETURN,
                True, target_pc,
            )
            return ret_func, ret_block

        raise AssertionError(f"unknown terminator kind {kind!r}")

    def _emit_branch(
        self,
        predictor: BranchPredictorUnit,
        result: TraceGenerationResult,
        pc: int,
        kind: BranchKind,
        taken: bool,
        target: int,
    ) -> None:
        """Emit a branch row, resolve/train, inject wrong path."""
        src1 = self._sample_source(self._rng_deps)
        result.records.append((_BRANCH, False, _BRANCH_FU, 0, src1, 0, kind,
                               taken, target & 0xFFFF_FFFF))
        result.committed_instructions += 1
        result.branches += 1

        resolution = predictor.resolve(pc, kind, taken, target & 0xFFFF_FFFF)
        predictor.update(pc, kind, taken, target & 0xFFFF_FFFF, resolution)
        if resolution.misfetch:
            result.misfetches += 1
        if resolution.mispredicted:
            result.mispredictions += 1
            start = resolution.wrong_path_start
            assert start is not None
            block = self._wrong_path_block(start)
            result.wrong_path_instructions += len(block)
            result.records.extend(block)

    # ------------------------------------------------------------------
    # Wrong-path synthesis (mirrors sim_bpred._wrong_path_block)
    # ------------------------------------------------------------------

    def _wrong_path_block(self, start_pc: int) -> list[Row]:
        """Statically walk the skeleton from ``start_pc``, tagged."""
        block_rows: list[Row] = []
        location = self._block_by_pc.get(start_pc)
        wp_rng = self._rng_wrongpath
        while location is not None and len(block_rows) < self._block_limit:
            func_index, block_index = location
            blocks = self._functions[func_index].blocks
            block = blocks[block_index]
            for _ in range(block.body_length):
                if len(block_rows) >= self._block_limit:
                    return block_rows
                block_rows.append(self._body_row(
                    wp_rng, wp_rng, wp_rng, True, False))
            if len(block_rows) >= self._block_limit:
                return block_rows
            terminator = block.terminator
            # A conditional falls through (sequential wrong-path fetch);
            # an unconditional transfer ends the wrong-path block (a
            # control-flow bubble stalls sequential fetch anyway).
            branch_kind = _BRANCH_KINDS[terminator.kind]
            block_rows.append((
                _BRANCH, True, _BRANCH_FU, 0, self._sample_source(wp_rng), 0,
                branch_kind, False, terminator.target_pc & 0xFFFF_FFFF))
            if branch_kind is BranchKind.COND and block_index + 1 < len(blocks):
                location = (func_index, block_index + 1)
            else:
                location = None
        return block_rows

    # ------------------------------------------------------------------
    # Introspection helpers (used by examples and tests)
    # ------------------------------------------------------------------

    @property
    def profile(self) -> BenchmarkProfile:
        return self._profile

    @property
    def code_footprint_bytes(self) -> int:
        """Total static code size of the skeleton."""
        last = self._functions[-1]
        return last.blocks[-1].end_pc - TEXT_BASE

    @property
    def static_branch_sites(self) -> int:
        """Number of distinct branch PCs in the skeleton."""
        return sum(len(f.blocks) for f in self._functions)

    def describe(self) -> str:
        return (
            f"{self._profile.name}: {len(self._functions)} functions, "
            f"{self.static_branch_sites} blocks, "
            f"{self.code_footprint_bytes / 1024:.1f} KB code, "
            f"{self._profile.working_set_bytes / 1024:.0f} KB data"
        )
