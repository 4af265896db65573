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
predictor the ReSim engine runs — the code the specialized engine
generates for it (:mod:`repro.bpred.emit`), or the
:class:`~repro.bpred.unit.BranchPredictorUnit` where the engine calls
the object model too — the trace carries exactly the wrong-path blocks
ReSim's own predictions will follow: the same consistency invariant as
the functional ``sim-bpred`` flow (:mod:`repro.functional.sim_bpred`).

The walk emits plain rows (:data:`repro.trace.record.ROW_FIELDS`),
not record objects: a row is one tuple per instruction, which is what
the trace writer packs and the statistics count, so streaming a trace
to a file builds no object per instruction.  Without a sink,
:meth:`SyntheticWorkload.generate` returns the rows' records.  Block
bodies come from one sampler that inlines the PRNG step and compares
each draw against integer thresholds precomputed per workload
(:meth:`SyntheticWorkload._sample_body`); ``tests/reference_sampler.py``
is the per-row oracle it is checked against.

Everything is deterministic in the seed: the same
``(profile, seed, budget, predictor_config)`` produces a bit-identical
trace on any platform.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.bpred.emit import compile_predictor
from repro.bpred.unit import BranchPredictorUnit, PAPER_PREDICTOR, PredictorConfig
from repro.functional.sim_bpred import TraceGenerationResult
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import DATA_BASE, TEXT_BASE
from repro.trace.record import RecordKind, Row, row_record
from repro.trace.wrongpath import conservative_block_size
from repro.utils.rng import (
    MASK64,
    MULTIPLIER,
    XorShiftRNG,
    below,
    cumulative_thresholds,
    cumulative_weights,
    geometric_thresholds,
    randint_limit,
    redraw,
)
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


def _unit_predict(unit: BranchPredictorUnit) -> Callable:
    """``predict(pc, bk, taken, target)`` over the object model, in the
    shape of :func:`repro.bpred.emit.compile_predictor`'s functions."""
    def predict(pc: int, bk: BranchKind, taken: bool,
                target: int) -> tuple[bool, bool, int | None]:
        resolution = unit.resolve(pc, bk, taken, target)
        unit.update(pc, bk, taken, target, resolution)
        return (resolution.mispredicted, resolution.misfetch,
                resolution.wrong_path_start)
    return predict


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

        self._sampler = self._build_sampler()

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

    def _build_sampler(self) -> tuple:
        """The integer thresholds :meth:`_sample_body` tests its draws
        against, in the order it unpacks them.  A ``chance`` that draws
        nothing (probability 0 or 1) keeps its threshold, 0 or
        ``2**64``, for its outcome."""
        profile = self._profile
        # The non-branch instruction mix every body row draws from.
        non_branch = 1.0 - profile.branch_fraction
        weights = {
            "load": profile.load_fraction / non_branch,
            "store": profile.store_fraction / non_branch,
            "mul": profile.mul_fraction / non_branch,
            "div": profile.div_fraction / non_branch,
        }
        weights["alu"] = max(0.0, 1.0 - sum(weights.values()))
        t_load, t_store, t_mul, t_div, _ = cumulative_thresholds(
            cumulative_weights(weights))
        dependency = geometric_thresholds(profile.dep_distance_mean)
        stream, hot = profile.stream_fraction, profile.hot_fraction
        hot_span = profile.hot_bytes - 3
        working_set_span = profile.working_set_bytes - 3
        return (
            t_load, t_store, t_mul, t_div,
            dependency is not None, *(dependency or (0, 0)),
            randint_limit(len(_DEST_REGS)),
            0.0 < stream < 1.0, below(stream),
            len(self._stream_bases), randint_limit(len(self._stream_bases)),
            0.0 < hot < 1.0, below(hot),
            hot_span, randint_limit(hot_span),
            working_set_span, randint_limit(working_set_span),
            profile.stream_stride, self._stream_region,
        )

    def _sample_body(self, count: int, rows: list[Row], wrong_path: bool,
                     branch: bool) -> int:
        """Append ``count`` body rows (non-branch instructions) to
        ``rows``; with ``branch``, then draw the source register of the
        branch that ends the block and return it (else return 0).

        A row's FU class comes from the profile mix, its registers from
        the dependency-distance model (a source ``d`` instructions back
        reads the ``d``-th most recent destination, a longer one a
        global register) and a load's or store's address from the
        locality model (a strided stream, the hot region, or anywhere in
        the working set).  Committed rows draw the mix, the registers
        and the addresses from three streams, advance the memory
        streams and push their destinations; wrong-path rows are
        tagged, draw all three from the one wrong-path stream in the
        same order, and change neither.

        The xorshift64* step is inlined, each stream's state kept in a
        local, and each draw tested against the integer thresholds
        :meth:`_build_sampler` precomputed, so the draws and outcomes are
        exactly those of ``XorShiftRNG``'s ``choose_cumulative``,
        ``randint``, ``geometric`` and ``chance``.
        """
        (t_load, t_store, t_mul, t_div, dep_draws, t_dep, dep_tail,
         l_dest, stream_draws, t_stream, n_streams, l_streams, hot_draws,
         t_hot, hot_span, l_hot, ws_span, l_ws, stride,
         region) = self._sampler
        mask, mul = MASK64, MULTIPLIER
        dest_regs, global_regs = _DEST_REGS, _GLOBAL_REGS
        n_dest, n_global = len(dest_regs), len(global_regs)
        recents, bases, offsets = (self._recent_dests, self._stream_bases,
                                   self._stream_offsets)
        append = rows.append
        tag = wrong_path
        if wrong_path:
            xm = xd = xa = self._rng_wrongpath._state
        else:
            xm, xd, xa = (self._rng_mix._state, self._rng_deps._state,
                          self._rng_mem._state)
        # A row's draws: the mix pick, then its registers, then its
        # address; aliased streams hand the state on between them.
        for row in range(count + branch):
            if row == count:
                kind = _BRANCH_FU
            else:
                xm ^= xm >> 12
                xm ^= (xm << 25) & mask
                xm ^= xm >> 27
                y = (xm * mul) & mask
                kind = (_LOAD if y < t_load else _STORE if y < t_store
                        else _MUL if y < t_mul else _DIV if y < t_div
                        else _ALU)
            if wrong_path:
                xd = xm
            if kind is _LOAD or kind is _ALU:
                xd ^= xd >> 12
                xd ^= (xd << 25) & mask
                xd ^= xd >> 27
                y = (xd * mul) & mask
                if y >= l_dest:
                    xd, y = redraw(xd, n_dest)
                dest = dest_regs[y % n_dest]
            else:
                dest = 0
            # Sources shift in from the right: a load's base and no
            # source, a store's base and data, two sources otherwise.
            # (8 global registers divide 2**64, so their randint never
            # redraws; 10 destination registers may.)
            if kind is _LOAD or kind is _STORE:
                xd ^= xd >> 12
                xd ^= (xd << 25) & mask
                xd ^= xd >> 27
                base = global_regs[((xd * mul) & mask) % n_global]
                first, second, sources = ((base, 0, 0) if kind is _LOAD
                                          else (0, base, 1))
            else:
                first = second = 0
                sources = 1 if kind is _BRANCH_FU else 2
            while sources:
                distance = 1
                if dep_draws:
                    while True:
                        xd ^= xd >> 12
                        xd ^= (xd << 25) & mask
                        xd ^= xd >> 27
                        if (xd * mul) & mask < t_dep:
                            break
                        distance += 1
                        if distance >= dep_tail:
                            break
                if distance <= len(recents):
                    source = recents[-distance]
                else:
                    xd ^= xd >> 12
                    xd ^= (xd << 25) & mask
                    xd ^= xd >> 27
                    source = global_regs[((xd * mul) & mask) % n_global]
                first, second = second, source
                sources -= 1
            if kind is _BRANCH_FU:
                break
            if wrong_path:
                xa = xd
            if kind is _LOAD or kind is _STORE:
                if stream_draws:
                    xa ^= xa >> 12
                    xa ^= (xa << 25) & mask
                    xa ^= xa >> 27
                    streamed = (xa * mul) & mask < t_stream
                else:
                    streamed = t_stream > 0
                if streamed and n_streams:
                    xa ^= xa >> 12
                    xa ^= (xa << 25) & mask
                    xa ^= xa >> 27
                    y = (xa * mul) & mask
                    if y >= l_streams:
                        xa, y = redraw(xa, n_streams)
                    index = y % n_streams
                    offset = bases[index] + offsets[index]
                    if not wrong_path:
                        offsets[index] = (offsets[index] + stride) % region
                else:
                    # Else temporal locality (stack frames, hot buckets,
                    # counters) or anywhere in the working set.
                    if hot_draws:
                        xa ^= xa >> 12
                        xa ^= (xa << 25) & mask
                        xa ^= xa >> 27
                        hot = (xa * mul) & mask < t_hot
                    else:
                        hot = t_hot > 0
                    span, limit = (hot_span, l_hot) if hot else (ws_span, l_ws)
                    xa ^= xa >> 12
                    xa ^= (xa << 25) & mask
                    xa ^= xa >> 27
                    y = (xa * mul) & mask
                    if y >= limit:
                        xa, y = redraw(xa, span)
                    offset = (y % span) & ~3
                address = (DATA_BASE + offset) & 0xFFFF_FFFF
                if kind is _LOAD:
                    append((_MEMORY, tag, _LOAD, dest, first, 0, False,
                            address, 2))
                else:
                    append((_MEMORY, tag, _STORE, 0, first, second, True,
                            address, 2))
            else:
                # HI/LO destinations are implicit in the FU class.
                append((_OTHER, tag, kind, dest, first, second,
                        None, None, None))
            if wrong_path:
                xm = xa
            elif dest:
                recents.append(dest)
                if len(recents) > 64:
                    del recents[:32]
        if wrong_path:
            self._rng_wrongpath._state = xd if branch else xm
        else:
            self._rng_mix._state = xm
            self._rng_deps._state = xd
            self._rng_mem._state = xa
        return second if branch else 0

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
        a block at a time as they are produced — the
        streaming-generation mode used by
        :func:`repro.workloads.tracegen.write_workload_trace`; without
        a sink the result's ``records`` is the list of their records.

        Each branch is predicted and trained at once, in program order,
        by the predictor the engine generates for the same config
        (:func:`repro.bpred.emit.compile_predictor`), or by a
        :class:`~repro.bpred.unit.BranchPredictorUnit` where the engine
        calls the object model too.
        """
        if instruction_budget <= 0:
            raise ValueError("instruction_budget must be positive")
        # The object model also checks the predictor geometry.
        unit = BranchPredictorUnit(self._config)
        factory = compile_predictor(self._config)
        predict = factory() if factory is not None else _unit_predict(unit)
        result = TraceGenerationResult(
            records=[] if sink is None else sink)
        extend = result.records.extend
        sample_body = self._sample_body
        functions = self._functions
        func_index, block_index = 0, 0
        call_stack: list[tuple[int, int]] = []
        committed = branches = mispredictions = misfetches = wrong_path = 0

        while committed < instruction_budget:
            block = functions[func_index].blocks[block_index]
            rows: list[Row] = []
            source = sample_body(block.body_length, rows, False, True)

            # The terminator: its outcome and the next block.
            terminator = block.terminator
            kind = terminator.kind
            target = terminator.target_pc
            taken = True
            if kind == "loop" or kind == "cond":
                taken = (self._loop_taken(terminator) if kind == "loop"
                         else self._cond_taken(terminator))
                block_index = (terminator.target_block if taken
                               else block_index + 1)
            elif kind == "jump":
                block_index = terminator.target_block
            elif kind == "call":
                call_stack.append((func_index, block_index + 1))
                func_index, block_index = terminator.callee, 0
                target = functions[func_index].base_pc
            else:
                # Underflow cannot happen with an acyclic call graph.
                func_index, block_index = (call_stack.pop() if call_stack
                                           else (0, 0))
                target = functions[func_index].blocks[block_index].start_pc
            branch_kind = _BRANCH_KINDS[kind]
            target &= 0xFFFF_FFFF
            rows.append((_BRANCH, False, _BRANCH_FU, 0, source, 0,
                         branch_kind, taken, target))
            committed += block.body_length + 1
            branches += 1

            mispredicted, misfetch, start = predict(
                terminator.pc, branch_kind, taken, target)
            if misfetch:
                misfetches += 1
            if mispredicted:
                mispredictions += 1
                wrong_path += self._wrong_path_block(start, rows)
            extend(rows)

        result.committed_instructions = committed
        result.branches = branches
        result.mispredictions = mispredictions
        result.misfetches = misfetches
        result.wrong_path_instructions = wrong_path
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

    # ------------------------------------------------------------------
    # Wrong-path synthesis (mirrors sim_bpred._wrong_path_block)
    # ------------------------------------------------------------------

    def _wrong_path_block(self, start_pc: int, rows: list[Row]) -> int:
        """Statically walk the skeleton from ``start_pc``, appending
        tagged rows to ``rows``; return how many."""
        limit = self._block_limit
        emitted = 0
        location = self._block_by_pc.get(start_pc)
        while location is not None and emitted < limit:
            func_index, block_index = location
            blocks = self._functions[func_index].blocks
            block = blocks[block_index]
            body = min(block.body_length, limit - emitted)
            branch = emitted + body < limit
            source = self._sample_body(body, rows, True, branch)
            emitted += body
            if not branch:
                break
            # A conditional falls through (sequential wrong-path fetch);
            # an unconditional transfer ends the wrong-path block (a
            # control-flow bubble stalls sequential fetch anyway).
            terminator = block.terminator
            branch_kind = _BRANCH_KINDS[terminator.kind]
            rows.append((_BRANCH, True, _BRANCH_FU, 0, source, 0,
                         branch_kind, False, terminator.target_pc & 0xFFFF_FFFF))
            emitted += 1
            if branch_kind is BranchKind.COND and block_index + 1 < len(blocks):
                location = (func_index, block_index + 1)
            else:
                location = None
        return emitted

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
