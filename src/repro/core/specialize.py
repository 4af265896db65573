"""Config-specialized engine generation — the raw-speed tier.

:class:`~repro.core.engine.ReSimEngine` interprets one immutable
:class:`~repro.core.config.ProcessorConfig`: every major cycle it
re-reads the same config attributes, re-dispatches through the same
registries, and re-tests the same dead branches (no observers
attached, no wrong-path records in the trace, perfect memory).
Reshadi & Dutt ("Generic Pipelined Processor Modeling and High
Performance Cycle-Accurate Simulator Generation") get their speed by
*generating* the simulator from the machine description instead.
This module applies that move to ReSim:

* :func:`compile_engine` emits the source of a ``run_trace`` function
  for one fully-resolved configuration — config constants are inlined
  as literals, statistics are plain local integers, and
  statically-dead branches (observer dispatch, wrong-path recovery for
  wrong-path-free traces, the cache hierarchy under perfect memory)
  are not emitted at all — then ``exec``-compiles it, memoized
  in-process by a config-content hash;
* the memory system and the branch predictor are generated too (as
  Khatwal & Jain specialize cache simulation to its configuration):
  LRU and FIFO L1 lookups run inline against per-set lists of block
  numbers with the geometry and latencies as constants, and the
  ``twolevel``/``gshare`` PHT and history registers, the BTB and the
  RAS are locals (``perfect`` prediction emits no predictor code at
  all).  The ``random`` policy and the other schemes keep calling
  :class:`~repro.cache.hierarchy.MemorySystem` /
  :class:`~repro.bpred.unit.BranchPredictorUnit` from inside the
  generated engine, so no run changes tier;
* :class:`SpecializedEngine` wraps the compiled function behind the
  reference engine's ``run()`` shape — warmup and ROI windows
  included, compiled into the commit stage as integer comparisons
  against run-time arguments, and a record tick serving
  :class:`~repro.core.observers.ProgressObserver` — and rebuilds the
  exact :class:`~repro.core.stats.SimulationStatistics` from the
  returned counters;
* :func:`choose_tier` is the one tier rule: a run executes on
  ``specialized`` — :data:`DEFAULT_ENGINE`, the tier every entry
  point runs unless told otherwise — unless ``reference`` was
  requested or the run needs the engine between cycles
  (hook-overriding observers other than progress reporting,
  ``stop_when``, step-wise driving) or carries subclassed configs
  whose overridden behaviour the generator cannot see.

The contract is **bit-identity**: for every run it accepts the
specialized engine produces the same ``SimulationStatistics`` — and
therefore the same result documents, checkpoints, and cache keys — as
the reference engine, proven by the differential conformance suite in
``tests/test_specialize.py`` with the reference engine as oracle
(exactly how backends and shards were landed).

The generated code is a line-for-line transcription of the reference
stage semantics (Commit, Writeback, Lsq_refresh, Issue, Dispatch,
Fetch in reverse pipeline order), with two deviations in bookkeeping
that change no outcome: each in-flight op keeps the list of consumers
waiting on it (``cons``, filled at dispatch and walked at writeback)
where the reference keeps a producer-to-consumers dict, and the LSQ
refresh runs only while a dispatched load still awaits memory
readiness (a count the refresh, dispatch and the misspeculation flush
keep).  When editing ``engine.py``'s stage logic, update
:func:`_engine_source` in lockstep — the differential suite fails
loudly on any divergence.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Sequence

from repro.bpred.unit import (
    PREDICTORS,
    BranchPredictorUnit,
    PredictorConfig,
    _build_gshare,
    _build_perfect,
    _build_twolevel,
)
from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import MemorySystem
from repro.cache.replacement import REPLACEMENT_POLICIES, FifoPolicy, LruPolicy
from repro.core.config import ProcessorConfig
from repro.core.engine import (
    EngineObserver,
    SimulationResult,
    WarmupWindowError,
    check_window,
    overrides_hook,
)
from repro.core.observers import ProgressObserver
from repro.core.stats import Counter64, OccupancySampler, SimulationStatistics
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import TEXT_BASE
from repro.serialize import canonical_digest, config_to_dict
from repro.trace.record import ROW_FIELDS, ROW_TAG, RecordKind, TraceRecord
from repro.trace.source import TraceSource, as_source
from repro.utils.memo import BoundedMemo

#: The engine tier names: the interpreted oracle and the generated
#: fast path, bit-identical to it.
ENGINE_TIERS = ("reference", "specialized")

#: The tier every entry point runs unless told otherwise: the
#: generated simulator *is* the simulator, and ``reference`` stays
#: the oracle a run selects explicitly.  Specs omit ``"engine"`` when
#: it names this tier.
DEFAULT_ENGINE = "specialized"


class SpecializationError(ValueError):
    """A request the specialized tier cannot honour was forced on it."""


def _ticked(observer: EngineObserver) -> bool:
    """Is ``observer`` served by the generated engine's record tick?
    True only for a stock :class:`ProgressObserver`; any subclass may
    read engine state the generated engine does not keep, so it runs
    on the reference tier."""
    return type(observer) is ProgressObserver


def choose_tier(
    requested: str,
    config: ProcessorConfig,
    *,
    observers: Sequence[EngineObserver] = (),
    stop_when: Callable | None = None,
    stepwise: bool = False,
) -> str:
    """The tier a run executes on — the one tier rule.

    ``reference`` when it was requested, when the run needs the engine
    between cycles (an observer overriding a hook, the stock
    ``ProgressObserver`` aside, a ``stop_when`` predicate, step-wise
    driving), or when the
    config, its predictor config or either cache config is a subclass
    whose overridden behaviour the generator cannot see;
    ``specialized`` otherwise.
    """
    if (requested == "reference" or stop_when is not None or stepwise
            or any(overrides_hook(observer) and not _ticked(observer)
                   for observer in observers)
            or type(config) is not ProcessorConfig
            or type(config.predictor) is not PredictorConfig
            or type(config.icache) is not CacheConfig
            or type(config.dcache) is not CacheConfig):
        return "reference"
    return "specialized"


# ----------------------------------------------------------------------
# The in-flight-op record used by generated code.
#
# A plain __slots__ class, not the reference dataclass: generated code
# needs only the fields it actually reads, pre-decoded at admit time
# (so the hot loop never touches the trace record again), and encodes
# state as a small int (0=dispatched, 1=issued, 2=completed,
# 3=squashed; committed ops leave all structures immediately) and the
# waiting-on set as two producer-seq slots (an op has at most two
# source registers), both measurably cheaper than enum/set traffic.
# ``cons`` lists the ops waiting on this one (an op reading it through
# both sources is listed twice), so waking them costs no dict lookup.
# ----------------------------------------------------------------------


class _Op:
    __slots__ = (
        "seq", "pc", "state", "exec_done", "completed",
        "w1", "w2", "is_mem", "is_load", "is_store", "is_branch",
        "fuc", "tag", "src1", "src2", "d1", "d2", "address",
        "memory_ready", "forwarded", "bk", "taken", "target",
        "resolution", "cons",
    )


def _block(text: str, indent: int) -> list[str]:
    """Re-indent a template chunk by ``indent`` spaces."""
    pad = " " * indent
    lines = []
    for line in text.strip("\n").splitlines():
        lines.append(pad + line if line.strip() else "")
    return lines


def _admit_chunk(*, pc_var: str, wrong_path: bool) -> str:
    """The fetch-side record decode: consume the row ``rec`` (the
    :data:`~repro.trace.record.ROW_FIELDS` layout) into the IFQ.

    Pre-computes everything the later stages read so the hot loop
    never revisits the trace row.  Register semantics transcribe
    ``TraceRecord.src_registers``/``dest_registers``: sources are the
    nonzero src fields in order, destinations are (HI, LO) for MUL/DIV
    and the nonzero dest otherwise.
    """
    tag_line = "op.tag = tag\n" if wrong_path else ""
    return f"""
{", ".join(ROW_FIELDS)} = rec
op = Op()
op.seq = seq
seq += 1
op.pc = {pc_var}
op.state = 0
op.w1 = -1
op.w2 = -1
op.src1 = src1
op.src2 = src2
op.memory_ready = False
op.forwarded = False
op.cons = []
{tag_line}if kind == {RecordKind.MEMORY.value}:
    op.is_mem = True
    op.is_branch = False
    ld = fu is FU_LOAD
    op.is_load = ld
    op.is_store = not ld
    op.address = f2
    op.fuc = 0
    op.d1 = dest
    op.d2 = 0
elif kind == {RecordKind.BRANCH.value}:
    op.is_mem = False
    op.is_load = False
    op.is_store = False
    op.is_branch = True
    op.bk = f1
    op.taken = f2
    op.target = f3
    op.fuc = 0
    op.d1 = dest
    op.d2 = 0
else:
    op.is_mem = False
    op.is_branch = False
    op.is_load = fu is FU_LOAD
    op.is_store = fu is FU_STORE
    if fu is FU_MUL:
        op.fuc = 1
        op.d1 = 32
        op.d2 = 33
    elif fu is FU_DIV:
        op.fuc = 2
        op.d1 = 32
        op.d2 = 33
    else:
        op.fuc = 0
        op.d1 = dest
        op.d2 = 0
ifq.append(op)
c_fetched += 1
c_cons += 1
"""


#: All records consumed and the pipeline drained (after a refill).
_DONE = "idx >= end and not rob and not ifq and not dec"


def _refill(then: str = "", indent: int = 0) -> str:
    """Move on to the source's next block of rows once the held one is
    used up, then run ``then`` (nested under the refill), all indented
    by ``indent``.  The source's cursor catches up (``seek``) only here
    and when the run ends."""
    text = f"""
if idx >= end:
    src_seek(idx)
    rows, idx = src_block()
    end = len(rows)
{chr(10).join(_block(then, 4))}
"""
    return "\n".join(_block(text, indent)) + "\n"


def _drain_chunk() -> str:
    """Discard the wrong-path block at the cursor, counting each record
    as discarded and consumed — the reference engine's
    ``_drain_wrong_path``, for cold mid-stream starts and recovery."""
    return _refill() + f"""
while idx < end and rows[idx][{ROW_TAG}]:
    idx += 1
    c_disc += 1
    c_cons += 1
""" + _refill(indent=4)


# ----------------------------------------------------------------------
# The memory system and the branch predictor, generated inline.
#
# Timing reads only whether an L1 access hits and whether a branch was
# mispredicted or misfetched, so the generated state is what decides
# those: block numbers per cache set, and the direction tables, BTB
# and RAS of the predictor.  Policies and schemes without an emitter
# here keep calling the object model from inside the generated engine.
# ----------------------------------------------------------------------

#: Replacement policies whose sets are generated as plain lists of
#: block numbers: recency order for LRU, fill order for FIFO.
_INLINE_POLICIES = (LruPolicy, FifoPolicy)

#: Registered predictor builders whose tables are generated as locals,
#: and the form each is generated in.  Inlining is keyed on the builder
#: a scheme name resolves to, not on the name, so a scheme registered
#: over one of these keeps calling the object model.
_INLINE_BUILDERS = {
    _build_perfect: "perfect",
    _build_twolevel: "twolevel",
    _build_gshare: "gshare",
}

#: ``pc >> _WORD_SHIFT`` is ``pc // INSTRUCTION_BYTES``, the word
#: address every predictor table is indexed by.
_WORD_SHIFT = INSTRUCTION_BYTES.bit_length() - 1


def _inline_policy(cache: CacheConfig) -> type | None:
    """The replacement policy ``cache``'s lookups are generated inline
    for, or None when they call the object model."""
    policy = REPLACEMENT_POLICIES.get(cache.replacement.lower())
    return policy if policy in _INLINE_POLICIES else None


def _inline_scheme(predictor: PredictorConfig) -> str | None:
    """The form ``predictor`` is generated inline in, or None when it
    calls the object model."""
    return _INLINE_BUILDERS.get(PREDICTORS.get(predictor.scheme, None))


def _calls_memory(config: ProcessorConfig) -> bool:
    """Does the engine generated for ``config`` call a MemorySystem?"""
    return not config.perfect_memory and not (
        _inline_policy(config.icache) and _inline_policy(config.dcache))


def _calls_predictor(config: ProcessorConfig) -> bool:
    """Does the engine generated for ``config`` call a
    BranchPredictorUnit?"""
    return _inline_scheme(config.predictor) is None


def _cache_state(cache: CacheConfig, table: str) -> str:
    """The empty tag array of one inline cache: a list of block
    numbers per set."""
    if not _inline_policy(cache):
        return ""
    return f"{table} = [[] for _ in range({cache.sets})]\n"


def _cache_access(cache: CacheConfig, table: str, call: str, address: str,
                  miss: str, *, block: str | None = None) -> str:
    """One L1 access to ``address`` with the fill on a miss, then
    ``miss`` — the one emitter of all three access sites (ifetch, load
    issue, store commit), with the geometry baked in as constants.
    ``block`` names a local already holding the block number.
    Policies without an inline form call ``call`` on the object model.
    """
    miss = "\n".join(_block(miss, 4))
    policy = _inline_policy(cache)
    if not policy:
        return f"""
if not {call}({address}).hit:
{miss}
"""
    head = ""
    if block is None:
        block = "blk"
        shift = cache.block_bytes.bit_length() - 1
        head = f"blk = {address} >> {shift}\n"
    mask = cache.sets - 1
    text = head + f"""cs = {table}[{block} & {mask}]
if {block} not in cs:
    if len(cs) == {cache.assoc}:
        del cs[0]
    cs.append({block})
{miss}
"""
    if policy is LruPolicy:
        text += f"""elif cs[-1] != {block}:
    cs.remove({block})
    cs.append({block})
"""
    return text


def _icache_chunk(config: ProcessorConfig, *, pc_var: str) -> str:
    """The once-per-line I-cache access; on a miss, charges the stall
    and breaks out of the fetch loop (the record stays in the trace
    for the post-stall retry, which then hits the line buffer)."""
    if config.perfect_memory:
        return f"""
line = {pc_var} // 64
if line != last_line:
    last_line = line
    c_iacc += 1
"""
    icache = config.icache
    stall = icache.hit_latency + config.memory_latency - 1
    shift = icache.block_bytes.bit_length() - 1
    access = _cache_access(icache, "isets", "m_ifetch", pc_var, f"""
c_imiss += 1
fetch_stall += {stall}
break
""", block="line")
    return f"""
line = {pc_var} >> {shift}
if line != last_line:
    c_iacc += 1
    last_line = line
{chr(10).join(_block(access, 4))}
"""


def _direction(predictor: PredictorConfig) -> tuple[str, str, str, str]:
    """The two-level direction tables for the word address ``bw``:
    their power-on state, the line that picks the history register
    (empty for a single global one), the register, and the PHT
    index."""
    gshare = _inline_scheme(predictor) == "gshare"
    l1_size = 1 if gshare else predictor.l1_size
    state = f"pht = [2] * {predictor.l2_size}\n"
    if l1_size == 1:
        state += "ghist = 0\n"
        slot, history = "", "ghist"
    else:
        state += f"bht = [0] * {l1_size}\n"
        slot, history = f"bh = bw & {l1_size - 1}\n", "bht[bh]"
    if gshare:
        index = f"({history} ^ bw)"
    else:
        index = f"({history} | (bw << {predictor.history_length}))"
    return state, slot, history, f"{index} & {predictor.l2_size - 1}"


def _btb(predictor: PredictorConfig) -> tuple[str, str, str]:
    """The BTB for the word address ``bw``: its empty state, the
    lookup into ``pt`` (None on a miss; a hit becomes the set's most
    recently used entry) and the fill of ``op.target``.  Entries are
    keyed by ``bw``, which stands for the (set, tag) pair."""
    sets = predictor.btb_entries // predictor.btb_assoc
    # A dict per set, in LRU order: least recently used first.
    return f"btb = [{{}} for _ in range({sets})]\n", f"""
bs = btb[bw & {sets - 1}]
pt = bs.pop(bw, None)
if pt is not None:
    bs[bw] = pt
""", f"""
bs = btb[bw & {sets - 1}]
if bw in bs:
    del bs[bw]
elif len(bs) == {predictor.btb_assoc}:
    del bs[next(iter(bs))]
bs[bw] = op.target
"""


def _predictor_state(predictor: PredictorConfig) -> str:
    """The predictor's power-on state as locals (or the bound object
    calls of a scheme without an inline form)."""
    scheme = _inline_scheme(predictor)
    if scheme == "perfect":
        return ""
    if scheme is None:
        return "bp_resolve = bpred.resolve\nbp_update = bpred.update\n"
    return (_direction(predictor)[0] + _btb(predictor)[0]
            + f"ras = [0] * {predictor.ras_depth}\nras_top = 0\nras_n = 0\n")


def _resolve_chunk(predictor: PredictorConfig, *, update_at_commit: bool,
                   wrong_path: bool) -> str:
    """Predict the fetched branch ``op`` at ``pc``: sets ``mis`` (wrong
    direction), ``mf`` (misfetch) and, with wrong paths, ``wps`` (the
    wrong-path fetch PC the prediction chose, None when it follows
    from the outcome) — ``BranchPredictorUnit.resolve``.  The RAS is
    peeked, never popped."""
    wps = "wps = None\n" if wrong_path else ""
    scheme = _inline_scheme(predictor)
    if scheme == "perfect":
        return "mis = False\nmf = False\n" + wps
    if scheme is None:
        text = "resolution = bp_resolve(pc, op.bk, op.taken, op.target)\n"
        text += ("op.resolution = resolution\n" if update_at_commit
                 else _update_chunk(predictor, "pc", "resolution"))
        text += "mis = resolution.mispredicted\nmf = resolution.misfetch\n"
        if wrong_path:
            text += "wps = resolution.wrong_path_start\n"
        return text
    _, slot, _, index = _direction(predictor)
    taken_wrong = "mis = True\nwps = pt\n" if wrong_path else "mis = True\n"
    text = wps + f"""bk = op.bk
bw = pc >> {_WORD_SHIFT}
if bk is BK_RETURN:
    pt = ras[ras_top - 1] if ras_n else None
else:
{chr(10).join(_block(_btb(predictor)[1], 4))}
mis = False
mf = False
if bk is BK_COND:
{chr(10).join(_block(slot, 4))}
    if pt is not None and pht[{index}] > 1:
        if op.taken:
            mf = pt != op.target
        else:
{chr(10).join(_block(taken_wrong, 12))}
    elif op.taken:
        mis = True
else:
    mf = pt != op.target
"""
    if not update_at_commit:
        text += _update_chunk(predictor, "pc", "None")
    return text


def _update_chunk(predictor: PredictorConfig, pc_var: str,
                  resolution: str) -> str:
    """Train the predictor on branch ``op`` at ``pc_var``, in program
    order — ``BranchPredictorUnit.update``: the direction tables for
    conditional branches, the BTB for taken non-returns, RAS push on a
    call and pop on a return.  ``resolution`` is passed to the object
    model only."""
    scheme = _inline_scheme(predictor)
    if scheme == "perfect":
        return ""
    if scheme is None:
        return (f"bp_update({pc_var}, op.bk, op.taken, op.target, "
                f"{resolution})\n")
    _, slot, history, index = _direction(predictor)
    mask = (1 << predictor.history_length) - 1
    depth = predictor.ras_depth
    return f"""
bk = op.bk
bw = {pc_var} >> {_WORD_SHIFT}
if bk is BK_COND:
{chr(10).join(_block(slot, 4))}
    bx = {index}
    bc = pht[bx]
    if op.taken:
        if bc < 3:
            pht[bx] = bc + 1
        {history} = (({history} << 1) | 1) & {mask}
    else:
        if bc:
            pht[bx] = bc - 1
        {history} = ({history} << 1) & {mask}
if op.taken and bk is not BK_RETURN:
{chr(10).join(_block(_btb(predictor)[2], 4))}
if bk is BK_CALL:
    ras[ras_top] = {pc_var} + {INSTRUCTION_BYTES}
    ras_top = (ras_top + 1) % {depth}
    if ras_n < {depth}:
        ras_n += 1
elif bk is BK_RETURN and ras_n:
    ras_top = (ras_top - 1) % {depth}
    ras_n -= 1
"""


#: The generated engine's counter locals, in the order ``run_trace``
#: returns them after the cycle count (``_RAW_COUNTERS``, then the
#: IFQ/ROB/LSQ occupancy totals and peaks).
_COUNTER_LOCALS = (
    "c_commit", "c_fetched", "c_fwp", "c_disc", "c_cons", "c_branches",
    "c_loads", "c_stores", "c_mispred", "c_misfetch", "c_taken",
    "c_diverge", "c_fwd", "c_dacc", "c_dmiss", "c_iacc", "c_imiss",
    "c_fstall", "c_mfstall", "c_rstall",
    "ifq_tot", "ifq_peak", "rob_tot", "rob_peak", "lsq_tot", "lsq_peak",
)


def _engine_source(
    config: ProcessorConfig,
    *,
    update_at_commit: bool,
    wrong_path: bool,
) -> str:
    """Emit the specialized ``run_trace`` source for one configuration.

    Variant axes (each statically resolved, never re-tested at run
    time): perfect memory vs cache hierarchy, commit-time vs
    fetch-time predictor training, and wrong-path handling present vs
    compiled out (sound only for traces proven wrong-path-free).  The
    hot loop indexes the source's blocks (:meth:`TraceSource.block`),
    in memory and from files alike, and every exit leaves the source's
    cursor where the run stopped.
    Warmup and ROI bounds are run-time arguments — two integer
    comparisons per cycle — so every window shares one compiled
    function.  So is the record tick: once ``tick`` records are
    consumed the engine calls ``on_tick(cycle, consumed, counters)``
    after the cycle and takes the next bound from its return value
    (``math.inf`` when nothing observes the run).
    """
    width = config.width
    perfect = config.perfect_memory
    predictor = config.predictor
    # The object model checks the predictor geometry baked in below.
    BranchPredictorUnit(predictor)
    lines: list[str] = []

    def emit(text: str, indent: int = 0) -> None:
        lines.extend(_block(text, indent))

    emit(f"""
# Generated by repro.core.specialize for one ProcessorConfig.
# Bit-identical transcription of repro.core.engine.ReSimEngine.
def run_trace(trace, start_pc, bpred, memory, max_cycles, warmup, roi,
              tick, on_tick):
    Op = _Op
    FU_LOAD = _FU_LOAD
    FU_STORE = _FU_STORE
    FU_MUL = _FU_MUL
    FU_DIV = _FU_DIV
    BK_COND = _BK_COND
    BK_CALL = _BK_CALL
    BK_RETURN = _BK_RETURN
    ifq = _deque()
    dec = _deque()
    rob = _deque()
    lsq = _deque()
    table = [None] * 64
    unready = 0
    cycle = 0
    seq = 0
    fetch_pc = start_pc
    fetch_stall = 0
    last_line = -1
""")
    emit("".join(f"{name} = 0\n" for name in _COUNTER_LOCALS), indent=4)
    emit(_predictor_state(predictor), indent=4)
    # The cycle budget keeps counting from the start of the run; the
    # reported cycle count starts where warmup ended (base), and the
    # records consumed before it (cons_off) keep counting for the tick.
    emit("""
    warming = warmup > 0
    base = 0
    cons_off = 0
""")
    # The fetch stage reads the source's held block in the row view.
    emit("""
    src_block = trace.rows
    src_seek = trace.seek
    start = trace.consumed
    rows, idx = src_block()
    end = len(rows)
""")
    # Everything after the first block runs inside try/finally (see
    # the end), so every exit leaves the source where the run stopped.
    body = len(lines)
    if not perfect:
        emit(_cache_state(config.icache, "isets"), indent=4)
        emit(_cache_state(config.dcache, "dsets"), indent=4)
    if _calls_memory(config):
        emit("""
    m_ifetch = memory.ifetch
    m_dread = memory.dread
    m_dwrite = memory.dwrite
""")
    if wrong_path:
        emit("""
    speculative = False
    spec_pc = 0
    spec_branch_seq = -1
""")
        # Cold-start drain: a segment-range shard may open inside a
        # wrong-path block whose faulting branch lives in the previous
        # shard (same bookkeeping as the reference constructor).
        emit(_drain_chunk(), indent=4)
    if config.div_count != 1:
        emit(f"""
    div_busy = [0] * {config.div_count}
""")
    else:
        emit("""
    div_busy = 0
""")

    # ---- main loop: done check, cycle budget ----
    # The budget error counts records as the reference cursor does:
    # from the source's start, warmup included.
    emit("""
    while True:
""")
    emit(_refill(f"""
if {_DONE}:
    break
"""), indent=8)
    emit("""
        if cycle >= max_cycles:
            raise RuntimeError(
                "simulation exceeded " + str(max_cycles) + " cycles ("
                + str(start + c_cons + cons_off) + "/"
                + str(trace.total_records) + " records consumed)")
""")
    emit("""
        cycle += 1
        alu_used = 0
        mul_used = 0
        div_used = 0
""")

    # ---- Commit ----
    emit(f"""
        # ---- Commit ----
        committed = 0
        wr_used = 0
        while committed < {width} and rob:
            op = rob[0]
            if op.state != 2 or op.completed >= cycle:
                break
            if op.is_store:
                if wr_used >= {config.mem_write_ports}:
                    break
                wr_used += 1
""")
    if perfect:
        emit("""
                c_dacc += 1
""")
    else:
        emit("c_dacc += 1", indent=16)
        emit(_cache_access(config.dcache, "dsets", "m_dwrite", "op.address",
                           "c_dmiss += 1"), indent=16)
    emit("""
            rob.popleft()
            if op.is_mem:
                lsq.popleft()
            d = op.d1
            if d and table[d] is op:
                table[d] = None
            d = op.d2
            if d and table[d] is op:
                table[d] = None
            c_commit += 1
            if op.is_load:
                c_loads += 1
            elif op.is_store:
                c_stores += 1
            elif op.is_branch:
                c_branches += 1
                if op.taken:
                    c_taken += 1
""")
    if update_at_commit:
        emit(_update_chunk(predictor, "op.pc", "op.resolution"), indent=16)
    if wrong_path:
        emit("""
                committed += 1
                if op.seq == spec_branch_seq:
                    # Mis-speculation recovery: flush the pipeline,
                    # discard the rest of the tagged block, redirect.
                    for x in rob:
                        x.state = 3
                    rob.clear()
                    lsq.clear()
                    unready = 0
                    ifq.clear()
                    dec.clear()
                    for r in range(64):
                        p = table[r]
                        if p is not None and p.tag:
                            table[r] = None
""")
        emit(_drain_chunk(), indent=20)
        emit(f"""
                    fetch_pc = (op.target if op.taken
                                else op.pc + {INSTRUCTION_BYTES})
                    speculative = False
                    spec_branch_seq = -1
                    fetch_stall += {config.misspeculation_penalty}
                    c_rstall += {config.misspeculation_penalty}
                    c_mispred += 1
                    break
                continue
            committed += 1
""")
    else:
        emit("""
                committed += 1
                continue
            committed += 1
""")

    # ---- Writeback ----
    emit(f"""
        # ---- Writeback ----
        remaining = {width}
        for op in rob:
            if op.state == 1 and op.exec_done <= cycle:
                op.state = 2
                op.completed = cycle
                s = op.seq
                for c in op.cons:
                    if c.state != 3:
                        if c.w1 == s:
                            c.w1 = -1
                        if c.w2 == s:
                            c.w2 = -1
                remaining -= 1
                if remaining == 0:
                    break
""")

    # ---- Lsq_refresh ----
    emit("""
        # ---- Lsq_refresh ----
        if unready:
            stores = []
            for op in lsq:
                if op.is_store:
                    stores.append(op)
                    continue
                if op.state != 0 or op.memory_ready:
                    continue
                if op.w1 >= 0 or op.w2 >= 0:
                    continue
                ok = True
                fwd = False
                a = op.address >> 2
                for st in reversed(stores):
                    s = st.state
                    if s != 1 and s != 2:
                        ok = False
                        break
                    if (st.address >> 2) == a:
                        if s == 2:
                            fwd = True
                        else:
                            ok = False
                        break
                if ok:
                    op.memory_ready = True
                    unready -= 1
                    if fwd:
                        op.forwarded = True
""")

    # ---- Issue ----
    emit(f"""
        # ---- Issue ----
        remaining = {width}
        rd_used = 0
        for op in rob:
            if op.state != 0 or op.w1 >= 0 or op.w2 >= 0:
                continue
            if op.is_load:
                if not op.memory_ready:
                    continue
                if op.forwarded:
                    lat = 1
                    c_fwd += 1
                else:
                    if rd_used >= {config.mem_read_ports}:
                        continue
                    rd_used += 1
""")
    if perfect:
        emit("""
                    c_dacc += 1
                    lat = 1
""")
    else:
        dcache = config.dcache
        emit(f"""
                    c_dacc += 1
                    lat = {dcache.hit_latency}
""")
        emit(_cache_access(dcache, "dsets", "m_dread", "op.address", f"""
c_dmiss += 1
lat = {dcache.hit_latency + config.memory_latency}
"""), indent=20)
    emit(f"""
            else:
                f = op.fuc
                if f == 0:
                    if alu_used >= {config.alu_count}:
                        continue
                    alu_used += 1
                    lat = {config.alu_latency}
                elif f == 1:
                    if mul_used >= {config.mul_count}:
                        continue
                    mul_used += 1
                    lat = {config.mul_latency}
                else:
""")
    if config.div_count == 1:
        emit(f"""
                    if div_used >= 1 or div_busy > cycle:
                        continue
                    div_used += 1
                    div_busy = cycle + {config.div_latency}
                    lat = {config.div_latency}
""")
    else:
        emit(f"""
                    if div_used >= {config.div_count}:
                        continue
                    slot = -1
                    for i in range({config.div_count}):
                        if div_busy[i] <= cycle:
                            slot = i
                            break
                    if slot < 0:
                        continue
                    div_used += 1
                    div_busy[slot] = cycle + {config.div_latency}
                    lat = {config.div_latency}
""")
    emit("""
            op.state = 1
            op.exec_done = cycle + lat
            remaining -= 1
            if remaining == 0:
                break
""")

    # ---- Dispatch ----
    emit(f"""
        # ---- Dispatch ----
        dispatched = 0
        while dispatched < {width} and dec:
            op = dec[0]
            if len(rob) >= {config.rob_entries}:
                break
            if op.is_mem and len(lsq) >= {config.lsq_entries}:
                break
            dec.popleft()
            rob.append(op)
            if op.is_mem:
                lsq.append(op)
                if op.is_load:
                    unready += 1
            r = op.src1
            if r:
                p = table[r]
                if p is not None and p.state < 2:
                    op.w1 = p.seq
                    p.cons.append(op)
            r = op.src2
            if r:
                p = table[r]
                if p is not None and p.state < 2:
                    op.w2 = p.seq
                    p.cons.append(op)
            d = op.d1
            if d:
                table[d] = op
            d = op.d2
            if d:
                table[d] = op
            dispatched += 1
""")

    # ---- Fetch ----
    emit(f"""
        # ---- Fetch ----
        moved = 0
        while moved < {width} and len(dec) < {width} and ifq:
            dec.append(ifq.popleft())
            moved += 1
        if fetch_stall > 0:
            fetch_stall -= 1
            c_fstall += 1
        else:
            fetched = 0
            while fetched < {width} and len(ifq) < {config.ifq_entries}:
""")
    emit(_refill("""
if idx >= end:
    break
"""), indent=16)
    emit("""
                rec = rows[idx]
""")
    if wrong_path:
        emit(f"""
                if speculative:
                    if not rec[{ROW_TAG}]:
                        break
""")
        emit(_icache_chunk(config, pc_var="spec_pc"), indent=20)
        emit("idx += 1", indent=20)
        emit(_admit_chunk(pc_var="spec_pc", wrong_path=True), indent=20)
        emit(f"""
                    c_fwp += 1
                    spec_pc += {INSTRUCTION_BYTES}
                    fetched += 1
                    continue
                assert not rec[{ROW_TAG}], (
                    "tagged record outside speculative fetch; trace "
                    "and engine disagree about a misprediction")
""")
    else:
        emit(f"""
                if rec[{ROW_TAG}]:
                    raise SpecializationError(
                        "trace contains a tagged (wrong-path) record "
                        "but the engine was specialized for a "
                        "wrong-path-free trace")
""")
    emit("""
                pc = fetch_pc
""")
    emit(_icache_chunk(config, pc_var="pc"), indent=16)
    emit("idx += 1", indent=16)
    emit(_admit_chunk(pc_var="pc", wrong_path=wrong_path), indent=16)
    emit("""
                fetched += 1
                if op.is_branch:
""")
    emit(_resolve_chunk(predictor, update_at_commit=update_at_commit,
                        wrong_path=wrong_path), indent=20)
    if wrong_path:
        emit(_refill(), indent=20)
        emit(f"""
                    tagged_next = idx < end and rows[idx][{ROW_TAG}]
""")
        emit(f"""
                    if mis != tagged_next:
                        c_diverge += 1
                    if tagged_next:
                        speculative = True
                        spec_branch_seq = op.seq
                        if wps is not None:
                            spec_pc = wps
                        elif op.taken:
                            spec_pc = pc + {INSTRUCTION_BYTES}
                        else:
                            spec_pc = op.target
                        break
""")
    else:
        emit("""
                    if mis:
                        c_diverge += 1
""")
    emit(f"""
                    if op.taken:
                        fetch_pc = op.target
                        if mf:
                            fetch_stall += {config.misfetch_penalty}
                            c_misfetch += 1
                            c_mfstall += {config.misfetch_penalty}
                        break
                    fetch_pc = pc + {INSTRUCTION_BYTES}
                    if mf:
                        fetch_stall += {config.misfetch_penalty}
                        c_misfetch += 1
                        c_mfstall += {config.misfetch_penalty}
                        break
                else:
                    fetch_pc = pc + {INSTRUCTION_BYTES}
""")

    # ---- occupancy sampling ----
    emit("""
        n = len(ifq)
        ifq_tot += n
        if n > ifq_peak:
            ifq_peak = n
        n = len(rob)
        rob_tot += n
        if n > rob_peak:
            rob_peak = n
        n = len(lsq)
        lsq_tot += n
        if n > lsq_peak:
            lsq_peak = n
""")

    # ---- record tick, warmup/ROI windows, return ----
    # Tick: where the reference dispatches on_cycle hooks, once the
    # bound is reached (tick is inf when nothing observes the run).
    # Warmup: once c_commit reaches it, reset every statistic but keep
    # the machine warm; ROI: stop after the cycle in which post-warmup
    # commits reach it (roi is inf when unset).  The run also returns
    # its absolute cycle count and how many records it consumed.
    counters = ", ".join(_COUNTER_LOCALS)
    emit(f"""
        if c_cons >= tick:
            tick = on_tick(cycle, c_cons + cons_off,
                           (cycle - base, {counters})) - cons_off
        if warming:
            if c_commit >= warmup:
{_refill(indent=16)}
                if {_DONE}:
                    raise WarmupWindowError(warmup, c_commit)
                warming = False
                base = cycle
                tick -= c_cons
                cons_off += c_cons
                {" = ".join(_COUNTER_LOCALS)} = 0
        elif c_commit >= roi:
            break
    if warming:
        raise WarmupWindowError(warmup, c_commit)
    return (cycle - base, {counters}, cycle)
""")
    lines[body:] = ["    try:", *("    " + line if line else ""
                                   for line in lines[body:]),
                    "    finally:", "        src_seek(idx)"]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Codegen cache: one compiled run_trace per (config content, variant).
# ----------------------------------------------------------------------

_ENGINES: BoundedMemo[tuple, Callable] = BoundedMemo("compiled engines")


def engine_cache_key(
    config: ProcessorConfig,
    *,
    update_at_commit: bool,
    wrong_path: bool,
) -> tuple:
    """The in-process memoization key: a content hash of the config
    plus the statically-resolved variant axes and the inline forms
    the registries resolve its policies and scheme to."""
    return (
        canonical_digest(config_to_dict(config)),
        bool(update_at_commit),
        bool(wrong_path),
        _inline_policy(config.icache),
        _inline_policy(config.dcache),
        _inline_scheme(config.predictor),
    )


def compile_engine(
    config: ProcessorConfig,
    *,
    update_at_commit: bool = True,
    wrong_path: bool = True,
) -> Callable:
    """Return the compiled ``run_trace`` for this config + variant,
    generating and ``exec``-compiling it on first use (thread-safe:
    backends sharing the process share the cache, and threads racing
    on one key all get the function stored first)."""
    key = engine_cache_key(
        config,
        update_at_commit=update_at_commit,
        wrong_path=wrong_path,
    )
    fn = _ENGINES.get(key)
    if fn is not None:
        return fn
    source = _engine_source(
        config,
        update_at_commit=update_at_commit,
        wrong_path=wrong_path,
    )
    namespace = {
        "_Op": _Op,
        "_deque": deque,
        "_FU_LOAD": FuClass.LOAD,
        "_FU_STORE": FuClass.STORE,
        "_FU_MUL": FuClass.MUL,
        "_FU_DIV": FuClass.DIV,
        "_BK_COND": BranchKind.COND,
        "_BK_CALL": BranchKind.CALL,
        "_BK_RETURN": BranchKind.RETURN,
        "SpecializationError": SpecializationError,
        "WarmupWindowError": WarmupWindowError,
    }
    code = compile(source, f"<specialized-engine {key[0][:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - the source is generated above
    fn = namespace["run_trace"]
    fn.__resim_generated_source__ = source  # debuggability
    return _ENGINES.put(key, fn)


#: Hit/miss/size counters for the in-process codegen cache.
codegen_cache_info = _ENGINES.info
#: Drop all compiled engines (test isolation).
clear_codegen_cache = _ENGINES.clear


# ----------------------------------------------------------------------
# The specialized engine wrapper.
# ----------------------------------------------------------------------

_RAW_COUNTERS = (
    "major_cycles", "committed_instructions", "fetched_instructions",
    "fetched_wrong_path", "discarded_wrong_path",
    "trace_records_consumed", "committed_branches", "committed_loads",
    "committed_stores", "mispredictions", "misfetches",
    "taken_branches", "prediction_divergence", "load_forwards",
    "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "fetch_stall_cycles", "misfetch_stall_cycles",
    "recovery_stall_cycles",
)


def _stats_from_raw(raw: tuple) -> SimulationStatistics:
    """Rebuild the exact reference statistics object from the counter
    tuple a generated engine returns.

    Exactness: every generated counter is a sum of non-negative int
    increments, and ``Counter64`` masks to 64 bits at construction —
    addition then masking equals masked addition, so the local-int
    accumulation commutes with the reference's per-increment masking.
    """
    cycles = raw[0]
    counters = {
        name: Counter64(raw[index])
        for index, name in enumerate(_RAW_COUNTERS)
    }
    return SimulationStatistics(
        **counters,
        ifq_occupancy=OccupancySampler(
            total=raw[21], samples=cycles, peak=raw[22]),
        rob_occupancy=OccupancySampler(
            total=raw[23], samples=cycles, peak=raw[24]),
        lsq_occupancy=OccupancySampler(
            total=raw[25], samples=cycles, peak=raw[26]),
    )


class SpecializedEngine:
    """Drives one compiled fast-path engine over one trace.

    Exposes the slice of the reference engine surface the session
    layer drives (``run``, ``stats``, ``config``, ``source``);
    step-wise driving, observer hooks and ``stop_when``
    are reference-tier features (see :func:`choose_tier`).  Progress
    observers are the exception: the record tick calls their
    ``on_cycle`` with this engine, whose ``cycle``,
    ``cursor_position``, ``total_records`` and ``stats`` then read as
    the reference engine's would after the same cycle.  Each instance
    runs once: the generated function consumes the source in one
    call.
    """

    name = "specialized"
    tier = "specialized"

    def __init__(
        self,
        config: ProcessorConfig,
        trace: Sequence[TraceRecord] | TraceSource,
        start_pc: int | None = None,
        update_predictor_at_commit: bool = True,
        *,
        wrong_path_free: bool = False,
        observers: Sequence[EngineObserver] = (),
    ) -> None:
        progress = tuple(observer for observer in observers
                         if overrides_hook(observer))
        if not all(_ticked(observer) for observer in progress):
            raise SpecializationError(
                "observer hooks other than progress reporting need the "
                "engine between cycles; run them on the reference tier")
        self._progress = progress
        self._config = config
        self._source = as_source(trace)
        self._start_pc = TEXT_BASE if start_pc is None else start_pc
        self._update_at_commit = update_predictor_at_commit
        self._ran = False
        self._cycle = 0
        self._consumed = self._source.consumed
        self._raw: tuple | None = None
        self._stats = SimulationStatistics()
        self._run_fn = compile_engine(
            config,
            update_at_commit=update_predictor_at_commit,
            wrong_path=not wrong_path_free,
        )
        # Only what the generated code still calls into is built.
        self._bpred = (BranchPredictorUnit(config.predictor)
                       if _calls_predictor(config) else None)
        self._memory = (MemorySystem(config.icache, config.dcache,
                                     config.memory_latency)
                        if _calls_memory(config) else None)

    @property
    def config(self) -> ProcessorConfig:
        return self._config

    @property
    def source(self) -> TraceSource:
        return self._source

    @property
    def total_records(self) -> int:
        return self._source.total_records

    @property
    def cycle(self) -> int:
        """Major cycles simulated, warmup included (as of the last
        tick while running)."""
        return self._cycle

    @property
    def cursor_position(self) -> int:
        """Trace records consumed (as of the last tick while
        running)."""
        return self._consumed

    @property
    def stats(self) -> SimulationStatistics:
        """The statistics — live at a tick, final after ``run()``;
        built on first read, so a tick nobody reports costs nothing."""
        if self._stats is None:
            self._stats = _stats_from_raw(self._raw)
        return self._stats

    @property
    def generated_source(self) -> str:
        """The generated Python source (debugging/inspection)."""
        return self._run_fn.__resim_generated_source__

    def run(
        self,
        max_cycles: int | None = None,
        *,
        warmup_instructions: int = 0,
        roi_instructions: int | None = None,
        stop_when: Callable | None = None,
    ) -> SimulationResult:
        """Simulate until the trace is drained (or the ROI ends); same
        contract, windows and default cycle budget as the reference
        ``run()``."""
        if stop_when is not None:
            raise SpecializationError(
                "stop_when predicates need the engine between cycles; "
                "run them on the reference tier")
        check_window(warmup_instructions, roi_instructions)
        if self._ran:
            raise SpecializationError(
                "a SpecializedEngine runs once; build a fresh engine "
                "to re-run")
        self._ran = True
        if max_cycles is None:
            max_cycles = 64 * max(1, self._source.total_records) + 10_000
        roi = math.inf if roi_instructions is None else roi_instructions
        tick, on_tick = self._tick()
        try:
            raw = self._run_fn(self._source, self._start_pc, self._bpred,
                               self._memory, max_cycles,
                               warmup_instructions, roi, tick, on_tick)
        finally:
            self._consumed = self._source.consumed
        self._cycle = raw[-1]
        self._raw, self._stats = raw[:-1], None
        return SimulationResult(config=self._config, stats=self.stats)

    def _tick(self) -> tuple[float, Callable | None]:
        """The first record-tick bound and its callback: ``on_cycle``
        for every progress observer, then the nearest next threshold.
        Bounds count records consumed by this run, so they are offset
        by where the cursor started."""
        if not self._progress:
            return math.inf, None
        start = self._consumed
        progress = self._progress

        def bound() -> int:
            return min(observer.next_threshold
                       for observer in progress) - start

        def on_tick(cycle: int, consumed: int, raw: tuple) -> int:
            self._cycle = cycle
            self._consumed = start + consumed
            self._raw, self._stats = raw, None
            for observer in progress:
                observer.on_cycle(self)
            return bound()

        return bound(), on_tick
