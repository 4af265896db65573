"""Property-based tests: the engine must uphold its invariants on
arbitrary well-formed traces.

The strategy builds random traces with the same structural contract as
the real generators: wrong-path blocks appear only immediately after
conditional-branch records, and contain only tagged records.  The same
traces drive the generated oracle: the specialized engine must match
the reference engine's statistics document byte for byte, on the
registered configs and on drawn cache and predictor configurations.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.bpred.unit import (
    PERFECT_PREDICTOR,
    PREDICTOR_SCHEMES,
    PredictorConfig,
)
from repro.cache.cache import CacheConfig
from repro.cache.replacement import REPLACEMENT_POLICIES
from repro.core import ReSimEngine, SpecializedEngine, WarmupWindowError
from repro.core.config import ProcessorConfig
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind, FuClass
from repro.isa.program import TEXT_BASE
from repro.serialize import stats_to_dict
from repro.session import CONFIGS
from repro.trace.fileio import write_trace_file
from repro.trace.record import BranchRecord, MemoryRecord, OtherRecord
from repro.trace.source import FileSource, InMemorySource

CONFIG = ProcessorConfig(predictor=PERFECT_PREDICTOR)

_regs = st.integers(min_value=0, max_value=33)


@st.composite
def plain_record(draw, tag=False, max_word=0xFFFF,
                 kinds=("alu", "mul", "div", "load", "store")):
    kind = draw(st.sampled_from(kinds))
    if kind in ("alu", "mul", "div"):
        fu = {"alu": FuClass.ALU, "mul": FuClass.MUL,
              "div": FuClass.DIV}[kind]
        dest = 0 if kind != "alu" else draw(
            st.integers(min_value=1, max_value=31))
        return OtherRecord(tag=tag, fu=fu, dest=dest,
                           src1=draw(_regs), src2=draw(_regs))
    address = draw(st.integers(min_value=0, max_value=max_word)) * 4
    if kind == "load":
        return MemoryRecord(tag=tag, fu=FuClass.LOAD,
                            dest=draw(st.integers(min_value=1, max_value=31)),
                            src1=draw(_regs), address=address)
    return MemoryRecord(tag=tag, fu=FuClass.STORE, is_store=True,
                        src1=draw(_regs), src2=draw(_regs),
                        address=address)


@st.composite
def structured_trace(draw, wrong_path=True, max_segments=12):
    """Correct-path records with optional tagged blocks after branches
    (none when ``wrong_path`` is false)."""
    segments = draw(st.lists(st.tuples(
        st.lists(plain_record(), min_size=1, max_size=8),
        st.booleans(),   # append a branch?
        st.booleans(),   # branch taken?
        st.integers(min_value=0, max_value=6 if wrong_path else 0),
    ), min_size=1, max_size=max_segments))
    trace = []
    for body, with_branch, taken, block_length in segments:
        trace.extend(body)
        if with_branch:
            trace.append(BranchRecord(
                fu=FuClass.BRANCH, branch_kind=BranchKind.COND,
                taken=taken, target=0x0040_0800,
                src1=draw(_regs),
            ))
            for _ in range(block_length):
                trace.append(draw(plain_record(tag=True)))
    return trace


@settings(max_examples=60, deadline=None)
@given(structured_trace())
def test_engine_invariants(trace):
    """Every structured trace simulates to completion with consistent
    accounting and bounded occupancy."""
    # Perfect BP predicts every branch correctly, so tagged blocks are
    # "mispredicted" only from the trace's point of view — which is
    # exactly the authoritative-signal contract.  Use a real predictor
    # config instead so tagged blocks drive recovery:
    config = ProcessorConfig()
    engine = ReSimEngine(config, trace)
    result = engine.run()
    stats = result.stats

    correct_path = sum(1 for record in trace if not record.tag)
    wrong_path = len(trace) - correct_path

    # Accounting identities.
    assert int(stats.committed_instructions) == correct_path
    assert int(stats.trace_records_consumed) == len(trace)
    assert (int(stats.fetched_wrong_path)
            + int(stats.discarded_wrong_path)) == wrong_path
    assert int(stats.fetched_instructions) == \
        correct_path + int(stats.fetched_wrong_path)

    # Physical bounds.
    assert stats.rob_occupancy.peak <= config.rob_entries
    assert stats.lsq_occupancy.peak <= config.lsq_entries
    assert stats.ifq_occupancy.peak <= config.ifq_entries
    if correct_path:
        assert result.major_cycles >= correct_path / config.width
        assert result.ipc <= config.width

    # Mispredictions equal the number of tagged blocks.
    blocks = 0
    previous_tag = False
    for record in trace:
        if record.tag and not previous_tag:
            blocks += 1
        previous_tag = record.tag
    assert int(stats.mispredictions) == blocks


@settings(max_examples=30, deadline=None)
@given(structured_trace(),
       st.sampled_from([1, 2, 4]),
       st.sampled_from([8, 16, 32]))
def test_engine_invariants_across_configs(trace, width, rob):
    """The invariants hold for any width/ROB combination."""
    config = ProcessorConfig(width=width, rob_entries=rob,
                             ifq_entries=max(2, width))
    result = ReSimEngine(config, trace).run()
    correct_path = sum(1 for record in trace if not record.tag)
    assert int(result.stats.committed_instructions) == correct_path
    assert result.ipc <= width + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.lists(plain_record(), min_size=1, max_size=60))
def test_wider_machine_never_slower_without_branches(trace):
    """Monotonicity on branch-free traces: doubling the width cannot
    increase the cycle count.

    With branches the property is genuinely false for real OoO
    machines (a wider front end reaches the wrong path faster and
    shifts recovery timing), so it is only asserted where it actually
    holds.
    """
    narrow = ReSimEngine(ProcessorConfig(width=2), trace).run()
    wide = ReSimEngine(ProcessorConfig(width=4), trace).run()
    assert wide.major_cycles <= narrow.major_cycles + 1


@settings(max_examples=20, deadline=None)
@given(structured_trace())
def test_determinism_property(trace):
    """Two engines on the same trace produce identical statistics."""
    a = ReSimEngine(ProcessorConfig(), trace).run()
    b = ReSimEngine(ProcessorConfig(), trace).run()
    assert a.major_cycles == b.major_cycles
    assert int(a.stats.fetched_instructions) == \
        int(b.stats.fetched_instructions)


def _outcome(engine, **window):
    """The statistics document, or the warmup error both tiers must
    raise alike, then where the run left the trace cursor."""
    try:
        outcome = json.dumps(stats_to_dict(engine.run(**window).stats),
                             sort_keys=True)
    except WarmupWindowError as error:
        outcome = f"WarmupWindowError: {error}"
    return outcome, engine.cursor_position, engine.source.consumed


@st.composite
def oracle_case(draw):
    """A trace, a registry config, a trace source, a prefix of it
    consumed before the engine starts, and a warmup/ROI window for the
    reference-vs-specialized oracle.  Segments of 1 and 7 records put
    (nearly) every record on a block boundary; the prefix starts the
    engine mid-block."""
    wrong_path = draw(st.booleans())
    trace = draw(structured_trace(wrong_path=wrong_path, max_segments=24))
    config = CONFIGS.get(draw(st.sampled_from(sorted(CONFIGS))))
    segment_records = draw(st.sampled_from([1, 7, 8, 16, 32]))
    segments = -(-len(trace) // segment_records)
    lo = draw(st.integers(min_value=0, max_value=segments - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=segments))
    source = draw(st.sampled_from(["memory", "file"]))
    replayed = trace
    if source == "file":
        replayed = trace[lo * segment_records:hi * segment_records]
    prefix = draw(st.integers(min_value=0, max_value=len(replayed)))
    commits = sum(1 for record in replayed[prefix:] if not record.tag)
    warmup = draw(st.sampled_from(
        sorted({0, 1, commits // 2, max(commits - 1, 0)})))
    roi = draw(st.one_of(st.none(),
                         st.integers(min_value=1,
                                     max_value=max(commits, 1))))
    return (trace, config, segment_records, source, (lo, hi), prefix,
            dict(warmup_instructions=warmup, roi_instructions=roi))


@settings(max_examples=80, deadline=None)
@given(oracle_case())
def test_specialized_matches_reference(case):
    """Generated oracle: reference and specialized engines agree, byte
    for byte, across warmup/ROI windows, both registry configs, an
    in-memory trace and a v2 FileSource segment range, segment sizes
    down to one record, cursors started mid-block, with and without
    wrong paths — on the statistics and on where the run leaves the
    cursor."""
    (trace, config, segment_records, source, segments, prefix,
     window) = case
    wrong_path_free = not any(record.tag for record in trace)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.rtrc"
        write_trace_file(path, trace, segment_records=segment_records)

        def make():
            cursor = (InMemorySource(list(trace)) if source == "memory"
                      else FileSource(path, segments=segments))
            for _ in range(prefix):
                cursor.next()
            return cursor

        reference = _outcome(ReSimEngine(config, make()), **window)
        specialized = _outcome(
            SpecializedEngine(config, make(),
                              wrong_path_free=wrong_path_free), **window)
    assert specialized == reference


#: Branch targets: a few PCs, so branches and their targets recur and
#: the BTB and the direction tables see the same branch again.
_TARGETS = [TEXT_BASE + INSTRUCTION_BYTES * k for k in range(16)]

#: Mostly memory operations, so the D-cache sets fill and evict.
_DATA = ("alu", "mul", "load", "load", "store")


@st.composite
def control_trace(draw, wrong_path):
    """Records of every branch kind, with tagged blocks only after
    conditional branches.  PCs recur, most returns go back to their
    call (so the RAS predicts some of them right) and data addresses
    stay within 256 bytes (so small caches hit, miss and evict)."""
    pc = TEXT_BASE
    calls = []
    trace = []
    for _ in range(draw(st.integers(min_value=16, max_value=80))):
        kind = draw(st.sampled_from(
            ["op", "op", "op", "op", "cond", "cond", "jump", "call",
             "ret", "indirect"]))
        if kind == "op":
            trace.append(draw(plain_record(max_word=63, kinds=_DATA)))
            pc += INSTRUCTION_BYTES
            continue
        taken = draw(st.booleans()) if kind == "cond" else True
        target = draw(st.sampled_from(_TARGETS))
        if kind == "call":
            calls.append(pc + INSTRUCTION_BYTES)
        elif kind == "ret" and calls and draw(st.integers(0, 3)):
            target = calls.pop()
        branch_kind = {"cond": BranchKind.COND, "jump": BranchKind.JUMP,
                       "call": BranchKind.CALL, "ret": BranchKind.RETURN,
                       "indirect": BranchKind.INDIRECT}[kind]
        trace.append(BranchRecord(
            fu=FuClass.BRANCH, branch_kind=branch_kind, taken=taken,
            target=target, src1=draw(_regs)))
        if kind == "cond" and wrong_path:
            for _ in range(draw(st.integers(min_value=0, max_value=4))):
                trace.append(draw(plain_record(tag=True, max_word=63,
                                               kinds=_DATA)))
        pc = target if taken else pc + INSTRUCTION_BYTES
    return trace


@st.composite
def drawn_cache(draw, name, replacement):
    """An L1 geometry of 1-4 sets, 1-4 ways and 4-64 byte blocks."""
    block, assoc, sets = (draw(st.sampled_from([4, 8, 16, 32, 64])),
                          draw(st.sampled_from([1, 2, 4])),
                          draw(st.sampled_from([1, 2, 4])))
    return CacheConfig(name=name, size_bytes=sets * assoc * block,
                       block_bytes=block, assoc=assoc,
                       hit_latency=draw(st.integers(1, 3)),
                       replacement=replacement)


@st.composite
def drawn_config(draw, scheme, replacement):
    """A cache machine with drawn L1 geometries, ``replacement`` in the
    D-cache (the I-cache draws its own policy) and a ``scheme``
    predictor with drawn table sizes, BTB associativity and RAS
    depth."""
    policies = REPLACEMENT_POLICIES.names()
    predictor = PredictorConfig(
        scheme=scheme,
        l1_size=draw(st.sampled_from([1, 2, 4])),
        history_length=draw(st.integers(1, 6)),
        l2_size=draw(st.sampled_from([4, 16, 64])),
        bimodal_size=draw(st.sampled_from([4, 16])),
        meta_size=draw(st.sampled_from([4, 16])),
        btb_entries=draw(st.sampled_from([4, 8, 16])),
        btb_assoc=draw(st.sampled_from([1, 2, 4])),
        ras_depth=draw(st.integers(1, 4)),
    )
    return ProcessorConfig(
        width=draw(st.sampled_from([1, 2, 4])),
        predictor=predictor,
        perfect_memory=False,
        icache=draw(drawn_cache("il1", draw(st.sampled_from(policies)))),
        dcache=draw(drawn_cache("dl1", replacement)),
        memory_latency=draw(st.integers(1, 20)),
    )


@pytest.mark.parametrize("replacement", REPLACEMENT_POLICIES.names())
@pytest.mark.parametrize("scheme", PREDICTOR_SCHEMES)
# No shrink phase: shrinking a drawn config plus trace takes minutes,
# while the unshrunk failing example is reported at once and already
# names the config, the trace and both outcomes.
@settings(max_examples=12, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_specialized_matches_reference_on_drawn_configs(scheme, replacement,
                                                        data):
    """Generated oracle over configurations, not only the registered
    ones: every replacement policy and predictor scheme, drawn cache
    geometries and latencies, predictor tables, BTB associativity and
    RAS depth, both predictor-training points, with and without wrong
    paths.  The inline caches and predictors must decide every hit,
    miss, misprediction and misfetch as the object model does."""
    config = data.draw(drawn_config(scheme, replacement))
    wrong_path = data.draw(st.booleans())
    trace = data.draw(control_trace(wrong_path))
    at_commit = data.draw(st.booleans())
    reference = _outcome(ReSimEngine(
        config, list(trace), update_predictor_at_commit=at_commit))
    specialized = _outcome(SpecializedEngine(
        config, list(trace), update_predictor_at_commit=at_commit,
        wrong_path_free=not wrong_path))
    assert specialized == reference


@st.composite
def stall_config(draw):
    """A :func:`drawn_config` machine shrunk until it stalls: width 1-2,
    the smallest ROB (the width) and LSQ (one entry) the config allows
    or a few entries more, and a memory latency of up to 60 cycles, so
    loads wait behind stores and the pipeline drains behind misses."""
    base = draw(drawn_config(draw(st.sampled_from(PREDICTOR_SCHEMES)),
                             draw(st.sampled_from(
                                 REPLACEMENT_POLICIES.names()))))
    width = draw(st.sampled_from([1, 2]))
    return dataclasses.replace(
        base, width=width, ifq_entries=width,
        rob_entries=width + draw(st.integers(0, 3)),
        lsq_entries=draw(st.integers(1, 2)),
        memory_latency=draw(st.one_of(st.just(60), st.integers(1, 60))))


@st.composite
def stall_trace(draw):
    """Loads and the ops that wait on them.  Every group reads a load's
    register through both sources of one op (the op waits on one
    producer twice) and may put a store and a second load to the same
    word behind it.  A conditional branch that reads the load may
    follow, always with a wrong-path block that opens with a load and
    an op reading it through both sources, so a flush can find that op
    still waiting."""
    trace = []
    for _ in range(draw(st.integers(1, 8))):
        register, address = draw(st.integers(1, 31)), 4 * draw(
            st.integers(0, 255))
        trace.append(MemoryRecord(fu=FuClass.LOAD, dest=register,
                                  src1=draw(_regs), address=address))
        if draw(st.booleans()):
            trace.append(MemoryRecord(fu=FuClass.STORE, is_store=True,
                                      src1=draw(_regs), src2=register,
                                      address=address))
            trace.append(MemoryRecord(fu=FuClass.LOAD,
                                      dest=draw(st.integers(1, 31)),
                                      address=address))
        trace.append(draw(plain_record(kinds=("alu", "mul", "div"))
                          .map(lambda op: dataclasses.replace(
                              op, src1=register, src2=register))))
        trace.extend(draw(st.lists(plain_record(max_word=255), max_size=3)))
        if draw(st.booleans()):
            trace.append(BranchRecord(
                fu=FuClass.BRANCH, branch_kind=BranchKind.COND,
                taken=draw(st.booleans()),
                target=draw(st.sampled_from(_TARGETS)), src1=register))
            wrong = draw(st.integers(1, 31))
            trace.append(MemoryRecord(
                tag=True, fu=FuClass.LOAD, dest=wrong,
                address=4 * draw(st.integers(0, 255))))
            trace.append(OtherRecord(tag=True, fu=FuClass.ALU,
                                     dest=draw(st.integers(1, 31)),
                                     src1=wrong, src2=wrong))
            trace.extend(draw(st.lists(
                plain_record(tag=True, max_word=255), max_size=2)))
    return trace


@settings(max_examples=80, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(data=st.data())
def test_specialized_matches_reference_when_stalled(data):
    """Generated oracle on stall-bound machines: the specialized tier's
    per-op consumer lists, its LSQ refresh that runs only while a load
    awaits memory readiness, and its width-bounded writeback and issue
    scans must reproduce the reference tier's statistics — with one
    producer registered twice by one op, loads held behind stores,
    and wrong-path flushes that squash waiting consumers."""
    config = data.draw(stall_config())
    trace = data.draw(stall_trace())
    at_commit = data.draw(st.booleans())
    reference = _outcome(ReSimEngine(
        config, list(trace), update_predictor_at_commit=at_commit))
    specialized = _outcome(SpecializedEngine(
        config, list(trace), update_predictor_at_commit=at_commit,
        wrong_path_free=not any(record.tag for record in trace)))
    assert specialized == reference
