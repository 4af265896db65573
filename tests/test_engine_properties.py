"""Property-based tests: the engine must uphold its invariants on
arbitrary well-formed traces.

The strategy builds random traces with the same structural contract as
the real generators: wrong-path blocks appear only immediately after
conditional-branch records, and contain only tagged records.  The same
traces drive the generated oracle: the specialized engine must match
the reference engine's statistics document byte for byte.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.bpred.unit import PERFECT_PREDICTOR
from repro.core import ReSimEngine, SpecializedEngine, WarmupWindowError
from repro.core.config import ProcessorConfig
from repro.isa.opcodes import BranchKind, FuClass
from repro.serialize import stats_to_dict
from repro.session import CONFIGS
from repro.trace.fileio import write_trace_file
from repro.trace.record import BranchRecord, MemoryRecord, OtherRecord
from repro.trace.source import FileSource, InMemorySource

CONFIG = ProcessorConfig(predictor=PERFECT_PREDICTOR)

_regs = st.integers(min_value=0, max_value=33)


@st.composite
def plain_record(draw, tag=False):
    kind = draw(st.sampled_from(["alu", "mul", "div", "load", "store"]))
    if kind in ("alu", "mul", "div"):
        fu = {"alu": FuClass.ALU, "mul": FuClass.MUL,
              "div": FuClass.DIV}[kind]
        dest = 0 if kind != "alu" else draw(
            st.integers(min_value=1, max_value=31))
        return OtherRecord(tag=tag, fu=fu, dest=dest,
                           src1=draw(_regs), src2=draw(_regs))
    address = draw(st.integers(min_value=0, max_value=0xFFFF)) * 4
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
