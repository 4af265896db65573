"""Per-row reference sampler: the oracle for the synthetic generator's
fused body sampler.

:meth:`repro.workloads.synthetic.SyntheticWorkload._sample_body` draws
a block's body rows in one loop, with the xorshift64* step inlined and
every draw tested against precomputed integer thresholds.  This is the
same sampling written the slow, obvious way: one ``XorShiftRNG``
method call per draw (``choose_cumulative``, ``randint``,
``geometric``, ``chance``), one function per concern, one row at a
time.  ``tests/test_workloads.py`` checks that both give the same rows
and leave the generator in the same state.
"""

from __future__ import annotations

from repro.isa.opcodes import FuClass
from repro.isa.program import DATA_BASE
from repro.trace.record import RecordKind, Row
from repro.utils.rng import XorShiftRNG, cumulative_weights
from repro.workloads.synthetic import (
    _DEST_REGS,
    _GLOBAL_REGS,
    SyntheticWorkload,
)

_OTHER, _MEMORY = RecordKind.OTHER.value, RecordKind.MEMORY.value


def body_mix(workload: SyntheticWorkload):
    """The non-branch instruction mix, folded for ``choose_cumulative``."""
    profile = workload.profile
    non_branch = 1.0 - profile.branch_fraction
    weights = {
        "load": profile.load_fraction / non_branch,
        "store": profile.store_fraction / non_branch,
        "mul": profile.mul_fraction / non_branch,
        "div": profile.div_fraction / non_branch,
    }
    weights["alu"] = max(0.0, 1.0 - sum(weights.values()))
    return cumulative_weights(weights)


def sample_source(workload: SyntheticWorkload, rng: XorShiftRNG) -> int:
    """Pick a source register via the dependency-distance model."""
    distance = rng.geometric(workload.profile.dep_distance_mean)
    recents = workload._recent_dests
    if distance <= len(recents):
        return recents[-distance]
    return _GLOBAL_REGS[rng.randint(0, len(_GLOBAL_REGS) - 1)]


def push_dest(workload: SyntheticWorkload, register: int) -> None:
    workload._recent_dests.append(register)
    if len(workload._recent_dests) > 64:
        del workload._recent_dests[:32]


def sample_address(workload: SyntheticWorkload, rng: XorShiftRNG,
                   advance: bool) -> int:
    """Draw a data address from the locality model."""
    profile = workload.profile
    bases, offsets = workload._stream_bases, workload._stream_offsets
    if rng.chance(profile.stream_fraction) and bases:
        index = rng.randint(0, len(bases) - 1)
        offset = bases[index] + offsets[index]
        if advance:
            offsets[index] = ((offsets[index] + profile.stream_stride)
                              % workload._stream_region)
    elif rng.chance(profile.hot_fraction):
        offset = rng.randint(0, profile.hot_bytes - 4) & ~3
    else:
        offset = rng.randint(0, profile.working_set_bytes - 4) & ~3
    return (DATA_BASE + offset) & 0xFFFF_FFFF


def body_row(workload: SyntheticWorkload, rng_mix: XorShiftRNG,
             rng_deps: XorShiftRNG, rng_mem: XorShiftRNG, tag: bool,
             advance_streams: bool) -> Row:
    """Sample one non-branch instruction from the profile mix."""
    kind = rng_mix.choose_cumulative(body_mix(workload))
    if kind == "load":
        dest = _DEST_REGS[rng_deps.randint(0, len(_DEST_REGS) - 1)]
        base = _GLOBAL_REGS[rng_deps.randint(0, len(_GLOBAL_REGS) - 1)]
        row = (_MEMORY, tag, FuClass.LOAD, dest, base, 0, False,
               sample_address(workload, rng_mem, advance_streams), 2)
        if not tag:
            push_dest(workload, dest)
        return row
    if kind == "store":
        base = _GLOBAL_REGS[rng_deps.randint(0, len(_GLOBAL_REGS) - 1)]
        data = sample_source(workload, rng_deps)
        return (_MEMORY, tag, FuClass.STORE, 0, base, data, True,
                sample_address(workload, rng_mem, advance_streams), 2)
    if kind in ("mul", "div"):
        return (_OTHER, tag, FuClass.MUL if kind == "mul" else FuClass.DIV,
                0, sample_source(workload, rng_deps),
                sample_source(workload, rng_deps), None, None, None)
    dest = _DEST_REGS[rng_deps.randint(0, len(_DEST_REGS) - 1)]
    row = (_OTHER, tag, FuClass.ALU, dest, sample_source(workload, rng_deps),
           sample_source(workload, rng_deps), None, None, None)
    if not tag:
        push_dest(workload, dest)
    return row


def sample_body(workload: SyntheticWorkload, count: int, rows: list[Row],
                wrong_path: bool, branch: bool) -> int:
    """What ``_sample_body(count, rows, wrong_path, branch)`` does, a
    row at a time: committed rows draw from the mix, deps and mem
    streams, wrong-path rows from the wrong-path stream alone; with
    ``branch``, the block's branch source follows from the deps (or
    wrong-path) stream."""
    if wrong_path:
        rng = workload._rng_wrongpath
        streams = (rng, rng, rng)
    else:
        streams = (workload._rng_mix, workload._rng_deps, workload._rng_mem)
    for _ in range(count):
        rows.append(body_row(workload, *streams, wrong_path, not wrong_path))
    return sample_source(workload, streams[1]) if branch else 0
